"""Feed-forward networks trained on component scores.

From-scratch backpropagation over a flat parameter vector (weights then
biases, layer by layer), optimized with mini-batch adaptive-moment descent.
Binary classifiers use a logistic head with cross-entropy; the regressor
uses a linear head with mean squared error. Training is deterministic for
a fixed config, data, and seed: one generator drives, in order, the
internal validation split, the weight initialization, and the per-epoch
batch shuffles.

Training stops early by patience on the internal validation loss: it ends
once `patience` epochs in a row bring no drop larger than the absolute
MIN_DELTA below the lowest loss so far (Keras's absolute convention).
Smaller drops still count for the weights kept: the returned network has
the weights of the lowest validation loss seen. On separable data the
cross-entropy falls geometrically toward zero, about 1% per epoch, so
without MIN_DELTA every epoch is a new best and training runs to
`max_epochs`.
"""

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from ._config import _float_fields, _override
from .dataio import (FORMAT_VERSION, _in_file, read_json, read_table_csv,
                     write_json, write_table_csv)
from .errors import NumericalError

# Adam's published defaults (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# smallest validation-loss drop that resets the patience counter; fixed
# before measuring, not tuned
MIN_DELTA = 1e-4
STANDARDIZE_MIN_SD = 1e-12

TASKS = ("classification", "regression")


@dataclass(frozen=True)
class MlpConfig:
    hidden_sizes: tuple[int, ...] = (50, 40, 30)
    task: str = "classification"
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 500
    patience: int = 20
    val_fraction: float = 0.1
    seed: int = 0
    standardize: bool = True

    def __post_init__(self):
        _float_fields(self)
        object.__setattr__(self, "hidden_sizes",
                           tuple(int(h) for h in self.hidden_sizes))
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden layer sizes must be positive")
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MlpConfig":
        return _override(cls(), d, "MlpConfig")


@dataclass
class TrainingLog:
    """Per-epoch losses and how training ended.

    `stop_reason` is "max_epochs" when the epoch budget ran out,
    "patience" when the last `patience` epochs brought no new lowest
    validation loss, and "min_delta" when they did, but none lower by
    more than MIN_DELTA.
    """
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    epochs_run: int = 0
    stop_reason: str = "max_epochs"


def layer_sizes(n_features: int, config: MlpConfig) -> np.ndarray:
    return np.array([n_features, *config.hidden_sizes, 1], dtype=np.int64)


def n_params(sizes: np.ndarray) -> int:
    return int(np.sum(sizes[:-1] * sizes[1:] + sizes[1:]))


def init_params(sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """He-style initialization: weights ~ N(0, 2/fan_in), biases zero."""
    params = np.zeros(n_params(sizes))
    for W, _ in kernels._layer_views(params, sizes):
        W[:] = rng.standard_normal(W.shape) * np.sqrt(2.0 / W.shape[0])
    return params


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _scaled(scores: np.ndarray, mean: np.ndarray,
            scale: np.ndarray) -> np.ndarray:
    """`(scores - mean) / scale`, C-contiguous: a network's input."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    if scores.shape[1] != mean.size:
        raise ValueError(f"expected {mean.size} features, "
                         f"got {scores.shape[1]}")
    # (x - +0.0) / 1.0 is x bit for bit, -0.0 included; a -0.0 mean
    # would turn -0.0 into +0.0, so only an all-+0.0 mean is skipped
    if not (np.count_nonzero(mean) or np.count_nonzero(np.signbit(mean))
            or np.count_nonzero(scale != 1.0)):
        return np.ascontiguousarray(scores)
    return np.ascontiguousarray((scores - mean) / scale)


@dataclass(eq=False)
class Mlp:
    """Trained network: flat parameters plus standardization state."""

    config: MlpConfig
    sizes: np.ndarray
    params: np.ndarray
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    passthrough: np.ndarray
    log: TrainingLog

    def predict(self, scores: np.ndarray) -> np.ndarray:
        """Class probabilities (classification) or real predictions (regression)."""
        return self._head(kernels.mlp_forward(self.params, self.sizes, _scaled(
            scores, self.feature_mean, self.feature_scale)))

    def _head(self, z: np.ndarray) -> np.ndarray:
        """Raw network outputs (any shape) mapped to the predictions of
        `predict`, element by element."""
        if self.config.task == "classification":
            return _stable_sigmoid(z)
        return z

    def predict_labels(self, scores: np.ndarray) -> np.ndarray:
        """Hard 0/1 labels; probability >= 0.5 maps to 1."""
        if self.config.task != "classification":
            raise ValueError("hard labels only exist for classification")
        return (self.predict(scores) >= 0.5).astype(np.int64)


def _standardization(scores: np.ndarray, enabled: bool):
    n_feat = scores.shape[1]
    if not enabled:
        return np.zeros(n_feat), np.ones(n_feat), np.zeros(n_feat, dtype=bool)
    mean = scores.mean(axis=0)
    sd = scores.std(axis=0)
    passthrough = sd < STANDARDIZE_MIN_SD
    scale = np.where(passthrough, 1.0, sd)
    return mean, scale, passthrough


def _validate_targets(targets: np.ndarray, task: str) -> np.ndarray:
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if task == "classification":
        if not np.all(np.isin(targets, (0.0, 1.0))):
            raise ValueError("classification targets must be 0 or 1")
    elif not np.all(np.isfinite(targets)):
        raise ValueError("regression targets must be finite")
    return targets


def train(scores: np.ndarray, targets: np.ndarray, config: MlpConfig) -> Mlp:
    """Train a network on score features.

    Parameters
    ----------
    scores : (n, r) array of component scores.
    targets : length-n vector; {0,1} for classification, reals for regression.
    config : MlpConfig.

    Returns
    -------
    Mlp with the weights that achieved the lowest internal-validation loss
    (or the final weights when `val_fraction` is 0); its log records why
    training stopped (see TrainingLog).
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    targets = _validate_targets(targets, config.task)
    n, n_feat = scores.shape
    if targets.size != n:
        raise ValueError(f"{n} score rows but {targets.size} targets")

    mean, scale, passthrough = _standardization(scores, config.standardize)
    X = _scaled(scores, mean, scale)

    rng = np.random.default_rng(config.seed)
    n_val = int(round(config.val_fraction * n))
    if n_val >= n:
        raise ValueError("validation split leaves no training rows")
    perm = rng.permutation(n)
    val_idx, fit_idx = perm[:n_val], perm[n_val:]
    X_fit = np.ascontiguousarray(X[fit_idx])
    y_fit = np.ascontiguousarray(targets[fit_idx])
    X_val = np.ascontiguousarray(X[val_idx])
    y_val = np.ascontiguousarray(targets[val_idx])

    sizes = layer_sizes(n_feat, config)
    params = init_params(sizes, rng)
    m1 = np.zeros_like(params)
    m2 = np.zeros_like(params)
    step = 0

    log = TrainingLog()
    best_val = np.inf
    best_params = params.copy()
    since_progress = 0  # epochs since it last fell by more than MIN_DELTA
    for epoch in range(config.max_epochs):
        order = rng.permutation(X_fit.shape[0])
        train_loss, step = kernels.adam_epoch(
            params, m1, m2, step, sizes, X_fit, y_fit, order,
            config.batch_size, config.learning_rate, ADAM_BETA1, ADAM_BETA2,
            ADAM_EPS, config.task)
        if not np.isfinite(train_loss):
            raise NumericalError(
                f"non-finite training loss {train_loss} at epoch {epoch}")
        log.train_loss.append(float(train_loss))
        log.epochs_run = epoch + 1
        if n_val > 0:
            val_loss = float(kernels._mean_loss(
                kernels.mlp_forward(params, sizes, X_val), y_val,
                config.task))
            log.val_loss.append(val_loss)
            progress = val_loss < best_val - MIN_DELTA
            if val_loss < best_val:
                best_val = val_loss
                best_params[:] = params
                log.best_epoch = epoch
            if progress:
                since_progress = 0
            else:
                since_progress += 1
                if since_progress >= config.patience:
                    log.stop_reason = (
                        "patience" if epoch - log.best_epoch >= config.patience
                        else "min_delta")
                    break

    if n_val > 0:
        params = best_params
    return Mlp(config, sizes, params, mean, scale, passthrough, log)


def save_mlp(model: Mlp, outdir: Path) -> None:
    """Persist as JSON manifest plus one CSV per layer (bias row, then the
    fan_in weight rows)."""
    outdir = Path(outdir)
    write_json(outdir / "mlp.json", {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "feature_mean": [float(v) for v in model.feature_mean],
        "feature_scale": [float(v) for v in model.feature_scale],
        "passthrough": [bool(v) for v in model.passthrough],
        "log": asdict(model.log),
    })
    for layer, (W, b) in enumerate(kernels._layer_views(model.params,
                                                        model.sizes)):
        write_table_csv(outdir / f"layer_{layer}.csv",
                        [f"unit_{u + 1}" for u in range(b.size)],
                        np.vstack([b[None, :], W]))
    layer = len(model.sizes) - 1  # drop the layers a deeper network left
    while (stale := outdir / f"layer_{layer}.csv").exists():
        stale.unlink()
        layer += 1


# the shape of `mlp.json`, as `load_mlp` reads it; `MlpConfig.from_dict`
# checks the fields of `config`
_JSON_KINDS = {"config": {}, "feature_mean": [0.0], "feature_scale": [0.0],
               "passthrough": [False], "log": asdict(TrainingLog([0.0], [0.0]))}


def load_mlp(outdir: Path) -> Mlp:
    """The saved network; its input width is `layer_0.csv`'s rows - 1."""
    outdir = Path(outdir)
    path = outdir / "mlp.json"
    meta = read_json(path, _JSON_KINDS)
    with _in_file(path):
        config = MlpConfig.from_dict(meta["config"])
    _, first = read_table_csv(outdir / "layer_0.csv")
    sizes = layer_sizes(first.shape[0] - 1, config)
    for key in ("feature_mean", "feature_scale", "passthrough"):
        if len(meta[key]) != sizes[0]:
            raise ValueError(f"{path}: {key} has {len(meta[key])} entries, "
                             f"expected {sizes[0]}, one per input")
    params = np.empty(n_params(sizes))
    for layer, (W, b) in enumerate(kernels._layer_views(params, sizes)):
        csv_path = outdir / f"layer_{layer}.csv"
        tab = read_table_csv(csv_path)[1] if layer else first
        if tab.shape != (W.shape[0] + 1, W.shape[1]):
            raise ValueError(f"{csv_path}: shape {tab.shape} does not fit "
                             f"the layer widths {sizes.tolist()}")
        b[:] = tab[0]
        W[:] = tab[1:]
    if (outdir / f"layer_{sizes.size - 1}.csv").exists():
        raise ValueError(f"{path}: more layer CSVs than {sizes.tolist()}")
    log = TrainingLog(**meta["log"])
    return Mlp(config, sizes, params,
               np.asarray(meta["feature_mean"], dtype=np.float64),
               np.asarray(meta["feature_scale"], dtype=np.float64),
               np.asarray(meta["passthrough"], dtype=bool), log)
