"""Feed-forward networks trained on component scores.

From-scratch backpropagation over a flat parameter vector (weights then
biases, layer by layer), optimized with mini-batch adaptive-moment descent.
Binary classifiers use a logistic head with cross-entropy; the regressor
uses a linear head with mean squared error. Training is deterministic for
a fixed config, data, and seed: one generator drives, in order, the
internal validation split, the weight initialization, and the per-epoch
batch shuffles.
"""

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import kernels
from .dataio import FORMAT_VERSION, read_json, read_table_csv, write_json, write_table_csv
from .errors import NumericalError

ADAM_EPS = 1e-8
STANDARDIZE_MIN_SD = 1e-12

TASKS = ("classification", "regression")

_CHECK_MAX_SAMPLES = 20
_CHECK_MAX_FEATURES = 5


@dataclass(frozen=True)
class MlpConfig:
    hidden_sizes: tuple[int, ...] = (50, 40, 30)
    task: str = "classification"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 64
    max_epochs: int = 500
    patience: int = 20
    val_fraction: float = 0.1
    seed: int = 0
    standardize: bool = True

    def __post_init__(self):
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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "MlpConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown MlpConfig fields: {sorted(unknown)}")
        d = dict(d)
        if "hidden_sizes" in d:
            d["hidden_sizes"] = tuple(d["hidden_sizes"])
        return cls(**d)

    @property
    def task_code(self) -> int:
        return (kernels.TASK_CLASSIFICATION if self.task == "classification"
                else kernels.TASK_REGRESSION)


@dataclass
class TrainingLog:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    epochs_run: int = 0


def layer_sizes(n_features: int, config: MlpConfig) -> np.ndarray:
    return np.array([n_features, *config.hidden_sizes, 1], dtype=np.int64)


def n_params(sizes: np.ndarray) -> int:
    return int(np.sum(sizes[:-1] * sizes[1:] + sizes[1:]))


def init_params(sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """He-style initialization: weights ~ N(0, 2/fan_in), biases zero."""
    params = np.empty(n_params(sizes))
    off = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = rng.standard_normal((int(fan_in), int(fan_out))) * np.sqrt(2.0 / fan_in)
        params[off:off + fan_in * fan_out] = w.ravel()
        off += int(fan_in * fan_out)
        params[off:off + fan_out] = 0.0
        off += int(fan_out)
    return params


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _mean_loss(z: np.ndarray, y: np.ndarray, task_code: int) -> float:
    # np.add.reduce(x) / n is np.mean(x), bit for bit, minus its wrapper
    if task_code == kernels.TASK_CLASSIFICATION:
        return float(np.add.reduce(np.maximum(z, 0.0) - y * z
                                   + np.log1p(np.exp(-np.abs(z)))) / z.size)
    r = z - y
    return float(np.add.reduce(r * r) / z.size)


class Mlp:
    """Trained network: flat parameters plus standardization state."""

    def __init__(self, config: MlpConfig, sizes: np.ndarray, params: np.ndarray,
                 feature_mean: np.ndarray, feature_scale: np.ndarray,
                 passthrough: np.ndarray, log: TrainingLog):
        self.config = config
        self.sizes = sizes
        self.params = params
        self.feature_mean = feature_mean
        self.feature_scale = feature_scale
        self.passthrough = passthrough
        self.log = log

    @property
    def n_features(self) -> int:
        return int(self.sizes[0])

    def _layer_offsets(self, layer: int) -> tuple[int, int]:
        off = 0
        for l in range(layer):
            off += int(self.sizes[l] * self.sizes[l + 1] + self.sizes[l + 1])
        return off, off + int(self.sizes[layer] * self.sizes[layer + 1])

    def weights(self, layer: int) -> np.ndarray:
        lo, hi = self._layer_offsets(layer)
        return self.params[lo:hi].reshape(int(self.sizes[layer]),
                                          int(self.sizes[layer + 1]))

    def biases(self, layer: int) -> np.ndarray:
        _, hi = self._layer_offsets(layer)
        return self.params[hi:hi + int(self.sizes[layer + 1])]

    def _standardized(self, scores: np.ndarray) -> np.ndarray:
        scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
        if scores.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, "
                             f"got {scores.shape[1]}")
        mean, scale = self.feature_mean, self.feature_scale
        # (x - +0.0) / 1.0 is x bit for bit, -0.0 included; a -0.0 mean
        # would turn -0.0 into +0.0, so only an all-+0.0 mean is skipped
        if not (np.count_nonzero(mean) or np.count_nonzero(np.signbit(mean))
                or np.count_nonzero(scale != 1.0)):
            return np.ascontiguousarray(scores)
        return np.ascontiguousarray((scores - mean) / scale)

    def raw_output(self, scores: np.ndarray) -> np.ndarray:
        return kernels.mlp_forward(self.params, self.sizes,
                                   self._standardized(scores))

    def predict(self, scores: np.ndarray) -> np.ndarray:
        """Class probabilities (classification) or real predictions (regression)."""
        z = self.raw_output(scores)
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
    Mlp with the weights that achieved the best internal-validation loss
    (or the final weights when `val_fraction` is 0).
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    targets = _validate_targets(targets, config.task)
    n, n_feat = scores.shape
    if targets.size != n:
        raise ValueError(f"{n} score rows but {targets.size} targets")

    mean, scale, passthrough = _standardization(scores, config.standardize)
    X = (scores - mean) / scale

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
    task = config.task_code

    log = TrainingLog()
    best_val = np.inf
    best_params = params.copy()
    since_best = 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(X_fit.shape[0])
        train_loss, step = kernels.adam_epoch(
            params, m1, m2, step, sizes, X_fit, y_fit, order,
            config.batch_size, config.learning_rate, config.beta1,
            config.beta2, ADAM_EPS, task)
        if not np.isfinite(train_loss):
            raise NumericalError(
                f"non-finite training loss {train_loss} at epoch {epoch}")
        log.train_loss.append(float(train_loss))
        log.epochs_run = epoch + 1
        if n_val > 0:
            val_loss = _mean_loss(kernels.mlp_forward(params, sizes, X_val),
                                  y_val, task)
            log.val_loss.append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best_params[:] = params
                log.best_epoch = epoch
                since_best = 0
            else:
                since_best += 1
                if since_best >= config.patience:
                    break

    if n_val > 0:
        params = best_params
    return Mlp(config, sizes, params, mean, scale, passthrough, log)


def gradient_check(config: MlpConfig, scores: np.ndarray, targets: np.ndarray,
                   perturbation: float = 1e-5) -> float:
    """Max symmetric relative error between analytic and central-difference
    gradients at the seeded initialization, over every parameter."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    targets = _validate_targets(targets, config.task)
    n, n_feat = scores.shape
    if n > _CHECK_MAX_SAMPLES or n_feat > _CHECK_MAX_FEATURES:
        raise ValueError(f"gradient_check is for instances up to "
                         f"{_CHECK_MAX_SAMPLES}x{_CHECK_MAX_FEATURES}, "
                         f"got {n}x{n_feat}")
    mean, scale, _ = _standardization(scores, config.standardize)
    X = np.ascontiguousarray((scores - mean) / scale)

    sizes = layer_sizes(n_feat, config)
    rng = np.random.default_rng(config.seed)
    params = init_params(sizes, rng)
    task = config.task_code

    analytic = np.empty_like(params)
    kernels.mlp_loss_grad(params, sizes, X, targets, task, analytic)

    worst = 0.0
    scratch = np.empty_like(params)
    for i in range(params.size):
        saved = params[i]
        params[i] = saved + perturbation
        up = kernels.mlp_loss_grad(params, sizes, X, targets, task, scratch)
        params[i] = saved - perturbation
        down = kernels.mlp_loss_grad(params, sizes, X, targets, task, scratch)
        params[i] = saved
        numeric = (up - down) / (2.0 * perturbation)
        # the floor keeps finite-difference roundoff on near-zero
        # components (~1e-11 absolute at unit loss scale) out of the ratio
        err = abs(analytic[i] - numeric) / max(abs(analytic[i]) + abs(numeric), 1e-6)
        worst = max(worst, err)
    return worst


def save_mlp(model: Mlp, outdir: Path) -> None:
    """Persist as JSON manifest plus one CSV per layer (bias row, then the
    fan_in weight rows)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "mlp.json", {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "sizes": [int(s) for s in model.sizes],
        "feature_mean": [float(v) for v in model.feature_mean],
        "feature_scale": [float(v) for v in model.feature_scale],
        "passthrough": [bool(v) for v in model.passthrough],
        "log": {
            "train_loss": model.log.train_loss,
            "val_loss": model.log.val_loss,
            "best_epoch": model.log.best_epoch,
            "epochs_run": model.log.epochs_run,
        },
    })
    for layer in range(model.sizes.size - 1):
        header = [f"unit_{u + 1}" for u in range(int(model.sizes[layer + 1]))]
        rows = np.vstack([model.biases(layer)[None, :], model.weights(layer)])
        write_table_csv(outdir / f"layer_{layer}.csv", header, rows)


def load_mlp(outdir: Path) -> Mlp:
    outdir = Path(outdir)
    meta = read_json(outdir / "mlp.json")
    config = MlpConfig.from_dict(meta["config"])
    sizes = np.asarray(meta["sizes"], dtype=np.int64)
    params = np.empty(n_params(sizes))
    off = 0
    for layer in range(sizes.size - 1):
        _, tab = read_table_csv(outdir / f"layer_{layer}.csv")
        fan_in, fan_out = int(sizes[layer]), int(sizes[layer + 1])
        if tab.shape != (fan_in + 1, fan_out):
            raise ValueError(f"layer_{layer}.csv has shape {tab.shape}, "
                             f"expected {(fan_in + 1, fan_out)}")
        params[off:off + fan_in * fan_out] = tab[1:].ravel()
        off += fan_in * fan_out
        params[off:off + fan_out] = tab[0]
        off += fan_out
    log = TrainingLog(**meta["log"])
    return Mlp(config, sizes, params,
               np.asarray(meta["feature_mean"], dtype=np.float64),
               np.asarray(meta["feature_scale"], dtype=np.float64),
               np.asarray(meta["passthrough"], dtype=bool), log)
