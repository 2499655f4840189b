"""Permutation feature importance over score features.

Importance of a feature is the increase in mean loss when that feature's
column is shuffled while all others stay fixed: permuted loss minus the
unpermuted baseline. Classifiers are scored with zero-one loss on hard
labels, the regressor with squared error. Values can be negative and are
reported as computed. Each (feature, replication) pair draws its shuffle
from its own child generator, so importances do not depend on evaluation
order and any single pair can be reproduced in isolation.

A feature's replications are evaluated as one (replications, n) block of
predictions, scored row by row. A trained network with hidden layers is
evaluated by updating only its first layer (`_network_rows`): one
first-layer product per network, one forward pass of the layers above it
per shuffle. Any other model is called once per shuffle on a copy of the
features. Zero-one importances are the same on both paths bit for bit;
squared-error importances can differ in their last bits.

A `PfiReport` is its importance matrix plus the settings it was measured
under. `load_pfi` reads the matrix from `<name>_pfi.csv`; the summaries
that `save_pfi` also writes to `<name>_pfi.json` are never read back.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels, mlp
from .dataio import (FORMAT_VERSION, read_json, read_table_csv, write_json,
                     write_table_csv)
from .seeding import substream

DEFAULT_REPLICATIONS = 10


def _zero_one(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    labels = (predicted >= 0.5).astype(np.float64)
    return (labels != actual).astype(np.float64)


def _squared(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    r = predicted - actual
    return r * r


_LOSS_FUNCS = {"zero_one": _zero_one, "squared": _squared}
LOSS_KINDS = tuple(_LOSS_FUNCS)


def _mean_losses(loss_fn, predicted, actual) -> np.ndarray:
    """Mean loss of each row of a (k, n) block of predictions. Row i is
    np.mean(loss_fn(predicted[i], actual)) bit for bit: the same pairwise
    sum over a contiguous row, without np.mean's Python-level wrapper."""
    losses = loss_fn(predicted, actual)
    return np.add.reduce(losses, axis=1) / losses.shape[1]


@dataclass
class PfiReport:
    """Permutation importances of one model and the settings behind them.

    Attributes
    ----------
    importances : (n_features, replications) array; permuted minus baseline
        mean loss per shuffle.
    baseline_loss : mean loss without any permutation.
    loss : loss kind, one of LOSS_KINDS.
    seed, n_obs : evaluation settings.

    `n_features`, `replications`, `mean_importance` and `sd_importance`
    (ddof=1; zeros at one replication) are computed from `importances`.
    """
    importances: np.ndarray
    baseline_loss: float
    loss: str
    seed: int
    n_obs: int

    @property
    def n_features(self) -> int:
        return self.importances.shape[0]

    @property
    def replications(self) -> int:
        return self.importances.shape[1]

    @property
    def mean_importance(self) -> np.ndarray:
        return self.importances.mean(axis=1)

    @property
    def sd_importance(self) -> np.ndarray:
        return (self.importances.std(axis=1, ddof=1) if self.replications > 1
                else np.zeros(self.n_features))


def _predictor_rows(predict, X):
    """Baseline predictions as a (1, n) row, and a function giving the
    (len(perms), n) predictions with column j shuffled by each of `perms`:
    `predict` called on a copy of X with that one column permuted."""
    baseline = np.empty((1, X.shape[0]))
    baseline[0] = predict(X)
    work = X.copy()

    def rows(j, perms):
        out = np.empty(perms.shape)
        for r, perm in enumerate(perms):
            work[:, j] = X[perm, j]
            out[r] = predict(work)
        work[:, j] = X[:, j]
        return out
    return baseline, rows


def _network_rows(net, X):
    """`_predictor_rows` for a network with hidden layers, recomputing
    only what a shuffle changes.

    Permuting input j adds a rank-1 term to the first layer's
    pre-activations Z = X_s W1 + b1 (X_s the scaled input):
    (X_s[perm, j] - X_s[:, j]) outer W1[j]. So Z is computed once, the
    hidden activations of all of a feature's shuffles come from one array
    operation, and only the network above the first layer runs again, one
    `mlp_forward` per shuffle. A block holds len(perms) * n * W1.shape[1]
    values. The sum runs in another order than the full product, so
    real-valued predictions can move in their last bits.
    """
    X_s = mlp._scaled(X, net.feature_mean, net.feature_scale)
    baseline = net._head(kernels.mlp_forward(net.params, net.sizes, X_s))
    W1, b1, tail, tail_sizes = kernels._split_first(net.params, net.sizes)
    Z = np.dot(X_s, W1)
    Z += b1

    def rows(j, perms):
        col = X_s[:, j]
        shift = col[perms]
        shift -= col
        hidden = shift[:, :, None] * W1[j]
        hidden += Z
        np.maximum(hidden, 0.0, out=hidden)
        out = np.empty(perms.shape)
        for r in range(perms.shape[0]):
            out[r] = kernels.mlp_forward(tail, tail_sizes, hidden[r])
        return net._head(out)
    return baseline[None, :], rows


def permutation_importance(model, X: np.ndarray, y: np.ndarray, loss: str,
                           replications: int = DEFAULT_REPLICATIONS,
                           seed: int = 0) -> PfiReport:
    """Measure feature importances of a fitted predictor.

    Parameters
    ----------
    model : a trained `mlp.Mlp`, or a callable mapping an (n, r) feature
        array to length-n predictions (probabilities for zero-one loss,
        reals for squared). A network with hidden layers takes the fast
        path of `_network_rows`; any other model is called on a shuffled
        copy of X once per shuffle.
    X : (n, r) feature array; left unmodified.
    y : length-n actual targets.
    loss : "zero_one" or "squared".
    replications : shuffles per feature.
    seed : root seed for the shuffle substreams.
    """
    if loss not in LOSS_KINDS:
        raise ValueError(f"loss must be one of {LOSS_KINDS}")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    n, n_feat = X.shape
    if y.size != n:
        raise ValueError(f"{n} feature rows but {y.size} targets")
    if n < 2:
        raise ValueError("need at least 2 observations to permute")
    loss_fn = _LOSS_FUNCS[loss]

    if isinstance(model, mlp.Mlp) and model.sizes.size > 2:
        baseline, rows = _network_rows(model, X)
    else:
        baseline, rows = _predictor_rows(
            model.predict if isinstance(model, mlp.Mlp) else model, X)
    baseline_loss = float(_mean_losses(loss_fn, baseline, y)[0])
    importances = np.empty((n_feat, replications))
    for j in range(n_feat):
        perms = np.array([substream(seed, j, rep).permutation(n)
                          for rep in range(replications)])
        np.subtract(_mean_losses(loss_fn, rows(j, perms), y), baseline_loss,
                    out=importances[j])
    return PfiReport(importances=importances, baseline_loss=baseline_loss,
                     loss=loss, seed=seed, n_obs=n)


def rank_features(report: PfiReport) -> np.ndarray:
    """1-based feature indices sorted by descending mean importance;
    exact ties break toward the smaller index."""
    order = np.lexsort((np.arange(report.n_features),
                        -report.mean_importance))
    return order + 1


_CSV_HEADER = ["feature", "replication", "importance"]
# the shape of `<name>_pfi.json`, as `load_pfi` reads it
_JSON_KINDS = {"loss": "", "replications": 0, "seed": 0, "n_obs": 0,
               "baseline_loss": 0.0}


def _cells(n_features: int, replications: int) -> np.ndarray:
    """The 1-based (feature, replication) columns of `<name>_pfi.csv`."""
    return np.column_stack([
        np.repeat(np.arange(1.0, n_features + 1), replications),
        np.tile(np.arange(1.0, replications + 1), n_features)])


def save_pfi(report: PfiReport, outdir: Path, name: str) -> None:
    """Persist as `<name>_pfi.csv` (one row per importance) plus a
    `<name>_pfi.json` of the settings, summaries and ranking."""
    outdir = Path(outdir)
    rows = np.column_stack([_cells(report.n_features, report.replications),
                            report.importances.ravel()])
    write_table_csv(outdir / f"{name}_pfi.csv", _CSV_HEADER, rows)
    write_json(outdir / f"{name}_pfi.json", {
        "format_version": FORMAT_VERSION,
        "loss": report.loss,
        "replications": report.replications,
        "seed": report.seed,
        "n_obs": report.n_obs,
        "baseline_loss": report.baseline_loss,
        "mean_importance": [float(v) for v in report.mean_importance],
        "sd_importance": [float(v) for v in report.sd_importance],
        "ranking": [int(v) for v in rank_features(report)],
    })


def load_pfi(outdir: Path, name: str) -> PfiReport:
    """The report `save_pfi` wrote; the JSON's summaries are not read."""
    outdir = Path(outdir)
    json_path = outdir / f"{name}_pfi.json"
    meta = read_json(json_path, _JSON_KINDS)
    loss, reps = meta["loss"], meta["replications"]
    if loss not in LOSS_KINDS:
        raise ValueError(f"{json_path}: loss must be one of "
                         f"{', '.join(LOSS_KINDS)}, got {loss!r}")
    path = outdir / f"{name}_pfi.csv"
    header, rows = read_table_csv(path)
    n_feat = rows.shape[0] // reps if reps > 0 else 0  # no row fits reps < 1
    if header != _CSV_HEADER or not np.array_equal(rows[:, :2],
                                                   _cells(n_feat, reps)):
        raise ValueError(f"{path}: expected columns {','.join(_CSV_HEADER)} "
                         f"and one row per (feature, replication) pair in "
                         f"feature-major order, {reps} replications each")
    return PfiReport(
        importances=np.ascontiguousarray(rows[:, 2]).reshape(n_feat, reps),
        baseline_loss=meta["baseline_loss"], loss=loss, seed=meta["seed"],
        n_obs=meta["n_obs"])
