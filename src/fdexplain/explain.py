"""Permutation feature importance over score features.

Importance of a feature is the increase in mean loss when that feature's
column is shuffled while all others stay fixed: permuted loss minus the
unpermuted baseline. Classifiers are scored with zero-one loss on hard
labels, the regressor with squared error. Values can be negative and are
reported as computed. Each (feature, replication) pair draws its shuffle
from its own child generator, so importances do not depend on evaluation
order and any single pair can be reproduced in isolation.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import FORMAT_VERSION, read_json, read_table_csv, write_json, write_table_csv
from .seeding import substream

LOSS_KINDS = ("zero_one", "squared")

DEFAULT_REPLICATIONS = 10


def _zero_one(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    labels = (predicted >= 0.5).astype(np.float64)
    return (labels != actual).astype(np.float64)


def _squared(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    r = predicted - actual
    return r * r


_LOSS_FUNCS = {"zero_one": _zero_one, "squared": _squared}


def _mean_loss(loss_fn, predicted, actual) -> float:
    """np.mean of the per-observation losses, bit for bit, without its
    Python-level wrapper."""
    losses = loss_fn(np.asarray(predicted, dtype=np.float64), actual)
    return float(np.add.reduce(losses, axis=None) / losses.size)


@dataclass
class PfiReport:
    """Permutation importance results for one model.

    Attributes
    ----------
    importances : (n_features, replications) array; permuted minus baseline
        mean loss per shuffle.
    mean_importance : per-feature mean over replications.
    sd_importance : per-feature standard deviation over replications
        (ddof=1; zeros when there is a single replication).
    baseline_loss : mean loss without any permutation.
    loss : loss kind, "zero_one" or "squared".
    replications, seed, n_obs : evaluation settings.
    """
    importances: np.ndarray
    mean_importance: np.ndarray
    sd_importance: np.ndarray
    baseline_loss: float
    loss: str
    replications: int
    seed: int
    n_obs: int

    @property
    def n_features(self) -> int:
        return self.importances.shape[0]


def permutation_importance(predict, X: np.ndarray, y: np.ndarray, loss: str,
                           replications: int = DEFAULT_REPLICATIONS,
                           seed: int = 0) -> PfiReport:
    """Measure feature importances of a fitted predictor.

    Parameters
    ----------
    predict : callable mapping an (n, r) feature array to length-n
        predictions (probabilities for zero-one loss, reals for squared).
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

    baseline = _mean_loss(loss_fn, predict(X), y)
    work = X.copy()
    importances = np.empty((n_feat, replications))
    for j in range(n_feat):
        saved = work[:, j].copy()
        for rep in range(replications):
            rng = substream(seed, j, rep)
            work[:, j] = saved[rng.permutation(n)]
            permuted = _mean_loss(loss_fn, predict(work), y)
            importances[j, rep] = permuted - baseline
        work[:, j] = saved

    if replications > 1:
        sd = importances.std(axis=1, ddof=1)
    else:
        sd = np.zeros(n_feat)
    return PfiReport(importances=importances,
                     mean_importance=importances.mean(axis=1),
                     sd_importance=sd,
                     baseline_loss=baseline,
                     loss=loss,
                     replications=replications,
                     seed=seed,
                     n_obs=n)


def rank_features(report: PfiReport) -> np.ndarray:
    """1-based feature indices sorted by descending mean importance;
    exact ties break toward the smaller index."""
    order = np.lexsort((np.arange(report.n_features),
                        -report.mean_importance))
    return order + 1


def save_pfi(report: PfiReport, outdir: Path, name: str) -> None:
    """Persist as `<name>_pfi.csv` (feature, replication, importance rows,
    1-based indices) plus a `<name>_pfi.json` summary."""
    outdir = Path(outdir)
    rows = np.column_stack([
        np.repeat(np.arange(1.0, report.n_features + 1), report.replications),
        np.tile(np.arange(1.0, report.replications + 1), report.n_features),
        report.importances.ravel(),
    ])
    write_table_csv(outdir / f"{name}_pfi.csv",
                    ["feature", "replication", "importance"], rows)
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
    outdir = Path(outdir)
    meta = read_json(outdir / f"{name}_pfi.json", required=(
        "loss", "replications", "seed", "n_obs", "baseline_loss",
        "mean_importance", "sd_importance"))
    path = outdir / f"{name}_pfi.csv"
    _, rows = read_table_csv(path)
    n_feat = len(meta["mean_importance"])
    reps = int(meta["replications"])
    if rows.shape[0] != n_feat * reps:
        raise ValueError(f"{name}_pfi.csv has {rows.shape[0]} rows, "
                         f"expected {n_feat * reps}")
    # with the row count right, in-range distinct pairs fill every cell
    pairs = rows[:, :2]
    in_range = ((pairs >= 1) & (pairs <= (n_feat, reps))
                & (pairs == np.round(pairs)))
    cells = ((pairs[:, 0] - 1) * reps + pairs[:, 1] - 1).astype(np.int64)
    if not in_range.all() or np.unique(cells).size != cells.size:
        raise ValueError(f"{path}: (feature, replication) pairs do not cover "
                         f"each of the {n_feat}x{reps} cells exactly once")
    importances = np.empty(n_feat * reps)
    importances[cells] = rows[:, 2]
    return PfiReport(importances=importances.reshape(n_feat, reps),
                     mean_importance=np.asarray(meta["mean_importance"]),
                     sd_importance=np.asarray(meta["sd_importance"]),
                     baseline_loss=float(meta["baseline_loss"]),
                     loss=meta["loss"],
                     replications=reps,
                     seed=int(meta["seed"]),
                     n_obs=int(meta["n_obs"]))
