"""Functional principal component analysis on a uniform grid.

The covariance operator eigenproblem, discretized with quadrature weight
dt, is equivalent to the symmetric eigenproblem of the dt-scaled sample
covariance. We solve it through the SVD of the centered data matrix scaled
by sqrt(dt): with C = X - mean and S = C*sqrt(dt) = U diag(s) V^T,

    eigenvalue_j  = s_j**2 / (n - 1)
    eigenfunction_j = V_j / sqrt(dt)

which makes the eigenfunctions orthonormal under the quadrature inner
product sum_i f(t_i) g(t_i) dt, and score variances equal the eigenvalues.

`fit` keeps every component down to RANK_TRUNCATION_RATIO of the first
eigenvalue. `truncate` then keeps those above the noise floor, by the hard
threshold of Gavish and Donoho (2014, "The Optimal Hard Threshold for
Singular Values is 4/sqrt(3)", IEEE Trans. Inf. Theory 60(8)) for a
matrix of i.i.d. Gaussian noise of unknown level: a component stays when
its singular value s_j exceeds omega(beta) * median(s), with

    omega(beta) ~ 0.56 beta**3 - 0.95 beta**2 + 1.82 beta + 1.43,
    beta = min(n - 1, m) / max(n - 1, m),

over the min(n - 1, m) singular values of the centered data, those below
the rank cut counting as 0. Variance fractions divide by the model's
`total_variance`, the trace of the dt-scaled sample covariance (the sum
of every eigenvalue `fit` kept), so a truncated model's fractions are the
full fit's and sum to less than 1.

Sign convention: every eigenfunction is oriented so its quadrature inner
product with (first training signature - mean) is non-negative; ties
(|inner product| <= 1e-12) orient the earliest nonzero grid value positive.
"""

from dataclasses import asdict, dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .dataio import (FORMAT_VERSION, GRID, _in_file, read_json,
                     read_table_csv, write_json, write_table_csv)
from .errors import NumericalError
from .sim import Dataset, TimeGrid

RANK_TRUNCATION_RATIO = 1e-12
SIGN_TIE_TOL = 1e-12
SIGN_CONVENTION = "first-train-signature-nonnegative"
# the shape of `fpca.json`, as `load_model` reads it
_JSON_KINDS = {"grid": GRID, "eigenvalues": [0.0], "n_train": 0,
               "total_variance": 0.0, "threshold": 0.0}


@dataclass(frozen=True)
class FpcaModel:
    """Fitted decomposition. `eigenfunctions` holds one component per row;
    `total_variance` is the trace of the sample covariance, the sum of
    every eigenvalue of the fit the components were taken from, and
    `threshold` the singular value each kept component exceeds (0 for a
    model that `truncate` did not cut)."""

    grid: TimeGrid
    mean: np.ndarray
    eigenfunctions: np.ndarray
    eigenvalues: np.ndarray
    n_train: int
    total_variance: float
    threshold: float = 0.0

    def __post_init__(self):
        for name in ("mean", "eigenfunctions", "eigenvalues"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def n_components(self) -> int:
        return self.eigenvalues.size


def _as_values(data, grid: TimeGrid) -> np.ndarray:
    """The signature rows of `data`; a Dataset must be sampled on `grid`
    itself, bare rows must have its point count."""
    if isinstance(data, Dataset):
        if data.grid != grid:
            raise ValueError(f"signatures are sampled on {data.grid}, "
                             f"the model on {grid}")
        return data.values
    values = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if values.shape[1] != grid.count:
        raise ValueError(f"signatures have {values.shape[1]} points, "
                         f"model grid has {grid.count}")
    return values


def fit(train: Dataset) -> FpcaModel:
    """Estimate mean, eigenfunctions and eigenvalues from training signatures."""
    n, m = train.values.shape
    if n < 2:
        raise ValueError("fPCA needs at least 2 training signatures")
    mean = train.values.mean(axis=0)
    scaled = train.values - mean
    scaled *= np.sqrt(train.grid.dt)
    try:
        svals, vt = np.linalg.svd(scaled, full_matrices=False)[1:]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD failed on {n}x{m} centered data matrix: {exc}") from exc

    r = min(n - 1, m)
    svals = svals[:r]
    vt = vt[:r]
    eigenvalues = svals ** 2 / (n - 1)
    if eigenvalues[0] == 0.0:
        raise ValueError(f"the {n} training signatures do not vary: every "
                         f"eigenvalue is 0")
    keep = int(np.sum(eigenvalues >= RANK_TRUNCATION_RATIO * eigenvalues[0]))
    eigenvalues = eigenvalues[:keep]
    vt = vt[:keep]

    # orient: quadrature inner product of component j with the first
    # centered signature is scaled[0] @ V_j
    first_scores = scaled[0] @ vt.T
    del scaled
    for j in range(vt.shape[0]):
        if first_scores[j] < -SIGN_TIE_TOL:
            vt[j] = -vt[j]
        elif abs(first_scores[j]) <= SIGN_TIE_TOL:
            nonzero = np.flatnonzero(np.abs(vt[j]) > SIGN_TIE_TOL)
            if nonzero.size and vt[j, nonzero[0]] < 0.0:
                vt[j] = -vt[j]

    # a fresh array, not `vt` scaled in place: a view of a truncated `vt`
    # would keep all min(n, m) of the SVD's rows alive with the model
    eigenfunctions = vt / np.sqrt(train.grid.dt)
    return FpcaModel(train.grid, mean, np.ascontiguousarray(eigenfunctions),
                     eigenvalues.copy(), n, float(np.sum(eigenvalues)))


def aspect_ratio(model: FpcaModel) -> float:
    """beta = min(n - 1, m) / max(n - 1, m) of the centered training data
    of `model`."""
    dims = (model.n_train - 1, model.grid.count)
    return min(dims) / max(dims)


def omega(beta: float) -> float:
    """Gavish and Donoho's approximation of the optimal hard-threshold
    coefficient for an unknown noise level."""
    return 0.56 * beta ** 3 - 0.95 * beta ** 2 + 1.82 * beta + 1.43


def truncate(model: FpcaModel, min_components: int = 1) -> FpcaModel:
    """The leading components of a `fit` result whose singular value
    exceeds omega(beta) times the median singular value, but at least
    `min_components` of them (all of them if the fit has fewer)."""
    n1 = model.n_train - 1
    svals = np.zeros(min(n1, model.grid.count))
    svals[:model.n_components] = np.sqrt(model.eigenvalues * n1)
    threshold = omega(aspect_ratio(model)) * float(np.median(svals))
    k = max(int(np.sum(svals > threshold)),
            min(min_components, model.n_components))
    return FpcaModel(model.grid, model.mean, model.eigenfunctions[:k].copy(),
                     model.eigenvalues[:k].copy(), model.n_train,
                     model.total_variance, threshold)


def transform(model: FpcaModel, data) -> np.ndarray:
    """Project signatures to component scores (one row per signature)."""
    values = _as_values(data, model.grid)
    return (values - model.mean) @ model.eigenfunctions.T * model.grid.dt


def variance_explained(model: FpcaModel) -> tuple[np.ndarray, np.ndarray]:
    """Per-component fractions of the total variance and their cumulative
    sums."""
    if model.total_variance <= 0.0:
        raise ValueError("model has no positive eigenvalues")
    fractions = model.eigenvalues / model.total_variance
    return fractions, np.cumsum(fractions)


def save_model(model: FpcaModel, outdir: Path) -> None:
    """Persist as JSON manifest plus CSV matrices for mean and eigenfunctions."""
    outdir = Path(outdir)
    write_json(outdir / "fpca.json", {
        "format_version": FORMAT_VERSION,
        "grid": asdict(model.grid),
        "n_train": model.n_train,
        # never read back; kept for `perfbench/workloads.check_cli`
        "n_components": model.n_components,
        "eigenvalues": [float(v) for v in model.eigenvalues],
        "total_variance": model.total_variance,
        "threshold": model.threshold,
        "sign_convention": SIGN_CONVENTION,
    })
    t = model.grid.points
    write_table_csv(outdir / "mean.csv", ["t", "mean"],
                    np.column_stack([t, model.mean]))
    write_table_csv(outdir / "eigenfunctions.csv",
                    _eigenfunctions_header(model.n_components),
                    np.column_stack([t, model.eigenfunctions.T]))


def _eigenfunctions_header(n_components: int) -> list[str]:
    return ["t"] + [f"fpc_{j + 1}" for j in range(n_components)]


def _read_grid_table(path: Path, header: list[str],
                     grid: TimeGrid) -> np.ndarray:
    """A saved table with the given columns, t first, and one row per
    grid point."""
    got, tab = read_table_csv(path)
    if (got != header or tab.shape[0] != grid.count
            or not np.array_equal(tab[:, 0], grid.points)):
        pairs = enumerate(zip_longest(header, got))
        differ = next((f"; column {i + 1} is {have!r}, expected {want!r}"
                       for i, (want, have) in pairs if want != have), "")
        raise ValueError(f"{path}: expected {len(header)} columns and one "
                         f"row per point of the {grid.count}-point grid in "
                         f"fpca.json; got {len(got)} columns and "
                         f"{tab.shape[0]} rows{differ}")
    return tab


def load_model(outdir: Path) -> FpcaModel:
    """The saved model; its eigenvalues set the component count."""
    outdir = Path(outdir)
    path = outdir / "fpca.json"
    meta = read_json(path, _JSON_KINDS)
    with _in_file(path):
        grid = TimeGrid(**meta["grid"])
    eigenvalues = np.asarray(meta["eigenvalues"], dtype=np.float64)
    mean_tab = _read_grid_table(outdir / "mean.csv", ["t", "mean"], grid)
    eig_tab = _read_grid_table(outdir / "eigenfunctions.csv",
                               _eigenfunctions_header(eigenvalues.size), grid)
    eigenfunctions = np.ascontiguousarray(eig_tab[:, 1:].T)
    return FpcaModel(grid, mean_tab[:, 1].copy(), eigenfunctions, eigenvalues,
                     meta["n_train"], meta["total_variance"],
                     meta["threshold"])
