"""Shared construction helpers for the test suite."""

import math
import tracemalloc

import numpy as np
from hypothesis import strategies as st

from fdexplain import fpca
from fdexplain.sim import Dataset, LabelSet, TimeGrid

import oracles


def make_dataset(values, y1=None, y2=None, y3=None, start: float = -4.0,
                 stop: float = 0.0) -> Dataset:
    """Wrap a raw (n, m) value array in a Dataset on a uniform grid."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    n, m = values.shape
    grid = TimeGrid(m, start, stop)
    labels = LabelSet(
        y1=np.zeros(n, dtype=np.int64) if y1 is None else np.asarray(y1, dtype=np.int64),
        y2=np.zeros(n, dtype=np.int64) if y2 is None else np.asarray(y2, dtype=np.int64),
        y3=np.full(n, 0.5) if y3 is None else np.asarray(y3, dtype=np.float64),
    )
    return Dataset(grid, values, labels)


def grid_fields(max_count: int):
    """Strategy for the (count, start, stop) of a `TimeGrid`: finite
    start < stop, whose step neither overflows nor falls to the float
    spacing at the ends, and whose last point `start + (count - 1) * dt`
    does not overflow."""
    ends = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=2, unique=True).map(sorted)
    return st.tuples(st.integers(2, max_count), ends).map(
        lambda g: (g[0], *g[1])).filter(
        lambda g: math.ulp(max(abs(g[1]), abs(g[2])))
        < (d := (g[2] - g[1]) / (g[0] - 1)) < math.inf
        and math.isfinite(g[1] + (g[0] - 1) * d))


def traced_peak(fn) -> int:
    """Peak bytes allocated while `fn()` runs, above what was allocated
    before it (tracing starts with the call; numpy traces its array data)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def quadrature_norm(values: np.ndarray, dt: float) -> float:
    return float(np.sqrt(np.sum(np.asarray(values) ** 2) * dt))


def apply_sign_convention(eigenfunctions: np.ndarray, first_centered: np.ndarray,
                          dt: float, tol: float = 1e-12) -> np.ndarray:
    """Orient rows the same way fit does: quadrature inner product with the
    first centered training signature non-negative, ties toward a positive
    earliest nonzero value."""
    out = eigenfunctions.copy()
    for j in range(out.shape[0]):
        inner = float(np.sum(first_centered * out[j]) * dt)
        if inner < -tol:
            out[j] = -out[j]
        elif abs(inner) <= tol:
            nonzero = np.flatnonzero(np.abs(out[j]) > tol)
            if nonzero.size and out[j, nonzero[0]] < 0.0:
                out[j] = -out[j]
    return out


def check_fpca_instance(rng: np.random.Generator) -> None:
    """Fit one random small instance and compare against the oracles.

    Checks, with the tolerances fixed by the library contracts:
    eigenvalues vs the Jacobi eigensolver (1e-9 relative), eigenfunction
    match for well-separated eigenvalues, orthonormality (1e-8), the
    Parseval identity (1e-8 relative), and full-rank reconstruction of
    every training signature (1e-6 relative L2).
    """
    n = int(rng.integers(2, 13))
    m = int(rng.integers(2, 13))
    values = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.5, 3.0),
                        size=(n, m))
    ds = make_dataset(values)
    dt = ds.grid.dt
    model = fpca.fit(ds)
    r = model.n_components
    assert r <= min(n - 1, m)

    # oracle eigenproblem: dt-weighted sample covariance, Jacobi rotations
    centered = values - values.mean(axis=0)
    cov = centered.T @ centered * dt / (n - 1)
    oracle_vals, oracle_vecs = oracles.jacobi_eigh(cov)
    scale = max(oracle_vals[0], 1e-30)
    assert np.all(np.abs(model.eigenvalues - oracle_vals[:r]) <= 1e-9 * scale)

    # eigenfunctions, only where the eigenvalue is well separated
    oracle_funcs = apply_sign_convention(
        np.ascontiguousarray(oracle_vecs.T[:r]) / np.sqrt(dt), centered[0], dt)
    padded = np.concatenate([[np.inf], oracle_vals[:r], [-np.inf]])
    for j in range(r):
        gap = min(padded[j] - padded[j + 1], padded[j + 1] - padded[j + 2])
        if gap >= 0.05 * scale:
            diff = quadrature_norm(model.eigenfunctions[j] - oracle_funcs[j], dt)
            flipped = quadrature_norm(model.eigenfunctions[j] + oracle_funcs[j], dt)
            assert min(diff, flipped) <= 1e-8
            inner = float(np.sum(centered[0] * model.eigenfunctions[j]) * dt)
            if abs(inner) >= 1e-8:
                assert diff <= 1e-8  # same orientation, not just same span

    # orthonormality under the quadrature inner product
    gram = model.eigenfunctions @ model.eigenfunctions.T * dt
    assert np.max(np.abs(gram - np.eye(r))) <= 1e-8

    # Parseval: total eigenvalue mass = quadrature-weighted sample variance
    total_var = float(np.sum(values.var(axis=0, ddof=1)) * dt)
    assert abs(float(np.sum(model.eigenvalues)) - total_var) <= 1e-8 * max(total_var, 1e-30)

    # full-rank reconstruction of the training signatures
    recon = oracles.inverse_transform(model, fpca.transform(model, ds))
    for i in range(n):
        err = quadrature_norm(recon[i] - values[i], dt)
        assert err <= 1e-6 * max(quadrature_norm(values[i], dt), 1e-30)
