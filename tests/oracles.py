"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity along a different route from the
library code: eigenpairs by cyclic Jacobi rotations instead of SVD,
permutation importance by exhaustive enumeration instead of Monte
Carlo sampling, peak counts by direct finite differencing of the
emitted curve, and signature-curve batches by an explicit loop nest
instead of broadcasting. None of them share code with the package.
"""

import itertools
import math

import numpy as np


def jacobi_eigh(matrix: np.ndarray, sweeps: int = 100,
                tol: float = 1e-14) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues descending, eigenvectors as matching columns).
    Deliberately brute force: full-matrix rotations, fine for n <= 12.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n) or not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("jacobi_eigh needs a symmetric square matrix")
    v = np.eye(n)
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(sweeps):
        off = math.sqrt(float(np.sum(np.triu(a, 1) ** 2)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= tol * scale * 1e-3:
                    continue
                # rotation angle that zeroes a[p, q], stable root
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(-np.diag(a), kind="stable")
    return np.diag(a)[order].copy(), v[:, order].copy()


def exhaustive_importance(predict, X: np.ndarray, y: np.ndarray, loss_fn,
                          feature: int) -> float:
    """Exact expected permutation importance of one feature column.

    Averages the mean loss over all n! permutations of the column and
    subtracts the unpermuted baseline. Only usable for tiny n.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    baseline = float(np.mean(loss_fn(predict(X), y)))
    total = 0.0
    count = 0
    for perm in itertools.permutations(range(n)):
        work = X.copy()
        work[:, feature] = X[list(perm), feature]
        total += float(np.mean(loss_fn(predict(work), y)))
        count += 1
    return total / count - baseline


def local_maxima_indices(values: np.ndarray) -> np.ndarray:
    """Strict interior local maxima found by finite differences."""
    v = np.asarray(values, dtype=np.float64)
    return np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1


def count_local_maxima(values: np.ndarray) -> int:
    return int(local_maxima_indices(values).size)


def local_maxima_positions(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Grid locations of the strict interior local maxima."""
    return np.asarray(t, dtype=np.float64)[local_maxima_indices(values)]


def curve_batch_loops(t, centers, widths, amps, n_peaks, gain, boost,
                      boost_rate, base_amp, base_rate, t_start):
    """Signature-curve batch, one grid point and one peak at a time; same
    arguments and result as `fdexplain.kernels.curve_batch`."""
    n = centers.shape[0]
    m = t.shape[0]
    out = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            u = t[j] - t_start
            v = base_amp * np.exp(-base_rate * u) + boost[i] * np.exp(-boost_rate * u)
            for k in range(n_peaks[i]):
                d = t[j] - centers[i, k]
                v += amps[i, k] * np.exp(-d * d / (2.0 * widths[i, k] * widths[i, k]))
            out[i, j] = gain[i] * v
    return out
