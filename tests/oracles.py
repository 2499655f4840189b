"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity along a different route from the
library code: eigenpairs by cyclic Jacobi rotations instead of SVD,
permutation importance by exhaustive enumeration instead of Monte
Carlo sampling, peak counts by direct finite differencing of the
emitted curve, and signature-curve batches by an explicit loop nest
instead of broadcasting. None of them share code with the package.

The network kernels are the exception: `mlp_forward_ref`,
`mlp_loss_grad_ref` and `adam_epoch_ref` are the straightforward numpy
kernels that `fdexplain.kernels` replaced with in-place, view-based
versions. They deliberately share the route, the same floating-point
operations in the same order, so the library kernels must reproduce
them bit for bit; the maths itself is checked by the gradient checks
and closed forms in test_mlp.py and the acceptance gate.
"""

import itertools
import math

import numpy as np

from fdexplain.kernels import TASK_CLASSIFICATION


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


# network kernels: one fresh array per operation, the route that
# fdexplain.kernels must match bit for bit

def mlp_forward_ref(params, sizes, X):
    a = X
    off = 0
    n_layers = sizes.shape[0] - 1
    for layer in range(n_layers):
        fan_in = sizes[layer]
        fan_out = sizes[layer + 1]
        W = params[off:off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = params[off:off + fan_out]
        off += fan_out
        z = np.dot(a, W) + b
        if layer < n_layers - 1:
            a = np.maximum(z, 0.0)
        else:
            a = z
    return a[:, 0]


def mlp_loss_grad_ref(params, sizes, X, y, task, grad):
    """Mean loss over the batch and its gradient, written into `grad`."""
    n_layers = sizes.shape[0] - 1
    n = X.shape[0]
    acts = [X]
    zs = []
    a = X
    off = 0
    for layer in range(n_layers):
        fan_in = sizes[layer]
        fan_out = sizes[layer + 1]
        W = params[off:off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = params[off:off + fan_out]
        off += fan_out
        z = np.dot(a, W) + b
        zs.append(z)
        if layer < n_layers - 1:
            a = np.maximum(z, 0.0)
        else:
            a = z
        acts.append(a)

    z_out = zs[n_layers - 1][:, 0]
    if task == TASK_CLASSIFICATION:
        # logit formulation of binary cross-entropy, stable for large |z|
        loss = np.mean(np.maximum(z_out, 0.0) - y * z_out
                       + np.log1p(np.exp(-np.abs(z_out))))
        dz = (1.0 / (1.0 + np.exp(-z_out)) - y) / n
    else:
        r = z_out - y
        loss = np.mean(r * r)
        dz = 2.0 * r / n

    delta = dz.reshape(n, 1)
    off_end = params.shape[0]
    for layer in range(n_layers - 1, -1, -1):
        fan_in = sizes[layer]
        fan_out = sizes[layer + 1]
        off_b = off_end - fan_out
        off_w = off_b - fan_in * fan_out
        a_prev_t = np.ascontiguousarray(acts[layer].T)
        grad[off_w:off_b] = np.dot(a_prev_t, delta).reshape(fan_in * fan_out)
        grad[off_b:off_end] = np.sum(delta, axis=0)
        if layer > 0:
            W_t = np.ascontiguousarray(
                params[off_w:off_w + fan_in * fan_out].reshape(fan_in, fan_out).T)
            back = np.dot(delta, W_t)
            delta = np.where(zs[layer - 1] > 0.0, back, 0.0)
        off_end = off_w
    return loss


def adam_epoch_ref(params, m1, m2, step0, sizes, X, y, order, batch_size,
               lr, beta1, beta2, eps, task):
    """One epoch of mini-batch adaptive-moment updates, in place.

    Returns (mean training loss over the epoch, updated step count).
    """
    n = order.shape[0]
    grad = np.empty_like(params)
    total = 0.0
    step = step0
    n_batches = (n + batch_size - 1) // batch_size
    for ib in range(n_batches):
        lo = ib * batch_size
        hi = min(lo + batch_size, n)
        idx = order[lo:hi]
        Xb = X[idx]
        yb = y[idx]
        loss = mlp_loss_grad_ref(params, sizes, Xb, yb, task, grad)
        total += loss * (hi - lo)
        step += 1
        m1[:] = beta1 * m1 + (1.0 - beta1) * grad
        m2[:] = beta2 * m2 + (1.0 - beta2) * grad * grad
        m1_hat = m1 / (1.0 - beta1 ** step)
        m2_hat = m2 / (1.0 - beta2 ** step)
        params -= lr * m1_hat / (np.sqrt(m2_hat) + eps)
    return total / n, step
