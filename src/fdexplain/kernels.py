"""Hot numeric kernels in plain numpy.

Two kinds of kernel live here:

* the signature-curve batch generator, which broadcasts over the grid
  and loops only over peak slots, and
* the network kernels (forward pass, loss gradient, one optimizer epoch)
  on a flat parameter vector.

Everything here is pure: no RNG, no I/O, no global state. Random draws
(jitters, noise, batch orders) happen in the calling modules.
"""

import numpy as np

# the numerics implementation recorded in every run manifest and report
BACKEND = "numpy"

TASK_REGRESSION = 0
TASK_CLASSIFICATION = 1


# ---------------------------------------------------------------------------
# signature curve batch
# ---------------------------------------------------------------------------

def curve_batch(t, centers, widths, amps, n_peaks, gain, boost,
                boost_rate, base_amp, base_rate, t_start):
    u = t - t_start
    out = np.tile(base_amp * np.exp(-base_rate * u), (centers.shape[0], 1))
    out += boost[:, None] * np.exp(-boost_rate * u)[None, :]
    k_max = centers.shape[1]
    active = np.arange(k_max)[None, :] < n_peaks[:, None]
    for k in range(k_max):
        d = t[None, :] - centers[:, k, None]
        peak = amps[:, k, None] * np.exp(-d * d / (2.0 * widths[:, k, None] ** 2))
        out += np.where(active[:, k, None], peak, 0.0)
    return gain[:, None] * out


# ---------------------------------------------------------------------------
# feed-forward network on a flat parameter vector
# ---------------------------------------------------------------------------
# Parameters are packed layer by layer: weights (fan_in*fan_out, row-major)
# then biases. `sizes` chains input width through hidden layers to 1 output.

def mlp_forward(params, sizes, X):
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


def mlp_loss_grad(params, sizes, X, y, task, grad):
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


def adam_epoch(params, m1, m2, step0, sizes, X, y, order, batch_size,
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
        loss = mlp_loss_grad(params, sizes, Xb, yb, task, grad)
        total += loss * (hi - lo)
        step += 1
        m1[:] = beta1 * m1 + (1.0 - beta1) * grad
        m2[:] = beta2 * m2 + (1.0 - beta2) * grad * grad
        m1_hat = m1 / (1.0 - beta1 ** step)
        m2_hat = m2 / (1.0 - beta2 ** step)
        params -= lr * m1_hat / (np.sqrt(m2_hat) + eps)
    return total / n, step


__all__ = [
    "BACKEND",
    "TASK_REGRESSION",
    "TASK_CLASSIFICATION",
    "curve_batch",
    "mlp_forward",
    "mlp_loss_grad",
    "adam_epoch",
]
