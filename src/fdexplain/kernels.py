"""Hot numeric kernels in plain numpy: the package's one numerics path.

Two kinds of kernel live here:

* the signature-curve batch generator, which fills its output a block
  of rows at a time, in place, and within a block broadcasts over the
  grid and loops only over peak slots, and
* the network kernels (forward pass, loss gradient, one optimizer epoch)
  on a flat parameter vector.

Everything here is pure: no RNG, no I/O, no global state. Random draws
(jitters, noise, batch orders) happen in the calling modules.

`_layer_views` is the one owner of the parameter packing: every module
that reads, writes or initializes a flat parameter vector goes through
its (W, b) views, or through `_split_first`, which splits a network
into its first layer and the network above it. `_mean_loss` is the one
definition of the training loss, shared by the gradient kernel and the
per-epoch validation loss.

The kernels work in place on views of their outputs (the curve batch,
the flat vectors) and on a few scratch arrays, but run the same
floating-point operations in the same order as the
one-array-per-operation reference kernels in tests/oracles.py, so their
results match those bit for bit (checked in tests/test_kernels.py). Keep
it that way: signatures, trained weights, and with them every artifact
of a run, depend on the last bit.
"""

import numpy as np

# the `task` argument of the network kernels: an MlpConfig.task value
TASK_REGRESSION = "regression"
TASK_CLASSIFICATION = "classification"


# ---------------------------------------------------------------------------
# signature curve batch
# ---------------------------------------------------------------------------

# values per scratch array of the curve kernel (256 KB): a block of rows
# stays in cache, and the batch is the only full-size array
_BLOCK_VALUES = 32768


def curve_batch(t, centers, widths, amps, n_peaks, gain, boost,
                boost_rate, base_amp, base_rate, t_start):
    """Curves ``gain * (base + boost term + active peaks)``, one row per
    signature, filled a block of about `_BLOCK_VALUES` values at a time."""
    n, k_max = centers.shape
    m = t.shape[0]
    u = t - t_start
    base = base_amp * np.exp(-base_rate * u)
    decay = np.exp(-boost_rate * u)
    out = np.empty((n, m))
    step = max(1, _BLOCK_VALUES // max(m, 1))
    d_buf = np.empty((min(step, n), m))
    peak_buf = np.empty_like(d_buf)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        block = out[rows]
        d, peak = d_buf[:len(block)], peak_buf[:len(block)]
        block[...] = base
        np.multiply(boost[rows, None], decay, out=peak)
        block += peak
        for k in range(k_max):
            np.subtract(t, centers[rows, k, None], out=d)
            np.negative(d, out=peak)
            peak *= d
            peak /= 2.0 * widths[rows, k, None] ** 2
            np.exp(peak, out=peak)
            np.multiply(amps[rows, k, None], peak, out=peak)
            peak[n_peaks[rows] <= k] = 0.0
            block += peak
        np.multiply(gain[rows, None], block, out=block)
    return out


# ---------------------------------------------------------------------------
# feed-forward network on a flat parameter vector
# ---------------------------------------------------------------------------
# Parameters are packed layer by layer: weights (fan_in*fan_out, row-major)
# then biases. `sizes` chains input width through hidden layers to 1 output.

def _layer_views(flat, sizes):
    """(W, b) views into a flat parameter (or gradient) vector, per layer."""
    views = []
    off = 0
    dims = sizes.tolist()
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        end = off + fan_in * fan_out
        views.append((flat[off:end].reshape(fan_in, fan_out),
                      flat[end:end + fan_out]))
        off = end + fan_out
    return views


def _split_first(params, sizes):
    """(W1, b1) views of the first layer, and the (params, sizes) of the
    network above it: its hidden layers onward, packed as a network of
    their own, as a view of `params`."""
    W, b = _layer_views(params, sizes)[0]
    return W, b, params[W.size + b.size:], sizes[1:]


def _forward(layers, X):
    """Activations of every layer, X first; the last is the (n, 1) output.
    Hidden activations are ReLU'd in place, so `a > 0` is also the mask of
    positive pre-activations (a NaN pre-activation stays NaN and fails
    `> 0` either way)."""
    acts = [X]
    a = X
    last = len(layers) - 1
    for layer, (W, b) in enumerate(layers):
        a = np.dot(a, W)
        a += b
        if layer < last:
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    return acts


def mlp_forward(params, sizes, X):
    return _forward(_layer_views(params, sizes), X)[-1][:, 0]


def _mean_loss(z, y, task):
    """Mean loss of raw network outputs `z` against targets `y`."""
    # np.add.reduce(x) / n is np.mean(x), bit for bit, minus its wrapper
    if task == TASK_CLASSIFICATION:
        # logit formulation of binary cross-entropy, stable for large |z|
        return np.add.reduce(np.maximum(z, 0.0) - y * z
                             + np.log1p(np.exp(-np.abs(z)))) / z.size
    r = z - y
    return np.add.reduce(r * r) / z.size


def _loss_grad(layers, grad_layers, X, y, task):
    n = X.shape[0]
    acts = _forward(layers, X)
    z_out = acts[-1][:, 0]
    loss = _mean_loss(z_out, y, task)
    if task == TASK_CLASSIFICATION:
        dz = (1.0 / (1.0 + np.exp(-z_out)) - y) / n
    else:
        dz = 2.0 * (z_out - y) / n

    delta = dz.reshape(n, 1)
    for layer in range(len(layers) - 1, -1, -1):
        gW, gb = grad_layers[layer]
        # contiguous copies of the transposed operands: handing np.dot the
        # .T views instead changes the BLAS route and the low-order bits
        np.dot(np.ascontiguousarray(acts[layer].T), delta, out=gW)
        np.add.reduce(delta, axis=0, out=gb)
        if layer > 0:
            back = np.dot(delta, np.ascontiguousarray(layers[layer][0].T))
            delta = np.where(acts[layer] > 0.0, back, 0.0)
    return loss


def mlp_loss_grad(params, sizes, X, y, task, grad):
    """Mean loss over the batch and its gradient, written into `grad`."""
    return _loss_grad(_layer_views(params, sizes), _layer_views(grad, sizes),
                      X, y, task)


def adam_epoch(params, m1, m2, step0, sizes, X, y, order, batch_size,
               lr, beta1, beta2, eps, task):
    """One epoch of mini-batch adaptive-moment updates, in place.

    Returns (mean training loss over the epoch, updated step count).
    """
    n = order.shape[0]
    grad = np.empty_like(params)
    layers = _layer_views(params, sizes)
    grad_layers = _layer_views(grad, sizes)
    s1 = np.empty_like(params)
    s2 = np.empty_like(params)
    X_ord = X[order]
    y_ord = y[order]
    total = 0.0
    step = step0
    n_batches = (n + batch_size - 1) // batch_size
    for ib in range(n_batches):
        lo = ib * batch_size
        hi = min(lo + batch_size, n)
        loss = _loss_grad(layers, grad_layers, X_ord[lo:hi], y_ord[lo:hi],
                          task)
        total += loss * (hi - lo)
        step += 1
        # m1 = beta1*m1 + (1-beta1)*g;  m2 = beta2*m2 + ((1-beta2)*g)*g
        m1 *= beta1
        np.multiply(grad, 1.0 - beta1, out=s1)
        m1 += s1
        m2 *= beta2
        np.multiply(grad, 1.0 - beta2, out=s1)
        s1 *= grad
        m2 += s1
        # params -= (lr * (m1/(1-beta1^t))) / (sqrt(m2/(1-beta2^t)) + eps)
        np.divide(m2, 1.0 - beta2 ** step, out=s2)
        np.sqrt(s2, out=s2)
        s2 += eps
        np.divide(m1, 1.0 - beta1 ** step, out=s1)
        s1 *= lr
        s1 /= s2
        params -= s1
    return total / n, step
