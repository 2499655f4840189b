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
versions, and `init_params_ref` is the offset-arithmetic initializer
that `fdexplain.mlp.init_params` replaced. They deliberately share the
route, the same floating-point operations in the same order, so the
library code must reproduce them bit for bit; the maths itself is
checked by the gradient checks and closed forms in test_mlp.py and the
acceptance gate. `generate_signature_ref` is the one-signature-at-a-time
generator that `fdexplain.sim.generate_dataset` batches; row i of a
dataset must equal it bit for bit. `train_ref` is the training loop that
stopped on any lack of a new lowest validation loss; `fdexplain.mlp.train`
with `MIN_DELTA` 0 must reproduce its weights and log bit for bit.
`ranking_checks_ref` is the report's ranking checks with each component
role written out by hand, as they were before
`fdexplain.pipeline.ROLE_CHECKS` tabulated them. `mean_loss_ref` is the
one-replication mean loss that `fdexplain.explain` replaced with a
reduction over a block of replications, and `polyline_ref` the
point-by-point SVG polyline that `fdexplain.viz._Frame.polyline`
replaced with array arithmetic: it maps each point by the scalar
`sx`/`sy` and prints it with `format(v, ".2f")`, and it is the
reference for the bulk printer `fdexplain.viz._points`, which rounds
the cents of all values at once and leaves nan, inf, magnitudes of 1e6
or more and values whose cents |v|*100 lie within 1e-6 of a half to
`format`. Both must be matched bit for bit (byte for byte for the
polyline). `format_row_ref` is the one-value-at-a-time `repr` row
formatter that `fdexplain.dataio._format_rows` replaced with
block-wise orjson printing; every CSV line must match it byte for byte.
`read_table_csv_ref` is the `np.loadtxt` table reader that
`fdexplain.dataio.read_table_csv` replaced with block-wise orjson
parsing; every table the writer prints must read back to its bits.
`substream_ref` is the one-key stream that numpy defines,
`SeedSequence((seed, *key))` -> `PCG64`, which
`fdexplain.seeding.substreams` reproduces for many keys at once by
hashing them with array operations; every stream must match it bit for
bit.

Two checks only the tests call live here too, with the behaviour they
had in the package: `gradient_check` compares the loss kernel's analytic
gradient with central differences at a network's seeded initialization
(criterion 4 and test_mlp.py), and `inverse_transform` rebuilds
signatures from their first k component scores (criterion 2's
reconstruction and test_fpca.py).
"""

import itertools
import math
import warnings

import numpy as np

from fdexplain import explain, kernels, mlp, sim
from fdexplain.errors import NumericalError
from fdexplain.kernels import TASK_CLASSIFICATION
from fdexplain.pipeline import NEGLIGIBLE_FRACTION, NEGLIGIBLE_INDEX


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


def inverse_transform(model, scores: np.ndarray,
                      k: int | None = None) -> np.ndarray:
    """Reconstruct signatures from the first k component scores."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    if k is None:
        k = model.n_components
    if k > model.n_components:
        raise ValueError(f"k={k} exceeds {model.n_components} components")
    return model.mean + scores[:, :k] @ model.eigenfunctions[:k]


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


def init_params_ref(sizes, rng):
    """He-style initialization: weights ~ N(0, 2/fan_in), biases zero."""
    params = np.empty(int(np.sum(sizes[:-1] * sizes[1:] + sizes[1:])))
    off = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = rng.standard_normal((int(fan_in), int(fan_out))) * np.sqrt(2.0 / fan_in)
        params[off:off + fan_in * fan_out] = w.ravel()
        off += int(fan_in * fan_out)
        params[off:off + fan_out] = 0.0
        off += int(fan_out)
    return params


def train_ref(scores, targets, config):
    """`mlp.train` under the plain patience rule: `patience` epochs in a
    row without a new lowest validation loss end training."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    targets = mlp._validate_targets(targets, config.task)
    n, n_feat = scores.shape
    if targets.size != n:
        raise ValueError(f"{n} score rows but {targets.size} targets")

    mean, scale, passthrough = mlp._standardization(scores, config.standardize)
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

    sizes = mlp.layer_sizes(n_feat, config)
    params = mlp.init_params(sizes, rng)
    m1 = np.zeros_like(params)
    m2 = np.zeros_like(params)
    step = 0
    task = config.task

    log = mlp.TrainingLog()
    best_val = np.inf
    best_params = params.copy()
    since_best = 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(X_fit.shape[0])
        train_loss, step = kernels.adam_epoch(
            params, m1, m2, step, sizes, X_fit, y_fit, order,
            config.batch_size, config.learning_rate, mlp.ADAM_BETA1,
            mlp.ADAM_BETA2, mlp.ADAM_EPS, task)
        if not np.isfinite(train_loss):
            raise NumericalError(
                f"non-finite training loss {train_loss} at epoch {epoch}")
        log.train_loss.append(float(train_loss))
        log.epochs_run = epoch + 1
        if n_val > 0:
            val_loss = float(kernels._mean_loss(
                kernels.mlp_forward(params, sizes, X_val), y_val, task))
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
    return mlp.Mlp(config, sizes, params, mean, scale, passthrough, log)


# gradients by central differences, on instances small enough to perturb
# every parameter

CHECK_MAX_SAMPLES = 20
CHECK_MAX_FEATURES = 5


def gradient_check(config, scores: np.ndarray, targets: np.ndarray,
                   perturbation: float = 1e-5) -> float:
    """Max symmetric relative error between analytic and central-difference
    gradients at the seeded initialization, over every parameter."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    targets = mlp._validate_targets(targets, config.task)
    n, n_feat = scores.shape
    if n > CHECK_MAX_SAMPLES or n_feat > CHECK_MAX_FEATURES:
        raise ValueError(f"gradient_check is for instances up to "
                         f"{CHECK_MAX_SAMPLES}x{CHECK_MAX_FEATURES}, "
                         f"got {n}x{n_feat}")
    mean, scale, _ = mlp._standardization(scores, config.standardize)
    X = mlp._scaled(scores, mean, scale)

    sizes = mlp.layer_sizes(n_feat, config)
    rng = np.random.default_rng(config.seed)
    params = mlp.init_params(sizes, rng)
    task = config.task

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


# signature generation, one signature per call

def generate_signature_ref(y1, y2, y3, params, grid, rng):
    """Values of the signature with labels `y1, y2, y3`: 4 amp, 4 center
    and 4 width jitter normals, then `grid.count` noise normals, all drawn
    from `rng` in that order."""
    z = rng.standard_normal(3 * sim.N_BASE_PEAKS)
    amps = np.asarray(params.peak_amplitudes) * np.exp(params.amp_jitter_sd * z[0:4])
    centers = (np.asarray(params.peak_centers) + params.center_jitter_sd * z[4:8]
               + params.y3_timing_span * (y3 - 0.5))
    if y1 == 1:
        centers[0] += params.y1_first_peak_shift
    widths = np.asarray(params.peak_widths) * np.exp(params.width_jitter_sd * z[8:12])
    n_peaks = sim.N_BASE_PEAKS if y1 == 1 else sim.N_BASE_PEAKS - 1
    gain = (1.0 + params.y2_gain * y2) * (1.0 + params.y3_gain * y3)
    boost = params.y1_boost_gain if y1 == 1 else 0.0
    raw = kernels.curve_batch(
        grid.points, centers[None, :], widths[None, :], amps[None, :],
        np.array([n_peaks], dtype=np.int64), np.array([gain]), np.array([boost]),
        sim.BOOST_DECAY_RATE, params.baseline_intensity, params.baseline_decay,
        grid.start)
    noise = rng.standard_normal(grid.count)
    return np.maximum(raw[0] + params.noise_sd * noise, sim.INTENSITY_FLOOR)


# ranking checks, one hand-written expression per component role

def ranking_checks_ref(pfi_reports: dict) -> dict:
    """Qualitative expectations on the importance rankings.

    The binary-intensity target should be led by components 1 and 2; the
    gain target should keep component 1 in its top two and component 3 in
    its top three; the continuous timing target should be led by
    component 2; and every component beyond index 10 should be negligible
    (mean importance magnitude under 5% of that target's maximum).
    """
    ranks = {t: explain.rank_features(r) for t, r in pfi_reports.items()}
    checks = {}
    r1, r2_, r3 = ranks["y1"], ranks["y2"], ranks["y3"]
    checks["y1_top2_is_fpc_1_2"] = bool(len(r1) >= 2
                                        and set(r1[:2].tolist()) == {1, 2})
    checks["y2_top2_contains_fpc_1"] = bool(len(r2_) >= 2 and 1 in r2_[:2])
    checks["y2_top3_contains_fpc_3"] = bool(len(r2_) >= 3 and 3 in r2_[:3])
    checks["y3_top1_is_fpc_2"] = bool(len(r3) >= 1 and r3[0] == 2)
    tail_ok = True
    for report in pfi_reports.values():
        means = report.mean_importance
        peak = float(means.max())
        if peak <= 0:
            tail_ok = False
            break
        tail = np.abs(means[NEGLIGIBLE_INDEX:])
        if tail.size and float(tail.max()) >= NEGLIGIBLE_FRACTION * peak:
            tail_ok = False
            break
    checks["tail_importance_negligible"] = tail_ok
    return checks


# one-replication mean loss and point-by-point polyline

def mean_loss_ref(loss_fn, predicted, actual) -> float:
    """np.mean of the per-observation losses of one prediction vector."""
    losses = loss_fn(np.asarray(predicted, dtype=np.float64), actual)
    return float(np.add.reduce(losses, axis=None) / losses.size)


def polyline_ref(frame, xs, ys) -> str:
    """SVG `points` of the (x, y) pairs mapped one at a time by the
    frame's scalar `sx` and `sy`."""
    return " ".join(f"{frame.sx(float(x)):.2f},{frame.sy(float(y)):.2f}"
                    for x, y in zip(xs, ys))


# one CSV line body, value by value

def format_row_ref(row) -> str:
    """One CSV line body: each value as a float64 in shortest round-trip
    form (Python repr), so nan, inf and -0.0 survive too."""
    return ",".join(map(repr, np.asarray(row, dtype=np.float64).tolist()))


# a CSV table, read by np.loadtxt

def read_table_csv_ref(path, skiprows: int = 0):
    """Header and float rows of a CSV table below `skiprows` leading
    lines, read by `np.loadtxt`; a ValueError (numpy's own for a cell it
    cannot read) unless the rows are finite numbers as wide as the
    header."""
    with open(path, encoding="utf-8") as fh:
        for _ in range(skiprows):
            fh.readline()
        header = fh.readline().strip().split(",")
        with warnings.catch_warnings():  # the error below replaces it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                              dtype=np.float64)
    if data.size == 0:
        raise ValueError("no data rows below the header")
    if data.shape[1] != len(header):
        raise ValueError(f"header has {len(header)} columns, rows have "
                         f"{data.shape[1]}")
    if not np.isfinite(data).all():
        raise ValueError("non-finite value")
    return header, data


# one item's random stream, as numpy defines it

def substream_ref(seed: int, *key: int) -> np.random.Generator:
    """The generator of `SeedSequence((seed, *key))`."""
    return np.random.default_rng(np.random.SeedSequence((seed,) + key))
