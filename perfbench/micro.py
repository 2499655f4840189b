"""Kernel microbenchmarks at the full default run's sizes.

Sizes: curve synthesis for n=2000 signatures on a 1000-point grid with 4
peaks; networks of the default shape (1000 score inputs, hidden 50/40/30)
evaluated on the 300-row test split, as in one permutation-importance
evaluation, and trained on 64-row batches over the ~1300 fitting rows of
the training split; a CSV round trip of a 2000x1000 table.

Each kernel time is the median per call over repeated calls after a
warm-up; the CSV write and read are timed once each.
FLOP and byte counts are computed from the array shapes (``*_computed``),
not measured: FLOPs count each elementwise operation and each exp as one,
and bytes count only compulsory traffic (inputs read once, outputs
written once), ignoring temporaries and cache misses.
"""

import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
from fdexplain import dataio, kernels
from fdexplain.mlp import Mlp, MlpConfig, TrainingLog

N_CURVES, GRID, PEAKS = 2000, 1000, 4
SIZES = (1000, 50, 40, 30, 1)
EVAL_ROWS, BATCH, FIT_ROWS = 300, 64, 1301
CSV_SHAPE = (2000, 1000)
MIN_SECONDS = 0.3


def _median_time(fn, min_calls: int = 5) -> float:
    fn()
    times = []
    deadline = time.perf_counter() + MIN_SECONDS
    while len(times) < min_calls or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    out = {}

    n, m, k = N_CURVES, GRID, PEAKS
    t = np.linspace(-4.0, 0.0, m)
    curve_args = (t, rng.uniform(-3.8, -0.2, (n, k)), rng.uniform(0.1, 0.4, (n, k)),
                  rng.uniform(0.5, 3.0, (n, k)),
                  rng.integers(0, k + 1, n).astype(np.int64),
                  rng.uniform(0.8, 1.5, n), rng.uniform(0.0, 2.0, n),
                  3.0, 3.0, 1.1, -4.0)
    out["micro.curve_batch_s"] = _median_time(
        lambda: kernels.curve_batch(*curve_args))
    # two decays, boost scale-add, gain: 5; per peak: sub, square, scale,
    # exp, amplitude, mask-add: 6
    out["micro.curve_batch_flop_computed"] = n * m * (5 + 6 * k)
    out["micro.curve_batch_bytes_computed"] = 8 * (m + n * (3 * k + 3) + n * m)

    sizes = np.array(SIZES, dtype=np.int64)
    fans = list(zip(SIZES[:-1], SIZES[1:]))
    n_params = sum(fi * fo + fo for fi, fo in fans)
    matmul = sum(fi * fo for fi, fo in fans)
    bias_act = sum(fo for _, fo in fans)
    params = rng.normal(scale=0.05, size=n_params)

    X_eval = rng.normal(size=(EVAL_ROWS, SIZES[0]))
    out["micro.mlp_forward_s"] = _median_time(
        lambda: kernels.mlp_forward(params, sizes, X_eval))
    out["micro.mlp_forward_flop_computed"] = EVAL_ROWS * (2 * matmul + 2 * bias_act)
    out["micro.mlp_forward_bytes_computed"] = 8 * (
        EVAL_ROWS * SIZES[0] + n_params + EVAL_ROWS)

    net = Mlp(MlpConfig(standardize=False), sizes, params,
              np.zeros(SIZES[0]), np.ones(SIZES[0]),
              np.zeros(SIZES[0], dtype=bool), TrainingLog())
    out["micro.pfi_predict_s"] = _median_time(lambda: net.predict(X_eval))

    X_batch = rng.normal(size=(BATCH, SIZES[0]))
    y_batch = (rng.random(BATCH) < 0.5).astype(np.float64)
    grad = np.empty_like(params)
    out["micro.mlp_loss_grad_s"] = _median_time(
        lambda: kernels.mlp_loss_grad(params, sizes, X_batch, y_batch,
                                      kernels.TASK_CLASSIFICATION, grad))
    # forward, weight gradients, and deltas pushed back below the top layer
    grad_flop = 2 * matmul + 2 * sum(fi * fo for fi, fo in fans[1:])
    out["micro.mlp_loss_grad_flop_computed"] = BATCH * (2 * matmul + 2 * bias_act) \
        + BATCH * grad_flop
    out["micro.mlp_loss_grad_bytes_computed"] = 8 * (
        BATCH * SIZES[0] + BATCH + 2 * n_params)

    X_fit = rng.normal(size=(FIT_ROWS, SIZES[0]))
    y_fit = (rng.random(FIT_ROWS) < 0.5).astype(np.float64)
    order = rng.permutation(FIT_ROWS)
    zeros = np.zeros_like(params)
    out["micro.adam_epoch_s"] = _median_time(
        lambda: kernels.adam_epoch(params.copy(), zeros.copy(), zeros.copy(), 0,
                                   sizes, X_fit, y_fit, order, BATCH, 1e-3,
                                   0.9, 0.999, 1e-8,
                                   kernels.TASK_CLASSIFICATION), min_calls=3)
    batches = -(-FIT_ROWS // BATCH)
    # per step: loss-gradient over the batch plus ~12 flops per parameter
    # for the two moment updates, bias corrections and the step
    out["micro.adam_epoch_flop_computed"] = (
        FIT_ROWS * (2 * matmul + 2 * bias_act + grad_flop)
        + batches * 12 * n_params)
    # the epoch's rows once, plus params, gradient and both moments read
    # and written each step
    out["micro.adam_epoch_bytes_computed"] = 8 * (
        FIT_ROWS * (SIZES[0] + 1) + batches * 8 * n_params)

    table = rng.normal(size=CSV_SHAPE)
    header = [f"c{j}" for j in range(CSV_SHAPE[1])]
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        path = Path(tmp) / "table.csv"
        out["micro.csv_write_s"] = _once(
            lambda: dataio.write_table_csv(path, header, table))
        out["micro.csv_bytes"] = path.stat().st_size
        out["micro.csv_read_s"] = _once(lambda: dataio.read_table_csv(path))
    return out
