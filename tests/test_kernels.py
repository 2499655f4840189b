"""Kernel correctness and determinism.

The blocked curve kernel must agree to roundoff with the loop-nest
reference in the test oracles and with closed forms, and reproduce the
full-array route in the oracles bit for bit; the network kernels must
reproduce the reference route in the oracles bit for bit, and fresh
interpreters must import the package cleanly and reproduce its results.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdexplain
from fdexplain import kernels, mlp

from oracles import (adam_epoch_ref, curve_batch_loops, curve_batch_ref,
                     mlp_forward_ref, mlp_loss_grad_ref)


def _curve_args(n=12, m=80, k=4, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(-4.0, 0.0, m)
    centers = rng.uniform(-3.8, -0.2, size=(n, k))
    widths = rng.uniform(0.1, 0.4, size=(n, k))
    amps = rng.uniform(0.5, 3.0, size=(n, k))
    n_peaks = rng.integers(0, k + 1, size=n).astype(np.int64)
    gain = rng.uniform(0.8, 1.5, size=n)
    boost = rng.uniform(0.0, 2.0, size=n)
    return (t, centers, widths, amps, n_peaks, gain, boost,
            3.0, 3.0, 1.1, -4.0)


def _rel_max(a, b):
    scale = max(1.0, float(np.max(np.abs(a))))
    return float(np.max(np.abs(a - b))) / scale


# ---------------------------------------------------------------------------
# double-implementation agreement (loop form vs vectorized form)
# ---------------------------------------------------------------------------

def test_curve_loop_vs_vectorized():
    args = _curve_args()
    assert _rel_max(curve_batch_loops(*args), kernels.curve_batch(*args)) \
        <= 1e-12


@st.composite
def _curve_shapes(draw):
    """(n, m, k, seed): grid counts that are not multiples of 8 and one
    whose block is a single row; one row, one block and one block plus a
    row; 0 to 5 peak slots."""
    m = draw(st.sampled_from([2, 3, 101, 1000, kernels._BLOCK_VALUES + 3]))
    block = max(1, kernels._BLOCK_VALUES // m)
    return (draw(st.sampled_from([1, block, block + 1])), m,
            draw(st.integers(0, 5)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(_curve_shapes())
def test_curve_batch_matches_the_full_array_route_bit_for_bit(shape):
    args = _curve_args(*shape)
    got = kernels.curve_batch(*args)
    want = curve_batch_ref(*args)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_curve_zero_peaks_closed_form():
    t = np.linspace(-4.0, 0.0, 50)
    args = (t, np.zeros((1, 2)), np.ones((1, 2)), np.zeros((1, 2)),
            np.zeros(1, dtype=np.int64), np.array([2.0]), np.array([0.5]),
            3.0, 3.0, 1.1, -4.0)
    u = t + 4.0
    expected = 2.0 * (3.0 * np.exp(-1.1 * u) + 0.5 * np.exp(-3.0 * u))
    assert _rel_max(kernels.curve_batch(*args), expected) <= 1e-12
    assert _rel_max(curve_batch_loops(*args), expected) <= 1e-12


def test_curve_single_peak_closed_form():
    t = np.linspace(-4.0, 0.0, 50)
    c, w, a = -2.0, 0.25, 1.7
    args = (t, np.full((1, 1), c), np.full((1, 1), w), np.full((1, 1), a),
            np.ones(1, dtype=np.int64), np.array([1.0]), np.array([0.0]),
            3.0, 0.0, 1.1, -4.0)
    expected = a * np.exp(-((t - c) ** 2) / (2.0 * w * w))
    assert _rel_max(kernels.curve_batch(*args), expected) <= 1e-12
    assert _rel_max(curve_batch_loops(*args), expected) <= 1e-12


# ---------------------------------------------------------------------------
# network kernels: bit for bit against the reference route
# ---------------------------------------------------------------------------

TASKS = (kernels.TASK_CLASSIFICATION, kernels.TASK_REGRESSION)
WIDTHS = (1, 100, 1000)
HIDDEN = ((8,), (50, 40, 30))
N_ROWS = 70


def _network(task, width, hidden, n=N_ROWS, seed=0):
    """Sizes, parameters (nonzero biases too), inputs with some signed
    zeros, and targets for one small network."""
    rng = np.random.default_rng(seed)
    sizes = mlp.layer_sizes(width, mlp.MlpConfig(hidden_sizes=hidden))
    params = mlp.init_params(sizes, rng)
    params += 0.05 * rng.standard_normal(params.size)
    X = rng.standard_normal((n, width))
    X[::5, 0] = -0.0
    X[1::5, 0] = 0.0
    if task == kernels.TASK_CLASSIFICATION:
        y = (rng.random(n) < 0.5).astype(np.float64)
    else:
        y = rng.standard_normal(n)
    return sizes, params, X, y


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("hidden", HIDDEN)
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("n", (1, 7, 64))
def test_mlp_forward_matches_reference(n, width, hidden):
    sizes, params, X, _ = _network(kernels.TASK_REGRESSION, width, hidden, n)
    X_before = X.copy()
    assert _same_bits(kernels.mlp_forward(params, sizes, X),
                      mlp_forward_ref(params, sizes, X))
    assert _same_bits(X, X_before)


@pytest.mark.parametrize("hidden", HIDDEN)
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("n", (1, 7, 64))
@pytest.mark.parametrize("task", TASKS)
def test_mlp_loss_grad_matches_reference(task, n, width, hidden):
    sizes, params, X, y = _network(task, width, hidden, n)
    X_before, y_before = X.copy(), y.copy()
    grad = np.full_like(params, np.nan)
    grad_ref = np.empty_like(params)
    loss = kernels.mlp_loss_grad(params, sizes, X, y, task, grad)
    loss_ref = mlp_loss_grad_ref(params, sizes, X, y, task, grad_ref)
    assert _same_bits(loss, loss_ref)
    assert _same_bits(grad, grad_ref)
    assert _same_bits(X, X_before) and _same_bits(y, y_before)


@pytest.mark.parametrize("hidden", HIDDEN)
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("batch_size", (1, 7, 64, N_ROWS + 5))
@pytest.mark.parametrize("task", TASKS)
def test_adam_epoch_matches_reference(task, batch_size, width, hidden):
    sizes, params, X, y = _network(task, width, hidden)
    X_before, y_before = X.copy(), y.copy()
    rng = np.random.default_rng(1)
    ours = [params.copy(), np.zeros_like(params), np.zeros_like(params)]
    theirs = [params.copy(), np.zeros_like(params), np.zeros_like(params)]
    step = step_ref = 0
    for _ in range(3):
        # moments and step count carry over from epoch to epoch
        order = rng.permutation(N_ROWS)
        order_before = order.copy()
        loss, step = kernels.adam_epoch(*ours, step, sizes, X, y, order,
                                        batch_size, 1e-3, 0.9, 0.999, 1e-8,
                                        task)
        loss_ref, step_ref = adam_epoch_ref(*theirs, step_ref, sizes, X, y,
                                            order, batch_size, 1e-3, 0.9,
                                            0.999, 1e-8, task)
        assert step == step_ref
        assert _same_bits(loss, loss_ref)
        for a, b in zip(ours, theirs):
            assert _same_bits(a, b)
        assert _same_bits(order, order_before)
    assert _same_bits(X, X_before) and _same_bits(y, y_before)
    assert not _same_bits(ours[0], params)


# ---------------------------------------------------------------------------
# fresh interpreters
# ---------------------------------------------------------------------------

def _child_env():
    """Environment for a fresh interpreter that imports this module and the
    same fdexplain as this process, whether or not the package is installed.
    """
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    package_parent = os.path.dirname(
        os.path.dirname(os.path.abspath(fdexplain.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    path = [tests_dir, package_parent] + ([inherited] if inherited else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _spawn(*args):
    return subprocess.run([sys.executable, *args], env=_child_env(),
                          capture_output=True, text=True)


def test_import_emits_no_warning():
    proc = _spawn("-W", "error", "-c", "import fdexplain")
    assert proc.returncode == 0, proc.stderr


def test_curve_batch_deterministic_across_processes(tmp_path):
    # a fresh interpreter writes its curve batch; compare in-process
    out = tmp_path / "curves.npy"
    code = (
        "import numpy as np\n"
        "from fdexplain import kernels\n"
        "from test_kernels import _curve_args\n"
        f"np.save({str(out)!r}, kernels.curve_batch(*_curve_args(seed=7)))\n"
    )
    proc = _spawn("-c", code)
    assert proc.returncode == 0, proc.stderr
    theirs = np.load(out)
    ours = kernels.curve_batch(*_curve_args(seed=7))
    assert _rel_max(ours, theirs) <= 1e-12
