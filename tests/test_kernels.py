"""Kernel correctness and determinism.

The vectorized curve kernel must agree to roundoff with the loop-nest
reference in the test oracles and with closed forms, and fresh
interpreters must import the package cleanly and reproduce its results.
"""

import os
import subprocess
import sys

import numpy as np

import fdexplain
from fdexplain import kernels

from oracles import curve_batch_loops


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
