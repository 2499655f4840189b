"""The benchmark harness still runs the package cleanly.

`perfbench/run.py --trace 1` fails an iteration when a pinned public call
count (`EXPECTED_CALLS`), a PFI evaluation or epoch count, or a stage's
clock marks disagree with what the program did. A short traced run per
workload turns those constraints into a test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["run-narrow", "stages-cli"])
def test_traced_benchmark_run_reports_no_problems(workload):
    # no bytecode caches, so the run leaves no files in the checkout
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    iterations = [line for line in lines if "iteration" in line]
    assert iterations, proc.stdout
    for record in iterations:
        assert record["problems"] == [], record
    assert lines[-1]["correct"] is True
    assert lines[-1]["failed"] == 0
