"""The benchmark harness still runs the package cleanly.

`perfbench/run.py --trace 1` fails an iteration when a pinned public call
count (`EXPECTED_CALLS`), a PFI evaluation or epoch count, or a stage's
clock marks disagree with what the program did. A short traced run per
workload turns those constraints into a test. The call shapes the
harness uses are checked without a run, so the fast tier catches a
renamed parameter or a changed signature too.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fdexplain import cli, dataio, kernels, mlp, pipeline

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


def test_the_call_shapes_the_harness_uses_still_bind():
    def bind(fn, *args, **kwargs):
        inspect.signature(fn).bind(*args, **kwargs)

    # perfbench/micro.py
    bind(dataio.read_table_csv, "table.csv")
    bind(dataio.write_table_csv, "table.csv", ["c0"], [[0.0]])
    bind(mlp.Mlp, *range(7))
    assert mlp.MlpConfig(standardize=False).standardize is False
    bind(kernels.adam_epoch, *range(14))
    # perfbench/tracer.py binds the writers' arguments by these names, and
    # reads the argument list of `cli.main` by name or position
    bind(cli.main, argv=["report"])
    for writer, names in [(dataio.write_json, {"path"}),
                          (dataio.write_table_csv, {"path", "header", "rows"}),
                          (dataio.write_dataset, {"csv_path", "dataset"}),
                          (dataio.write_scores, {"csv_path", "scores"})]:
        assert names <= set(inspect.signature(writer).parameters), writer
    # perfbench/worker.py
    config = pipeline.RunConfig(n=600, grid_count=100, seed=1, outdir="out")
    assert config.to_dict()["pfi"]["replications"] == config.pfi_replications
