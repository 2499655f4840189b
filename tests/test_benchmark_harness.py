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

import numpy as np
import pytest

import fdexplain
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


def test_the_micro_benchmark_network_builds_and_reads_raw_scores():
    """`perfbench/micro.py` builds its network with an identity scaling
    given positionally; any other scaling, or `standardize=True`, is
    refused rather than ignored."""
    rng = np.random.default_rng(3)
    sizes = np.array([6, 5, 4, 1], dtype=np.int64)
    params = rng.normal(scale=0.05, size=mlp.n_params(sizes))
    identity = [np.zeros(6), np.ones(6), np.zeros(6, dtype=bool)]
    net = mlp.Mlp(mlp.MlpConfig(standardize=False), sizes, params, *identity,
                  mlp.TrainingLog())
    X = rng.normal(size=(20, 6))
    assert net.predict(X).tobytes() == mlp.Mlp(
        mlp.MlpConfig(), sizes, params).predict(X).tobytes()
    with pytest.raises(ValueError, match="standardize"):
        mlp.MlpConfig(standardize=True)
    for i, name in enumerate(["feature_mean", "feature_scale"]):
        scaling = list(identity)
        scaling[i] = scaling[i] + 0.5
        with pytest.raises(ValueError, match=f"{name} must be the identity"):
            mlp.Mlp(mlp.MlpConfig(), sizes, params, *scaling)


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
    assert fdexplain.BACKEND == "numpy"
    config = pipeline.RunConfig(n=600, grid_count=100, seed=1, outdir="out")
    assert config.to_dict()["pfi"]["replications"] == config.pfi_replications
