"""Workload definitions and output checks shared by run.py and worker.py.

Two workloads, chosen to stress different layers of the pipeline:

* ``run-narrow`` -- one in-process ``pipeline.run_pipeline`` with the
  default settings except n=600 on a 100-point grid (100 score columns).
  Training takes about 80% (the per-batch loop and small hidden layers),
  permutation importance about 12%, serialization the rest.
* ``stages-cli`` -- the stage-by-stage ``cli.main`` chain a user reruns
  from files (simulate, split, fpca, transform x3, figures) at n=400 on
  the default 1000-point grid. No training and no permutation importance;
  about 80% is CSV writes and reads, and it is the only workload that
  reads artifacts back.

Both are smaller than the default run (n=2000, 1000-point grid, about
90 s on a 2-core machine) so that a measured run holds a dozen
iterations: on a shared machine whose speed drifts by 20% or more over
tens of seconds, medians of three or four long iterations spread by up
to 19% between runs. The default run's network and CSV sizes are timed
by the kernel microbenchmarks instead.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

STAGES = ("simulate", "split", "fpca", "transform", "train", "metrics",
          "pfi", "report", "figures")
SPLITS = ("train", "test", "validation")
SPLIT_RATIOS = (0.7225, 0.15)  # train, test; validation takes the rest
TARGETS = ("y1", "y2", "y3")
OUTDIR = "run"

WORKLOADS = {
    "run-narrow": {"kind": "run", "n": 600, "grid_count": 100},
    "stages-cli": {"kind": "cli", "n": 400, "grid_count": 1000},
}

# Calls a traced iteration must make, per public function. A function the
# tracer failed to wrap reads 0 here and fails the traced run. The two
# transforms beyond one per split come from the score-bundle figures.
EXPECTED_CALLS = {
    "run": {
        "pipeline.run_pipeline": 1, "sim.generate_dataset": 1,
        "dataio.write_dataset": 4, "pipeline.split": 1, "fpca.fit": 1,
        "fpca.save_model": 1, "fpca.transform": 5, "dataio.write_scores": 3,
        "mlp.train": 3, "mlp.save_mlp": 3, "pipeline.evaluate_models": 1,
        "explain.permutation_importance": 3, "explain.save_pfi": 3,
        "pipeline.write_report": 1, "pipeline.emit_figures": 1,
        "viz.save_figure": 15,
    },
    "cli": {
        "cli.main": 7, "sim.generate_dataset": 1, "dataio.write_dataset": 4,
        "dataio.read_dataset": 7, "pipeline.split": 1, "fpca.fit": 1,
        "fpca.save_model": 1, "fpca.load_model": 4, "fpca.transform": 5,
        "dataio.write_scores": 3, "dataio.read_scores": 1,
        "pipeline.emit_figures": 1, "viz.save_figure": 15,
    },
}

# Criterion 5 of the acceptance gate.
MIN_CLASSIFIER_SCORE = 0.95
MIN_REGRESSOR_R2 = 0.80
MAX_R2_GAP = 0.10


def cli_chain(n: int, grid_count: int, seed: int) -> list[list[str]]:
    """Argument lists for the in-process ``cli.main`` stage chain."""
    data = f"{OUTDIR}/data"
    chain = [
        ["simulate", "--n", str(n), "--seed", str(seed),
         "--grid-count", str(grid_count), "-o", f"{data}/dataset.csv"],
        ["split", "--data", f"{data}/dataset.csv", "--seed", str(seed),
         "--outdir", data],
        ["fpca", "--train", f"{data}/train.csv", "--outdir", f"{OUTDIR}/fpca"],
    ]
    chain += [["transform", "--model", f"{OUTDIR}/fpca",
               "--data", f"{data}/{s}.csv", "-o", f"{OUTDIR}/scores/{s}.csv"]
              for s in SPLITS]
    chain.append(["figures", "--run", OUTDIR])
    return chain


def split_sizes(n: int) -> dict:
    """Documented split rule: train and test round half away from zero,
    validation takes the remainder."""
    n_train = math.floor(SPLIT_RATIOS[0] * n + 0.5)
    n_test = math.floor(SPLIT_RATIOS[1] * n + 0.5)
    return {"train": n_train, "test": n_test,
            "validation": n - n_train - n_test}


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def artifact_hashes(root: Path) -> dict:
    """sha256 of every file except manifest.json, whose timings vary."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def ranking_checks(means: dict) -> dict:
    """The report's qualitative ranking checks, recomputed from the mean
    importances the run saved (1-based components, ties to the lower)."""
    ranks = {t: sorted(range(1, len(v) + 1), key=lambda j: (-v[j - 1], j))
             for t, v in means.items()}
    tail_ok = all(max(v) > 0 and max(map(abs, v[10:]), default=0.0) < 0.05 * max(v)
                  for v in means.values())
    return {"y1_top2_is_fpc_1_2": set(ranks["y1"][:2]) == {1, 2},
            "y2_top2_contains_fpc_1": 1 in ranks["y2"][:2],
            "y2_top3_contains_fpc_3": 3 in ranks["y2"][:3],
            "y3_top1_is_fpc_2": ranks["y3"][0] == 2,
            "tail_importance_negligible": tail_ok}


def check_run(root: Path) -> tuple[list[str], list[str]]:
    """Problems with a ``run_pipeline`` output directory (empty when
    valid) and the ranking deviations its report flags.

    A deviation is a finding of the run, not an error: at n=2000 on a
    100-point grid, 6 of master seeds 0-39 flag one. The check is that
    the report's ranking checks match the saved importances.
    """
    problems = []
    manifest = json.loads((root / "manifest.json").read_text())
    if manifest["failed_stage"] is not None:
        problems.append(f"failed stage {manifest['failed_stage']}")
    if tuple(manifest["completed_stages"]) != STAGES:
        problems.append(f"completed stages {manifest['completed_stages']}")
    missing = [p for p in manifest["artifacts"].values()
               if not (root / p).is_file()]
    if missing:
        problems.append(f"missing artifacts {missing}")
    report = json.loads((root / "report.json").read_text())
    means = {t: json.loads((root / "pfi" / f"{t}_pfi.json").read_text())
             ["mean_importance"] for t in TARGETS}
    expected = ranking_checks(means)
    if report["ranking_checks"] != expected or sorted(report["deviations"]) != \
            sorted(k for k, ok in expected.items() if not ok):
        problems.append(f"report ranking checks {report['ranking_checks']} "
                        f"disagree with the saved importances {expected}")
    metrics = report["metrics"]
    for target in ("y1", "y2"):
        for name in ("accuracy", "f1"):
            value = metrics[target]["test"][name]
            if not value >= MIN_CLASSIFIER_SCORE:
                problems.append(f"{target} test {name} {value}")
    r2_test = metrics["y3"]["test"]["r2"]
    r2_train = metrics["y3"]["train"]["r2"]
    if not r2_test >= MIN_REGRESSOR_R2:
        problems.append(f"y3 test r2 {r2_test}")
    if not abs(r2_train - r2_test) <= MAX_R2_GAP:
        problems.append(f"y3 train/test r2 gap {r2_train - r2_test}")
    return problems, report["deviations"]


def _read_float_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Parse a numeric CSV independently of the package's own reader."""
    header, _, body = path.read_text().partition("\n")
    lines = body.splitlines()
    cols = header.split(",")
    cells = ",".join(lines).split(",") if lines else []
    if len(cells) != len(lines) * len(cols):
        raise ValueError(f"{path}: ragged rows")
    return cols, np.array(cells, dtype=np.float64).reshape(len(lines), len(cols))


def check_cli(root: Path, n: int, returncodes: list[int]) -> list[str]:
    """Problems with a stage-chain output directory; empty when valid."""
    problems = []
    if any(code != 0 for code in returncodes):
        problems.append(f"command exit codes {returncodes}")
        return problems
    width = json.loads((root / "fpca" / "fpca.json").read_text())["n_components"]
    expected_header = [f"fpc_{j + 1}" for j in range(width)] + list(TARGETS)
    for name, rows in split_sizes(n).items():
        header, table = _read_float_csv(root / "scores" / f"{name}.csv")
        if header != expected_header or table.shape != (rows, width + 3):
            problems.append(f"scores/{name}.csv has shape {table.shape}, "
                            f"expected {(rows, width + 3)}")
        elif not np.all(np.isfinite(table)):
            problems.append(f"scores/{name}.csv has non-finite values")
    figures = json.loads((root / "config.json").read_text())["figures"]
    for entry in figures:
        stem = entry.replace(":", "_").replace(",", "_").replace("-", "_")
        for suffix in (".svg", ".csv"):
            path = root / "figures" / f"{stem}{suffix}"
            if not path.is_file() or path.stat().st_size == 0:
                problems.append(f"missing figure {path.name}")
    if len(figures) != 15:
        problems.append(f"{len(figures)} figures configured, expected 15")
    return problems
