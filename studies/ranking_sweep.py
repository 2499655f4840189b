"""Seed sweep of the report's ranking checks.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 studies/ranking_sweep.py --label NAME

Run from the repository root. For each master seed 0-39 the full pipeline
runs at n=2000 on a 100-point grid with figures off, into a temporary
directory that is removed afterwards, and the sweep writes
`STUDY_ranking_<NAME>.json`:

* `deviation_counts` and `deviating_seeds`: per ranking check, how many
  seeds (and which) the report flags;
* `runs`: per seed, the flagged checks, the sampled margin of every check,
  each network's training log summary and the test-split quality.

A check's margin is the gap between the mean importances that decide it,
positive when it passes (zero is a tie, which the ranking breaks toward
the smaller component index). `se_units` divides a two-component margin
by the standard error of the difference of the two sampled means, taken
as independent; the tail check's margin is
`pipeline.NEGLIGIBLE_FRACTION * peak - max |tail|`
of the tightest target, in importance units.

The checks are a finding at each seed, not a gate: a rise in the count
between two commits is reported, never tuned away. The file holds no
timings, so two sweeps of one commit write the same bytes; the wall time
goes to stderr.
"""

import argparse
import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

from fdexplain import explain, pipeline
from fdexplain.dataio import read_json

SEEDS = range(40)
N = 2000
GRID_COUNT = 100


def check_margins(pfi: dict) -> dict:
    """Sampled margin of every ranking check, from each target's summary
    (`mean_importance`, `sd_importance`, `replications`). A role check's
    margin compares the lowest ranked of its components with the rival
    that would push it out of the top k."""
    margins = {}
    for name, (t, components, k) in pipeline.ROLE_CHECKS.items():
        mean, sd = pfi[t]["mean_importance"], pfi[t]["sd_importance"]
        order = sorted(range(1, len(mean) + 1), key=lambda i: (-mean[i - 1], i))
        j = max(components, key=order.index)
        rival = [i for i in order if i not in components][k - len(components)]
        margin = mean[j - 1] - mean[rival - 1]
        se = math.sqrt((sd[j - 1] ** 2 + sd[rival - 1] ** 2)
                       / int(pfi[t]["replications"]))
        margins[name] = {"margin": margin, "rival": rival,
                         "se_units": margin / se if se > 0 else None}
    tail = min(pipeline.NEGLIGIBLE_FRACTION * max(v)
               - max(map(abs, v[pipeline.NEGLIGIBLE_INDEX:]), default=0.0)
               for v in (p["mean_importance"] for p in pfi.values()))
    margins["tail_importance_negligible"] = {"margin": tail, "rival": None,
                                             "se_units": None}
    return margins


def sweep_seed(seed: int, workdir: Path) -> dict:
    outdir = workdir / f"seed_{seed}"
    config = pipeline.RunConfig(n=N, grid_count=GRID_COUNT, seed=seed,
                                figures=(), outdir=str(outdir))
    try:
        pipeline.run_pipeline(config)
        report = read_json(outdir / "report.json")
        reports = {t: explain.load_pfi(outdir / "pfi", t)
                   for t in pipeline.TARGETS}
        logs = {t: read_json(outdir / "models" / t / "mlp.json")["log"]
                for t in pipeline.TARGETS}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    test = {t: report["metrics"][t]["test"] for t in pipeline.TARGETS}
    return {
        "seed": seed,
        "deviations": report["deviations"],
        "margins": check_margins({t: {
            "mean_importance": r.mean_importance.tolist(),
            "sd_importance": r.sd_importance.tolist(),
            "replications": r.replications} for t, r in reports.items()}),
        "training": {t: {"epochs_run": log["epochs_run"],
                         "best_epoch": log["best_epoch"],
                         # absent before the stop reason was logged
                         "stop_reason": log.get("stop_reason")}
                     for t, log in logs.items()},
        "test": {"y1_accuracy": test["y1"]["accuracy"],
                 "y2_accuracy": test["y2"]["accuracy"],
                 "y3_r2": test["y3"]["r2"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="names the output STUDY_ranking_<label>.json")
    parser.add_argument("--out-dir", default=".",
                        help="directory for the output file (default: .)")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    runs = []
    with tempfile.TemporaryDirectory(prefix="ranking_sweep_") as tmp:
        for seed in SEEDS:
            runs.append(sweep_seed(seed, Path(tmp)))
            print(f"seed {seed}: deviations {runs[-1]['deviations']}",
                  file=sys.stderr)
    checks = list(runs[0]["margins"])
    deviating = {c: [r["seed"] for r in runs if c in r["deviations"]]
                 for c in checks}
    study = {
        "label": args.label,
        "config": {"n": N, "grid_count": GRID_COUNT, "seeds": list(SEEDS),
                   "figures": []},
        "deviation_counts": {c: len(s) for c, s in deviating.items()},
        "deviating_seeds": deviating,
        "runs": runs,
    }
    path = Path(args.out_dir) / f"STUDY_ranking_{args.label}.json"
    path.write_text(json.dumps(study, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}: {sum(map(len, deviating.values()))} deviations "
          f"over {len(runs)} seeds in {time.perf_counter() - start:.0f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
