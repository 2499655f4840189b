"""One benchmark iteration in a fresh process.

    python3 worker.py SPAWN_TIME RESULT_JSON WORKLOAD SEED [--trace]
    python3 worker.py SPAWN_TIME RESULT_JSON micro SEED

Runs in the iteration's working directory with the package sources on
PYTHONPATH, and writes its measurements to RESULT_JSON:

* ``setup_s``: from SPAWN_TIME (the parent's ``time.monotonic()`` just
  before it started this process) to the first pipeline call, which
  covers interpreter start, importing numpy and fdexplain, and building
  the config;
* ``wall_s``: the iteration itself;
* ``peak_rss_kb``: this process's own peak resident set (VmHWM);
* with ``--trace``, the per-layer metrics and any trace inconsistency.
"""

import json
import sys
import time
from pathlib import Path

import fdexplain
from fdexplain import cli, pipeline

import micro
import tracer as tracing
import workloads


def peak_rss_kb() -> int:
    """High-water resident set of this process image. Unlike ru_maxrss,
    which Linux carries across exec, it excludes the parent that spawned
    this process."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def run_iteration(spec: dict, seed: int, traced: bool, spawn_time: float) -> dict:
    tracer = clock = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
        clock = tracing.StageClock()
        pipeline.time = clock

    out = {"backend": fdexplain.BACKEND}
    config = pipeline.RunConfig(n=spec["n"], grid_count=spec["grid_count"],
                                seed=seed, outdir=workloads.OUTDIR)
    if spec["kind"] == "run":
        def work():
            pipeline.run_pipeline(config)
    else:
        # `figures` reads the run configuration from the run directory
        Path(workloads.OUTDIR).mkdir()
        Path(workloads.OUTDIR, "config.json").write_text(
            json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
        chain = workloads.cli_chain(spec["n"], spec["grid_count"], seed)

        def work():
            out["returncodes"] = [cli.main(argv) for argv in chain]
    out["setup_s"] = time.monotonic() - spawn_time
    start = time.perf_counter()
    work()
    out["wall_s"] = time.perf_counter() - start
    out["peak_rss_kb"] = peak_rss_kb()

    if traced:
        out["layers"], out["trace_problems"] = analyse(
            tracer.spans, spec["kind"], clock.marks)
    return out


def analyse(spans, kind: str, marks: list) -> tuple[dict, list]:
    a = tracing.Analysis(spans)
    windows, reported = {}, {}
    problems = []
    root = Path(workloads.OUTDIR)
    if kind == "run":
        manifest = json.loads((root / "manifest.json").read_text())
        roots = a.by_name["pipeline.run_pipeline"]
        parent = roots[0] if roots else -1
        stages = manifest["completed_stages"]
        if len(marks) != 2 * len(stages):
            problems.append(f"{len(marks)} stage clock marks for "
                            f"{len(stages)} stages")
        for stage, lo, hi in zip(stages, marks[0::2], marks[1::2]):
            windows[stage] = [(lo, hi, parent)]
        reported = manifest["timings"]
    else:
        for i in a.by_name["cli.main"]:
            span = a.spans[i]
            windows.setdefault(span[tracing.INFO]["command"], []).append(
                (span[tracing.START], span[tracing.END], i))
    layers, more = tracing.layer_metrics(
        a, workloads.EXPECTED_CALLS[kind], windows, reported)
    problems += more

    if kind == "run":
        # cross-check trace counts against what the run wrote
        width = manifest["realized_width"]
        reps = manifest["config"]["pfi"]["replications"]
        for target in workloads.TARGETS:
            want = width * reps + 1
            if layers[f"explain.evals.{target}"] != want:
                problems.append(f"explain.evals.{target}: "
                                f"{layers[f'explain.evals.{target}']}, "
                                f"expected {want}")
            log = json.loads((root / "models" / target / "mlp.json")
                             .read_text())["log"]
            if layers[f"mlp.epochs.{target}"] != log["epochs_run"]:
                problems.append(f"mlp.epochs.{target}: "
                                f"{layers[f'mlp.epochs.{target}']}, model log "
                                f"says {log['epochs_run']}")
    return layers, problems


def main() -> int:
    spawn_time = float(sys.argv[1])
    result_path, name, seed = sys.argv[2], sys.argv[3], int(sys.argv[4])
    if name == "micro":
        result = micro.run(seed)
    else:
        result = run_iteration(workloads.WORKLOADS[name], seed,
                               "--trace" in sys.argv[5:], spawn_time)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
