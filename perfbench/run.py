"""Benchmark of the fdexplain pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. Each
iteration runs in a fresh child process (so its peak resident set is its
own), one at a time, with BLAS pinned to one thread. The child's outputs
are checked and hashed outside the timed region, then deleted.

With ``--trace 0`` iterations repeat until ``--seconds`` would be
exceeded and the end-to-end metrics are their medians. With
``--trace 1`` a few untraced iterations are followed by one traced
iteration, whose spans give the per-layer metrics, and by the kernel
microbenchmarks; the tracing overhead is the traced wall time minus the
untraced median.

Every line before the last is JSON describing the environment or one
iteration; the last line is the result object. Metric names and units
are those declared in BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import workloads

STARTED = time.monotonic()
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
BLAS_THREADS = 1
# y3 trains for 65 to 282 epochs depending on the seed; eight seeds a run
# (most run twice in a run's 12 to 17 iterations) average that out better
# than four.
SEEDS_PER_RUN = 8
TIME_LIMIT = 170.0  # a run must end within 180 s


class IterationError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args: list, cwd: Path, env: dict) -> dict:
    """Run the worker in `cwd` and return the measurements it wrote."""
    result_path = cwd / "result.json"
    timeout = TIME_LIMIT - (time.monotonic() - STARTED)
    if timeout <= 0:
        raise IterationError("no time left for another iteration")
    spawn_time = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), repr(spawn_time), str(result_path),
             *args],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise IterationError(f"worker {args} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise IterationError(f"worker {args} exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
    return json.loads(result_path.read_text())


class Workload:
    def __init__(self, name: str, seed: int, root: Path, work: Path):
        self.name = name
        self.spec = workloads.WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.env = child_env(root)
        self.hashes = {}
        self.count = 0

    def iteration(self, offset: int, traced: bool = False) -> dict:
        """One checked iteration on master seed SEEDS_PER_RUN * seed +
        offset; `ok` is False when it raised or its outputs failed a check."""
        self.count += 1
        cwd = self.work / f"iteration-{self.count}"
        cwd.mkdir()
        seed = SEEDS_PER_RUN * self.seed + offset
        record = {"iteration": self.count, "seed": seed, "traced": traced}
        try:
            args = [self.name, str(seed)] + (["--trace"] if traced else [])
            record.update(spawn(args, cwd, self.env))
            problems = self.check(cwd / workloads.OUTDIR, record)
            problems += record.pop("trace_problems", [])
        except (IterationError, OSError, ValueError, KeyError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        record["ok"] = not problems
        record["problems"] = problems
        return record

    def check(self, root: Path, record: dict) -> list:
        if self.spec["kind"] == "run":
            problems, record["deviations"] = workloads.check_run(root)
            hashes = workloads.artifact_hashes(root)
            first = self.hashes.setdefault(record["seed"], hashes)
            if hashes != first:
                changed = sorted(k for k in set(hashes) | set(first)
                                 if hashes.get(k) != first.get(k))
                problems.append(f"artifacts differ from the first iteration "
                                f"of this seed: {changed[:5]}")
        else:
            problems = workloads.check_cli(root, self.spec["n"],
                                           record["returncodes"])
        record["bytes_written"] = workloads.dir_bytes(root)
        record["peak_rss_mb"] = record.pop("peak_rss_kb") / 1024.0
        return problems


def environment(backend: str) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "backend": backend}


def measure(w: Workload, seconds: int, traced: bool) -> tuple[list, dict]:
    """Iterations of `w` and the metrics computed from them."""
    records = []
    budget = seconds / 3 if traced else seconds

    def report(record):
        records.append(record)
        print(json.dumps({k: v for k, v in record.items() if k != "layers"}),
              flush=True)
        for problem in record["problems"]:
            print(f"{w.name} iteration {record['iteration']}: {problem}",
                  file=sys.stderr)

    # Measured runs cycle through SEEDS_PER_RUN master seeds, so the
    # medians average over several seeds' training lengths and each seed's
    # artifacts are compared across its repeats. A traced run stays on the
    # first seed: the overhead compares like with like, and tracing must
    # not change the artifacts.
    while True:
        start = time.monotonic()
        report(w.iteration(0 if traced else len(records) % SEEDS_PER_RUN))
        cost = time.monotonic() - start
        if "wall_s" not in records[-1] or \
                time.monotonic() + cost > STARTED + budget:
            break
    timed = [r for r in records if "wall_s" in r]
    if not timed:
        return records, {}
    if not traced:
        return records, {
            key: statistics.median(r[key] for r in timed)
            for key in ("wall_s", "setup_s", "peak_rss_mb", "bytes_written")}

    report(w.iteration(0, traced=True))
    if "layers" not in records[-1]:
        return records, {}
    traced_run = records[-1]
    metrics = dict(traced_run["layers"])
    metrics["trace.overhead_s"] = traced_run["wall_s"] - statistics.median(
        r["wall_s"] for r in timed)
    cwd = w.work / "micro"
    cwd.mkdir()
    metrics.update(spawn(["micro", str(w.seed)], cwd, w.env))
    return records, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated benchmark unwinds through subprocess.run, which then
    # kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "fdexplain" / "__init__.py").is_file():
        print("perfbench: ./src/fdexplain not found; run from the root of an "
              "fdexplain checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    work = root / ".bench_build" / f"perfbench-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        w = Workload(args.workload, args.seed, root, work)
        records, metrics = measure(w, args.seconds, bool(args.trace))
    except IterationError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # other benchmark outputs still live there

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no measurement for {missing}", file=sys.stderr)
        return 1
    backend = next(r["backend"] for r in records if "backend" in r)
    print(json.dumps({"environment": environment(backend),
                      "workload": args.workload, "seed": args.seed}))
    failed = sum(not r["ok"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
