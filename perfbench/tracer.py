"""Span tracing of fdexplain's public functions, installed from outside.

The tracer wraps every public function defined in each pipeline module
and replaces it in every ``fdexplain`` namespace that holds it, so names
imported with ``from .dataio import write_dataset`` are traced too. Each
call records a span (name, start, end, parent span) in memory; the
per-layer metrics are derived after the traced iteration ends.
"""

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict

from workloads import STAGES, TARGETS

LAYERS = ("sim", "pipeline", "dataio", "fpca", "mlp", "kernels", "explain",
          "viz", "cli")

# Outermost calls of these count as serialization; the rest is compute.
IO_FUNCTIONS = {
    "fpca.save_model", "fpca.load_model", "mlp.save_mlp", "mlp.load_mlp",
    "explain.save_pfi", "explain.load_pfi", "viz.save_figure",
    "viz.load_figure_spec",
}

NAME, START, END, PARENT, INFO = range(5)


def is_io(name: str) -> bool:
    return name.startswith("dataio.") or name in IO_FUNCTIONS


def _write_hook(fn, values):
    """Record bytes of the file a dataio writer produced and the number of
    float values it formatted (computed from argument shapes)."""
    sig = inspect.signature(fn)

    def hook(args, kwargs, _result):
        bound = sig.bind(*args, **kwargs).arguments
        path = bound.get("path", bound.get("csv_path"))
        return {"bytes": os.path.getsize(path), "values": values(bound)}
    return hook


WRITE_VALUES = {
    "dataio.write_json": lambda b: 0,
    "dataio.write_table_csv": lambda b: len(b["rows"]) * len(b["header"]),
    # grid values plus the y3 label per row; y1 and y2 are written as ints
    "dataio.write_dataset": lambda b: b["dataset"].n * (b["dataset"].grid.count + 1),
    "dataio.write_scores": lambda b: b["scores"].shape[0] * (b["scores"].shape[1] + 1),
}


def _cli_hook(args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    return {"command": argv[0], "returncode": result}


def _fit_hook(args, kwargs, result):
    return {"components": result.n_components}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def install(self, package: str = "fdexplain") -> None:
        """Wrap the public functions of every layer in every namespace
        of `package` that holds them."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__ or obj in wrappers):
                    continue
                name = f"{layer}.{attr}"
                if name in WRITE_VALUES:
                    hook = _write_hook(obj, WRITE_VALUES[name])
                else:
                    hook = {"cli.main": _cli_hook, "fpca.fit": _fit_hook}.get(name)
                wrappers[obj] = self._wrap(name, obj, hook)
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if hook is not None:
                record[INFO] = hook(args, kwargs, result)
            return result
        return traced


class StageClock:
    """Stand-in for the ``time`` module inside ``fdexplain.pipeline``: the
    run loop reads ``time.perf_counter()`` once at the start and once at
    the end of each stage, so the marks delimit the stage windows."""

    def __init__(self):
        self.marks = []

    def perf_counter(self) -> float:
        now = time.perf_counter()
        self.marks.append(now)
        return now


class Analysis:
    """Per-layer metrics from a finished trace."""

    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for i, span in enumerate(spans):
            self.children[span[PARENT]].append(i)
        self.by_name = defaultdict(list)
        for i, span in enumerate(spans):
            self.by_name[span[NAME]].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][END] - self.spans[i][START]

    def total(self, name: str) -> float:
        return sum(self.dur(i) for i in self.by_name[name])

    def count(self, name: str) -> int:
        return len(self.by_name[name])

    def self_time(self, i: int) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(self.self_time(i) for i, s in enumerate(self.spans)
                   if s[NAME].startswith(prefix))

    def under(self, name: str, root: int) -> int:
        """Calls of `name` made (directly or not) inside span `root`."""
        n = 0
        for i in self.by_name[name]:
            p = self.spans[i][PARENT]
            while p > root:
                p = self.spans[p][PARENT]
            n += p == root
        return n

    def outermost_time(self, pred, lo: float = -math.inf,
                       hi: float = math.inf) -> float:
        """Time in spans inside [lo, hi] that match `pred` and have no
        matching ancestor."""
        total = 0.0
        for i, span in enumerate(self.spans):
            if not pred(span[NAME]) or span[START] < lo or span[END] > hi:
                continue
            p = span[PARENT]
            while p >= 0 and not pred(self.spans[p][NAME]):
                p = self.spans[p][PARENT]
            if p < 0:
                total += self.dur(i)
        return total

    def covered(self, parent: int, lo: float, hi: float) -> float:
        return sum(self.dur(i) for i in self.children[parent]
                   if self.spans[i][START] >= lo and self.spans[i][END] <= hi)

    def info_sum(self, names, key: str) -> int:
        return sum(self.spans[i][INFO][key] for name in names
                   for i in self.by_name[name])


def layer_metrics(analysis: Analysis, expected: dict,
                  stage_windows: dict, stage_times: dict) -> tuple[dict, list]:
    """Per-layer metrics and a list of trace consistency problems.

    `stage_windows` maps a stage name to its (start, end, parent span)
    windows and `stage_times` to the stage's time as the program reported
    it. Per-target metrics rely on the pipeline handling the targets in
    TARGETS order.
    """
    a = analysis
    problems = [f"{name}: {a.count(name)} calls, expected {want}"
                for name, want in expected.items() if a.count(name) != want]

    m = {f"{layer}.self_s": a.layer_self(layer) for layer in LAYERS}

    pfi = a.by_name["explain.permutation_importance"]
    train = a.by_name["mlp.train"]
    evals = [a.under("kernels.mlp_forward", i) for i in pfi]
    epochs = [a.under("kernels.adam_epoch", i) for i in train]
    for k, target in enumerate(TARGETS):
        m[f"explain.pfi_s.{target}"] = a.dur(pfi[k]) if k < len(pfi) else 0.0
        m[f"explain.evals.{target}"] = evals[k] if k < len(pfi) else 0
        m[f"mlp.train_s.{target}"] = a.dur(train[k]) if k < len(train) else 0.0
        m[f"mlp.epochs.{target}"] = epochs[k] if k < len(train) else 0
    m["explain.eval_s"] = (sum(a.dur(i) for i in pfi) / sum(evals)
                           if sum(evals) else 0.0)
    m["mlp.epoch_s"] = (sum(a.dur(i) for i in train) / sum(epochs)
                        if sum(epochs) else 0.0)
    for kernel in ("mlp_forward", "adam_epoch"):
        m[f"kernels.{kernel}_calls"] = a.count(f"kernels.{kernel}")
        m[f"kernels.{kernel}_s"] = a.total(f"kernels.{kernel}")

    m["dataio.write_s"] = a.outermost_time(
        lambda n: n.startswith("dataio.write_"))
    m["dataio.read_s"] = a.outermost_time(lambda n: n.startswith("dataio.read_"))
    m["dataio.write_bytes"] = a.info_sum(WRITE_VALUES, "bytes")
    m["dataio.values_formatted"] = a.info_sum(WRITE_VALUES, "values")
    for metric, name in (
            ("mlp.save_s", "mlp.save_mlp"), ("explain.save_s", "explain.save_pfi"),
            ("fpca.save_s", "fpca.save_model"), ("fpca.load_s", "fpca.load_model"),
            ("fpca.fit_s", "fpca.fit"), ("fpca.transform_s", "fpca.transform"),
            ("sim.generate_s", "sim.generate_dataset"),
            ("pipeline.split_s", "pipeline.split"),
            ("viz.emit_s", "pipeline.emit_figures"),
            ("pipeline.report_s", "pipeline.write_report"),
            ("pipeline.evaluate_s", "pipeline.evaluate_models")):
        m[metric] = a.total(name)
    fits = a.by_name["fpca.fit"]
    m["fpca.components"] = a.spans[fits[-1]][INFO]["components"] if fits else 0
    m["viz.figures"] = a.count("viz.save_figure")

    for stage in STAGES:
        m[f"stage.{stage}_s"] = 0.0
        m[f"stage.{stage}_io_s"] = 0.0
    for stage, windows in stage_windows.items():
        for lo, hi, parent in windows:
            m[f"stage.{stage}_s"] += hi - lo
            m[f"stage.{stage}_io_s"] += a.outermost_time(is_io, lo, hi)
            # more than 5% (+5 ms) of a stage outside every traced call
            # means a public function in it escaped the tracer
            covered = a.covered(parent, lo, hi)
            if hi - lo - covered > 0.05 * (hi - lo) + 0.005:
                problems.append(f"stage {stage}: traced calls cover "
                                f"{covered:.4f} s of {hi - lo:.4f} s")
        reported = stage_times.get(stage)
        if reported is not None and abs(reported - m[f"stage.{stage}_s"]) > 1e-6:
            problems.append(f"stage {stage}: window {m[f'stage.{stage}_s']} s, "
                            f"program reported {reported} s")
    m["trace.spans"] = len(a.spans)
    return m, problems
