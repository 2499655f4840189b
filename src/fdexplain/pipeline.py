"""End-to-end run orchestration.

A run executes simulate -> split -> component fit -> score transform ->
train three networks -> metrics -> permutation importance -> figures ->
report, all derived from one master seed, and records a manifest that
pins the materialized configuration, per-stage seeds and artifact paths.
The stage bodies that hold logic (`write_splits`, `fit_fpca`,
`train_network`, `compute_pfi`) are shared with the CLI subcommands, so
a subcommand fed a run's stage seed writes the run's bytes.
Re-running the same configuration into a clean directory reproduces
every artifact byte for byte; manifest timings are the only varying
fields.
"""

import dataclasses
import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import explain, fpca, metrics, mlp, viz
from ._config import _float_fields, _override
from ._version import __version__
from .dataio import (_in_file, _write_lines, read_json, write_dataset,
                     write_json, write_scores, write_table_csv)
from .errors import PipelineError
from .seeding import stage_seed
from .sim import GROUPINGS, Dataset, SimParams, TimeGrid, generate_dataset

SCHEMA_VERSION = 1

TARGETS = ("y1", "y2", "y3")
TARGET_TASK = {"y1": "classification", "y2": "classification",
               "y3": "regression"}

DEFAULT_RATIOS = (0.7225, 0.15, 0.1275)
SPLIT_NAMES = ("train", "test", "validation")
# the held-out split that PFI and the score figures evaluate
EVAL_SPLIT = "test"
# the shape of `tables/metrics.json`, as `evaluate_models` writes it
METRICS_KINDS = {t: dict.fromkeys(SPLIT_NAMES, {
    "accuracy": 0.0, "f1": 0.0, "f1_degenerate": False}
    if task == "classification" else {"mse": 0.0, "r2": 0.0})
    for t, task in TARGET_TASK.items()}

DEFAULT_FIGURES = (
    "heatmap",
    "groups:by-y1", "groups:by-y2", "groups:by-y3-quartile",
    "eigenfunction:1", "eigenfunction:2", "eigenfunction:3",
    "mean-pm:1", "mean-pm:2", "mean-pm:3",
    "bundles:1", "bundles:2",
    "scatter:1,2:y1", "scatter:1,3:y2", "scatter:2:y3",
)

# config JSON sections: key `k` of section `s` holds RunConfig field `s_k`
_SECTIONS = {"grid": tuple(f.name for f in dataclasses.fields(TimeGrid)),
             "pfi": ("replications",)}

# the expected component roles, check name -> (target, components, k): a
# check passes when every listed component ranks within the target's top k
ROLE_CHECKS = {
    "y1_top2_is_fpc_1_2": ("y1", (1, 2), 2),
    "y2_top2_contains_fpc_1": ("y2", (1,), 2),
    "y2_top3_contains_fpc_3": ("y2", (3,), 3),
    "y3_top1_is_fpc_2": ("y3", (2,), 1),
}
NEGLIGIBLE_INDEX = 10
NEGLIGIBLE_FRACTION = 0.05


def _default_mlp_configs() -> dict:
    # Raw scores keep the sqrt-eigenvalue scale, which already orders the
    # inputs by signal content; standardizing would blow the ~990 noise
    # columns up to unit variance and swamp training at this width.
    return {t: mlp.MlpConfig(task=TARGET_TASK[t], standardize=False)
            for t in TARGETS}


@dataclass
class RunConfig:
    """Materialized run settings; serializes to versioned JSON.

    Network training seeds and permutation seeds are derived from
    `seed` (the master seed) and the stage name, so one integer pins the
    whole run. The per-network `MlpConfig.seed` field acts as an extra
    key mixed into that derivation.
    """
    n: int = 2000
    grid_count: int = TimeGrid.count
    grid_start: float = TimeGrid.start
    grid_stop: float = TimeGrid.stop
    sim: SimParams = field(default_factory=SimParams)
    ratios: tuple = DEFAULT_RATIOS
    seed: int = 42
    mlp_configs: dict = field(default_factory=_default_mlp_configs)
    pfi_replications: int = explain.DEFAULT_REPLICATIONS
    figures: tuple = DEFAULT_FIGURES
    outdir: str = "run"

    def __post_init__(self):
        _float_fields(self)
        self.grid  # refuses a grid that `TimeGrid` refuses
        self.ratios = _checked_ratios(self.ratios)
        n_train = split_sizes(self.n, self.ratios)[0]
        self.figures = tuple(self.figures)
        # refuses a figure list the run cannot finish
        if "bundles" in [_parse_figure(entry)[0] for entry in self.figures]:
            viz._check_bundle_size(n_train, viz.DEFAULT_BUNDLE_SIZE)
        if set(self.mlp_configs) != set(TARGETS):
            raise ValueError(f"mlp_configs must cover exactly {TARGETS}")
        for t in TARGETS:
            if self.mlp_configs[t].task != TARGET_TASK[t]:
                raise ValueError(f"{t} network must have task "
                                 f"{TARGET_TASK[t]!r}")
        if self.pfi_replications < 1:
            raise ValueError("pfi_replications must be >= 1")

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.grid_count, self.grid_start, self.grid_stop)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["sim_params"], d["mlp"] = d.pop("sim"), d.pop("mlp_configs")
        for section, keys in _SECTIONS.items():
            d[section] = {k: d.pop(f"{section}_{k}") for k in keys}
        return {"schema_version": SCHEMA_VERSION, **d}

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """`RunConfig()` with the values a config JSON dict gives in place
        of its own, key by key at every level: a partial `mlp.<target>`
        entry overrides fields of the run's network for that target."""
        base = cls()
        layout = base.to_dict()
        d = _override(layout, d, "config")
        version = d.pop("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema_version {version}")
        d["sim"] = _override(base.sim, d.pop("sim_params"), "config.sim_params")
        d["mlp_configs"] = {
            t: _override(base.mlp_configs[t], c, f"config.mlp.{t}")
            for t, c in _override(layout["mlp"], d.pop("mlp"),
                                  "config.mlp").items()}
        for section, keys in _SECTIONS.items():
            given = _override(layout[section], d.pop(section),
                              f"config.{section}")
            d.update({f"{section}_{k}": given[k] for k in keys})
        return _override(base, d, "config")


def config_digest(config: RunConfig) -> str:
    """sha256 over the canonical config JSON, excluding the output
    directory (two runs into different directories are the same run)."""
    d = config.to_dict()
    d.pop("outdir")
    return hashlib.sha256(
        json.dumps(d, sort_keys=True).encode("utf-8")).hexdigest()


def _checked_ratios(ratios) -> tuple[float, float, float]:
    """`ratios` as floats, which must be three positive fractions that sum
    to 1 (NaN fails both checks)."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or not all(r > 0 for r in ratios):
        raise ValueError("ratios must be three positive fractions")
    if not abs(sum(ratios) - 1.0) <= 1e-12:
        raise ValueError("ratios must sum to 1 within 1e-12")
    return ratios


def split_sizes(n: int, ratios=DEFAULT_RATIOS) -> tuple[int, int, int]:
    """Train and test sizes round half away from zero; validation takes
    the remainder."""
    ratios = _checked_ratios(ratios)
    n_train = int(np.floor(ratios[0] * n + 0.5))
    n_test = int(np.floor(ratios[1] * n + 0.5))
    n_val = n - n_train - n_test
    if min(n_train, n_test, n_val) < 1:
        raise ValueError(f"split sizes {(n_train, n_test, n_val)} for n={n} "
                         "leave an empty split")
    return n_train, n_test, n_val


def split(dataset: Dataset, ratios=DEFAULT_RATIOS,
          seed: int = 0) -> tuple[Dataset, Dataset, Dataset]:
    """Partition into train/test/validation by a seeded uniform shuffle.

    Every index lands in exactly one split; rows keep their original
    dataset order within each split.
    """
    n_train, n_test, _ = split_sizes(dataset.n, ratios)
    perm = np.random.default_rng(np.random.SeedSequence(seed)).permutation(dataset.n)
    parts = (np.sort(perm[:n_train]),
             np.sort(perm[n_train:n_train + n_test]),
             np.sort(perm[n_train + n_test:]))
    out = []
    for name, idx in zip(SPLIT_NAMES, parts):
        ds = dataset.subset(idx)
        ds.provenance = dict(ds.provenance, split=name,
                             indices=[int(i) for i in idx])
        out.append(ds)
    return tuple(out)


@dataclass
class RunManifest:
    schema_version: int
    tool_version: str
    config: dict
    config_digest: str
    stage_seeds: dict
    realized_width: int | None
    artifacts: dict
    timings: dict
    completed_stages: list
    failed_stage: str | None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _target_vector(labels, target: str) -> np.ndarray:
    return np.asarray(getattr(labels, target), dtype=np.float64)


def evaluate_models(models: dict, scores: dict, splits: dict) -> dict:
    """Metric values per target and split.

    Classifiers report accuracy and F1 (with a degeneracy flag when no
    positives exist in predictions or actuals); the regressor reports
    mean squared error and R^2.
    """
    summary = {}
    for target, model in models.items():
        per_split = {}
        for name in SPLIT_NAMES:
            actual = _target_vector(splits[name].labels, target)
            if model.config.task == "classification":
                predicted = model.predict_labels(scores[name])
                value_f1, degenerate = metrics.f1_info(predicted, actual)
                per_split[name] = {
                    "accuracy": metrics.accuracy(predicted, actual),
                    "f1": value_f1,
                    "f1_degenerate": degenerate,
                }
            else:
                predicted = model.predict(scores[name])
                per_split[name] = {
                    "mse": metrics.mse(predicted, actual),
                    "r2": metrics.r2(predicted, actual),
                }
        summary[target] = per_split
    return summary


def ranking_checks(pfi_reports: dict) -> dict:
    """The component roles of ROLE_CHECKS (a target with fewer than k
    components fails its check), and every component beyond index 10
    negligible: mean importance magnitude under 5% of the target's peak."""
    ranks = {t: explain.rank_features(r) for t, r in pfi_reports.items()}
    checks = {name: bool(len(ranks[t]) >= k
                         and set(components) <= set(ranks[t][:k].tolist()))
              for name, (t, components, k) in ROLE_CHECKS.items()}
    tail_ok = True
    for report in pfi_reports.values():
        means = report.mean_importance
        peak = float(means.max())
        if peak <= 0:
            tail_ok = False
            break
        tail = np.abs(means[NEGLIGIBLE_INDEX:])
        if tail.size and float(tail.max()) >= NEGLIGIBLE_FRACTION * peak:
            tail_ok = False
            break
    checks["tail_importance_negligible"] = tail_ok
    return checks


def _figure_name(entry: str) -> str:
    return (entry.replace(":", "_").replace(",", "_")
            .replace("-", "_"))


def _parse_figure(entry: str) -> tuple[str, object]:
    """Head and argument of a figure-list entry (see `build_figure`): the
    grouping, the component, or the components and target of a scatter.
    A malformed entry, one naming component 0, or a scatter that
    `viz.score_scatter` cannot draw (more than two components, or a pair
    whose target is not binary) is a ValueError naming it."""
    head, _, rest = entry.partition(":")
    components, _, target = rest.partition(":")
    if head == "scatter" and target not in TARGETS:
        raise ValueError(f"unknown scatter target in figure {entry!r}")
    if entry == "heatmap" or (head == "groups" and rest in GROUPINGS):
        return head, rest
    components = components.split(",")
    if head in ("eigenfunction", "mean-pm", "bundles") and rest.isdecimal():
        numbers = [int(rest)]
    elif head == "scatter" and all(c.isdecimal() for c in components):
        numbers = [int(c) for c in components]
        if len(numbers) > 2:
            raise ValueError(f"figure {entry!r} names {len(numbers)} "
                             f"components; a scatter takes one or two")
        if len(numbers) == 2 and TARGET_TASK[target] != "classification":
            raise ValueError(f"figure {entry!r} pairs two components with "
                             f"the continuous target {target}; a pair needs "
                             f"a binary target")
    else:
        raise ValueError(f"unknown figure entry {entry!r}")
    if 0 in numbers:
        raise ValueError(f"figure {entry!r} names component 0; components "
                         f"count from 1")
    return head, (numbers, target) if head == "scatter" else numbers[0]


def _check_components(figures, width: int) -> None:
    """Refuse a figure entry that names a component beyond the `width`
    components of the fitted model, before any figure is drawn."""
    for entry in figures:
        head, arg = _parse_figure(entry)
        if head in ("heatmap", "groups"):
            continue
        component = max(arg[0]) if head == "scatter" else arg
        if component > width:
            raise ValueError(f"figure {entry!r} names component {component}; "
                             f"the model has {width} components")


def build_figure(entry: str, dataset: Dataset, train_ds: Dataset, model,
                 eval_scores: np.ndarray, eval_labels) -> viz.PlotSpec:
    """Construct the PlotSpec for one figure-list entry.

    Entries: `heatmap`, `groups:<grouping>`, `eigenfunction:<j>`,
    `mean-pm:<j>`, `bundles:<j>`, `scatter:<a>,<b>:<target>` (binary
    target) or `scatter:<a>:<target>` (continuous target).
    """
    head, arg = _parse_figure(entry)
    if head == "heatmap":
        return viz.correlation_heatmap(dataset)
    if head == "groups":
        return viz.group_means_plot(dataset, arg)
    if head == "eigenfunction":
        return viz.eigenfunction_plot(model, arg)
    if head == "mean-pm":
        return viz.mean_pm_eigenfunction(model, arg)
    if head == "bundles":
        return viz.extreme_score_bundles(model, train_ds, arg)
    components, target = arg
    return viz.score_scatter(eval_scores, _target_vector(eval_labels, target),
                             components, target_name=target)


def emit_figures(config: RunConfig, outdir: Path, dataset: Dataset,
                 train_ds: Dataset, model, eval_scores: np.ndarray,
                 eval_labels) -> dict:
    """Render every configured figure into `<outdir>/figures`, or none if
    an entry names a component the model does not have."""
    _check_components(config.figures, model.n_components)
    figdir = Path(outdir) / "figures"
    paths = {}
    for entry in config.figures:
        spec = build_figure(entry, dataset, train_ds, model, eval_scores,
                            eval_labels)
        name = _figure_name(entry)
        svg_path, csv_path = viz.save_figure(spec, figdir, name)
        paths[f"figure_{name}_svg"] = str(svg_path.relative_to(outdir))
        paths[f"figure_{name}_csv"] = str(csv_path.relative_to(outdir))
    return paths


def write_report(outdir: Path, config: RunConfig, model, metric_summary: dict,
                 training: dict, pfi_reports: dict) -> dict:
    """Write report.json and report.md; returns artifact paths.

    The report states the realized score width (component count is capped
    by the training-set rank), per-split metrics, how long each network
    trained and why it stopped (`training`, target -> TrainingLog),
    importance rankings with the mean and standard deviation over the
    shuffles, and the qualitative ranking checks with any deviations
    flagged.
    """
    outdir = Path(outdir)
    fractions, cumulative = fpca.variance_explained(model)
    checks = ranking_checks(pfi_reports)
    deviations = [name for name, ok in checks.items() if not ok]
    rankings = {t: [int(v) for v in explain.rank_features(r)]
                for t, r in pfi_reports.items()}
    top10 = {t: rankings[t][:10] for t in TARGETS}
    report = {
        "schema_version": SCHEMA_VERSION,
        "config_digest": config_digest(config),
        "n": config.n,
        "split_sizes": dict(zip(SPLIT_NAMES, split_sizes(config.n,
                                                         config.ratios))),
        "realized_width": model.n_components,
        "grid_count": config.grid_count,
        "variance_explained": {
            "first": float(fractions[0]),
            "top3_cumulative": float(cumulative[min(2, len(cumulative) - 1)]),
            "fractions_top10": [float(v) for v in fractions[:10]],
        },
        "metrics": metric_summary,
        "training": {
            t: {"epochs_run": training[t].epochs_run,
                "best_epoch": training[t].best_epoch,
                "stop_reason": training[t].stop_reason}
            for t in TARGETS
        },
        "pfi": {
            t: {
                "ranking_top10": top10[t],
                "baseline_loss": pfi_reports[t].baseline_loss,
                "mean_importance_top10": pfi_reports[t].mean_importance[
                    np.subtract(top10[t], 1)].tolist(),
                "sd_importance_top10": pfi_reports[t].sd_importance[
                    np.subtract(top10[t], 1)].tolist(),
            } for t in TARGETS
        },
        "ranking_checks": checks,
        "deviations": deviations,
    }
    write_json(outdir / "report.json", report)

    sizes, variance = report["split_sizes"], report["variance_explained"]
    lines = [
        "# Run report", "",
        f"- signatures: {report['n']} on {report['grid_count']} grid points",
        f"- master seed: {config.seed}",
        f"- split sizes: train {sizes['train']}, test {sizes['test']}, "
        f"validation {sizes['validation']}",
        f"- realized score width: {report['realized_width']} components "
        "(capped by training-set rank)", "",
        "## Variance explained", "",
        f"- first component: {variance['first']:.4f}",
        f"- first three cumulative: {variance['top3_cumulative']:.4f}", "",
        "## Model quality", "",
        "| target | split | accuracy | f1 | mse | r2 |",
        "|---|---|---|---|---|---|",
    ]
    for target in TARGETS:
        for name in SPLIT_NAMES:
            row = report["metrics"][target][name]
            lines.append(f"| {target} | {name} | " + " | ".join(
                f"{row[k]:.4f}" if k in row else "-"
                for k in ("accuracy", "f1", "mse", "r2")) + " |")
    lines += ["", "## Training", "",
              "| target | epochs run | best epoch | stop reason |",
              "|---|---|---|---|"]
    lines += [f"| {t} | {row['epochs_run']} | {row['best_epoch']} | "
              f"{row['stop_reason']} |"
              for t, row in report["training"].items()]
    lines += ["", "## Importance rankings (top 10, mean ± sd over the "
              "shuffles)", ""]
    for t in TARGETS:
        pfi = report["pfi"][t]
        lines.append(f"- {t}: " + ", ".join(
            f"{j} ({mean:.4g} ± {sd:.4g})" for j, mean, sd in zip(
                pfi["ranking_top10"], pfi["mean_importance_top10"],
                pfi["sd_importance_top10"])))
    lines += ["", "## Ranking checks", ""]
    lines += [f"- {name}: {'pass' if ok else 'DEVIATION'}"
              for name, ok in report["ranking_checks"].items()]
    if report["deviations"]:
        lines += ["", "Deviations from the expected component-role mapping "
                  "were detected; see ranking_checks in report.json."]
    _write_lines(outdir / "report.md", lines)
    return {"report_json": "report.json", "report_md": "report.md"}


def write_splits(dataset: Dataset, ratios, seed: int, outdir: Path) -> dict:
    """Split `dataset` and write `<outdir>/{train,test,validation}.csv`;
    returns the splits by name."""
    splits = dict(zip(SPLIT_NAMES, split(dataset, ratios, seed)))
    for name, ds in splits.items():
        write_dataset(ds, Path(outdir) / f"{name}.csv")
    return splits


def fit_fpca(train: Dataset, outdir: Path, table_path: Path) -> fpca.FpcaModel:
    """Fit the component model on `train`, save it into `outdir` and write
    its variance-explained table to `table_path`."""
    model = fpca.fit(train)
    fpca.save_model(model, Path(outdir))
    fractions, cumulative = fpca.variance_explained(model)
    rows = np.column_stack([
        np.arange(1, model.n_components + 1, dtype=np.float64),
        model.eigenvalues, fractions, cumulative,
    ])
    write_table_csv(Path(table_path),
                    ["component", "eigenvalue", "fraction", "cumulative"], rows)
    return model


def train_network(scores: np.ndarray, labels, target: str,
                  config: mlp.MlpConfig, seed: int, outdir: Path) -> mlp.Mlp:
    """Train the `target` network of `config` under training seed `seed`
    and save it into `outdir`."""
    model = mlp.train(scores, _target_vector(labels, target),
                      dataclasses.replace(config, seed=seed))
    mlp.save_mlp(model, Path(outdir))
    return model


def compute_pfi(model: mlp.Mlp, scores: np.ndarray, labels, target: str,
                replications: int, seed: int,
                outdir: Path) -> explain.PfiReport:
    """Permutation importance of the `target` network on `scores`, under
    the loss of the network's task, saved as
    `<outdir>/<target>_pfi.{csv,json}`."""
    if model.config.task != TARGET_TASK[target]:
        raise ValueError(f"{target} needs a {TARGET_TASK[target]} network, "
                         f"got a {model.config.task} network")
    report = explain.permutation_importance(
        model, scores, _target_vector(labels, target),
        "zero_one" if model.config.task == "classification" else "squared",
        replications, seed)
    explain.save_pfi(report, Path(outdir), target)
    return report


def run_pipeline(config: RunConfig) -> RunManifest:
    """Execute the full pipeline into `config.outdir`.

    Any stage failure writes a manifest flagging the failed stage and the
    artifacts completed so far, then raises PipelineError naming the
    stage.
    """
    outdir = Path(config.outdir)
    write_json(outdir / "config.json", config.to_dict())
    run = RunManifest(schema_version=SCHEMA_VERSION, tool_version=__version__,
                      config=config.to_dict(),
                      config_digest=config_digest(config), stage_seeds={},
                      realized_width=None, artifacts={"config": "config.json"},
                      timings={}, completed_stages=[], failed_stage=None)
    artifacts, seeds = run.artifacts, run.stage_seeds

    @contextmanager
    def _stage(name: str):
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:
            run.failed_stage = name
            write_json(outdir / "manifest.json", run.to_dict())
            raise PipelineError(name, exc) from exc
        run.timings[name] = time.perf_counter() - start
        run.completed_stages.append(name)

    with _stage("simulate"):
        seeds["simulate"] = stage_seed(config.seed, "simulate")
        dataset = generate_dataset(config.n, config.sim, seeds["simulate"],
                                   config.grid)
        write_dataset(dataset, outdir / "data" / "dataset.csv")
        artifacts["dataset"] = "data/dataset.csv"

    with _stage("split"):
        seeds["split"] = stage_seed(config.seed, "split")
        splits = write_splits(dataset, config.ratios, seeds["split"],
                              outdir / "data")
        artifacts.update({f"split_{name}": f"data/{name}.csv"
                          for name in SPLIT_NAMES})

    with _stage("fpca"):
        model = fit_fpca(splits["train"], outdir / "fpca",
                         outdir / "tables" / "variance_explained.csv")
        run.realized_width = model.n_components
        artifacts["fpca_model"] = "fpca/fpca.json"
        artifacts["variance_explained"] = "tables/variance_explained.csv"
        # the realized width is known from here on: fail before training
        _check_components(config.figures, model.n_components)

    with _stage("transform"):
        scores = {}
        for name, ds in splits.items():
            scores[name] = fpca.transform(model, ds)
            write_scores(outdir / "scores" / f"{name}.csv", scores[name],
                         ds.labels)
            artifacts[f"scores_{name}"] = f"scores/{name}.csv"

    with _stage("train"):
        mlps = {}
        for target in TARGETS:
            base = config.mlp_configs[target]
            seed = stage_seed(config.seed, f"train-{target}:{base.seed}")
            seeds[f"train-{target}"] = seed
            mlps[target] = train_network(scores["train"],
                                         splits["train"].labels, target, base,
                                         seed, outdir / "models" / target)
            artifacts[f"mlp_{target}"] = f"models/{target}/mlp.json"

    with _stage("metrics"):
        summary = evaluate_models(mlps, scores, splits)
        write_json(outdir / "tables" / "metrics.json", summary)
        artifacts["metrics_json"] = "tables/metrics.json"

    with _stage("pfi"):
        pfi = {}
        for target in TARGETS:
            seed = stage_seed(config.seed, f"pfi-{target}")
            seeds[f"pfi-{target}"] = seed
            pfi[target] = compute_pfi(mlps[target], scores[EVAL_SPLIT],
                                      splits[EVAL_SPLIT].labels, target,
                                      config.pfi_replications, seed,
                                      outdir / "pfi")
            artifacts[f"pfi_{target}"] = f"pfi/{target}_pfi.csv"

    with _stage("report"):
        artifacts.update(write_report(
            outdir, config, model, summary,
            {t: m.log for t, m in mlps.items()}, pfi))

    with _stage("figures"):
        artifacts.update(emit_figures(config, outdir, dataset,
                                      splits["train"], model,
                                      scores[EVAL_SPLIT],
                                      splits[EVAL_SPLIT].labels))

    write_json(outdir / "manifest.json", run.to_dict())
    return run


def load_run_config(path: Path) -> RunConfig:
    meta = read_json(Path(path))
    with _in_file(path):
        return RunConfig.from_dict(meta)
