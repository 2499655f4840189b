"""Command-line interface.

Each stage runs standalone against the documented file formats, and
`run` chains them end to end under one master seed. Exit code 0 on
success; failures print a stage-named diagnostic and exit nonzero.
"""

import argparse
import sys
from pathlib import Path

from . import explain, fpca, mlp, pipeline
from ._config import _override
from ._version import __version__
from .dataio import (_in_file, read_dataset, read_json, read_scores,
                     write_dataset, write_scores)
from .sim import SimParams, TimeGrid, generate_dataset

# `train` flags that override fields of the run's network for --target
_NETWORK_FIELDS = ("hidden_sizes", "learning_rate", "batch_size",
                   "max_epochs", "patience", "val_fraction")


def _cmd_simulate(args) -> int:
    params = SimParams()
    if args.params:
        path = Path(args.params)
        meta = read_json(path)
        with _in_file(path):
            params = SimParams.from_dict(meta)
    grid = TimeGrid(args.grid_count, args.grid_start, args.grid_stop)
    dataset = generate_dataset(args.n, params, args.seed, grid)
    write_dataset(dataset, Path(args.out))
    print(f"wrote {dataset.n} signatures to {args.out}")
    return 0


def _cmd_split(args) -> int:
    dataset = read_dataset(Path(args.data))
    outdir = Path(args.outdir)
    splits = pipeline.write_splits(dataset, tuple(args.ratios), args.seed,
                                   outdir)
    for name, ds in splits.items():
        print(f"{name}: {ds.n} signatures -> {outdir / f'{name}.csv'}")
    return 0


def _cmd_fpca(args) -> int:
    train = read_dataset(Path(args.train))
    outdir = Path(args.outdir)
    model = pipeline.fit_fpca(train, outdir, outdir / "variance_explained.csv")
    fractions, _ = fpca.variance_explained(model)
    print(f"fit {model.n_components} components from {train.n} signatures; "
          f"first explains {fractions[0]:.4f}")
    return 0


def _cmd_transform(args) -> int:
    model = fpca.load_model(Path(args.model))
    data = Path(args.data)
    dataset = read_dataset(data)
    with _in_file(data):
        scores = fpca.transform(model, dataset)
    write_scores(Path(args.out), scores, dataset.labels)
    print(f"wrote {scores.shape[0]}x{scores.shape[1]} scores to {args.out}")
    return 0


def _cmd_train(args) -> int:
    scores, labels = read_scores(Path(args.scores))
    config = _override(
        pipeline.RunConfig().mlp_configs[args.target],
        {f: getattr(args, f) for f in _NETWORK_FIELDS if f in args},
        f"{args.target} network")
    model = pipeline.train_network(scores, labels, args.target, config,
                                   args.seed, args.outdir)
    print(f"trained {args.target} network for {model.log.epochs_run} epochs "
          f"(best epoch {model.log.best_epoch}, stopped by "
          f"{model.log.stop_reason}) -> {args.outdir}")
    return 0


def _cmd_pfi(args) -> int:
    model = mlp.load_mlp(Path(args.model))
    scores, labels = read_scores(Path(args.scores))
    report = pipeline.compute_pfi(model, scores, labels, args.target,
                                  args.replications, args.seed, args.outdir)
    ranking = explain.rank_features(report)
    print(f"{args.target} top components: "
          + ", ".join(str(v) for v in ranking[:5]))
    return 0


def _cmd_figures(args) -> int:
    rundir = Path(args.run)
    config = pipeline.load_run_config(rundir / "config.json")
    dataset = read_dataset(rundir / "data" / "dataset.csv")
    train_ds = read_dataset(rundir / "data" / "train.csv")
    model = fpca.load_model(rundir / "fpca")
    eval_scores, eval_labels = read_scores(
        rundir / "scores" / f"{pipeline.EVAL_SPLIT}.csv")
    paths = pipeline.emit_figures(config, rundir, dataset, train_ds, model,
                                  eval_scores, eval_labels)
    print(f"emitted {len(paths) // 2} figures to {rundir / 'figures'}")
    return 0


def _cmd_report(args) -> int:
    rundir = Path(args.run)
    config = pipeline.load_run_config(rundir / "config.json")
    model = fpca.load_model(rundir / "fpca")
    metric_summary = read_json(rundir / "tables" / "metrics.json",
                               pipeline.METRICS_KINDS)
    training = {t: mlp.load_mlp(rundir / "models" / t).log
                for t in pipeline.TARGETS}
    pfi_reports = {t: explain.load_pfi(rundir / "pfi", t)
                   for t in pipeline.TARGETS}
    pipeline.write_report(rundir, config, model, metric_summary, training,
                          pfi_reports)
    deviations = read_json(rundir / "report.json")["deviations"]
    status = "no deviations" if not deviations else (
        "DEVIATIONS: " + ", ".join(deviations))
    print(f"wrote {rundir / 'report.md'} ({status})")
    return 0


def _cmd_run(args) -> int:
    config = (pipeline.load_run_config(Path(args.config)) if args.config
              else pipeline.RunConfig())
    config = _override(config, {
        f: getattr(args, f) for f in ("n", "seed", "grid_count", "outdir")
        if f in args}, "config")
    manifest = pipeline.run_pipeline(config)
    report = read_json(Path(config.outdir) / "report.json")
    print(f"run complete: {Path(config.outdir) / 'manifest.json'} "
          f"({manifest.realized_width} components)")
    if report["deviations"]:
        print("ranking deviations: " + ", ".join(report["deviations"]),
              file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdexplain",
        description="Simulate signatures, decompose them into functional "
                    "principal components, train score-based networks, and "
                    "explain them with permutation importance.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = pipeline.RunConfig()
    unset = argparse.SUPPRESS  # an absent flag leaves no attribute in args

    p = sub.add_parser("simulate", help="generate a synthetic dataset CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--grid-count", type=int, default=defaults.grid_count)
    p.add_argument("--grid-start", type=float, default=defaults.grid_start)
    p.add_argument("--grid-stop", type=float, default=defaults.grid_stop)
    p.add_argument("--params", help="JSON file of simulator parameters")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("split", help="partition a dataset into "
                                     "train/test/validation CSVs")
    p.add_argument("--data", required=True)
    p.add_argument("--ratios", type=float, nargs=3,
                   default=list(defaults.ratios))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", required=True)
    p.set_defaults(fn=_cmd_split)

    p = sub.add_parser("fpca", help="fit the component model on a "
                                    "training CSV")
    p.add_argument("--train", required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(fn=_cmd_fpca)

    p = sub.add_parser("transform", help="project a dataset onto a fitted "
                                         "component model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("train", help="train one network on a scores CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--target", choices=pipeline.TARGETS, required=True)
    # absent network flags keep the run's network for --target
    p.add_argument("--hidden", dest="hidden_sizes", type=int, nargs="+",
                   default=unset)
    p.add_argument("--learning-rate", type=float, default=unset)
    p.add_argument("--batch-size", type=int, default=unset)
    p.add_argument("--max-epochs", type=int, default=unset)
    p.add_argument("--patience", type=int, default=unset)
    p.add_argument("--val-fraction", type=float, default=unset)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("pfi", help="permutation importance of a trained "
                                   "network")
    p.add_argument("--model", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--target", choices=pipeline.TARGETS, required=True)
    p.add_argument("--replications", type=int,
                   default=defaults.pfi_replications)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", required=True)
    p.set_defaults(fn=_cmd_pfi)

    p = sub.add_parser("figures", help="render the configured figures for "
                                       "a completed run directory")
    p.add_argument("--run", required=True)
    p.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("report", help="rebuild report.md/report.json for a "
                                      "completed run directory")
    p.add_argument("--run", required=True)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("run", help="execute the full pipeline")
    p.add_argument("--config", help="JSON run configuration")
    # given flags override --config, absent ones keep its values
    p.add_argument("--n", type=int, default=unset,
                   help=f"default {defaults.n}")
    p.add_argument("--seed", type=int, default=unset,
                   help=f"default {defaults.seed}")
    p.add_argument("--grid-count", type=int, default=unset,
                   help=f"default {defaults.grid_count}")
    p.add_argument("--outdir", default=unset,
                   help=f"default {defaults.outdir}")
    p.set_defaults(fn=_cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, OverflowError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
