"""Command-line interface.

Each stage runs standalone against the documented file formats, and
`run` chains them end to end under one master seed. Exit code 0 on
success; failures print a stage-named diagnostic and exit nonzero.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import explain, fpca, mlp, pipeline
from ._version import __version__
from .dataio import (read_dataset, read_json, read_scores, write_dataset,
                     write_scores, write_table_csv)
from .sim import SimParams, default_grid, generate_dataset


def _cmd_simulate(args) -> int:
    params = SimParams()
    if args.params:
        params = SimParams.from_dict(read_json(Path(args.params)))
    grid = default_grid(args.grid_count, args.grid_start, args.grid_stop)
    dataset = generate_dataset(args.n, params, args.seed, grid)
    write_dataset(dataset, Path(args.out))
    print(f"wrote {dataset.n} signatures to {args.out}")
    return 0


def _cmd_split(args) -> int:
    dataset = read_dataset(Path(args.data))
    parts = pipeline.split(dataset, tuple(args.ratios), args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, ds in zip(pipeline.SPLIT_NAMES, parts):
        write_dataset(ds, outdir / f"{name}.csv")
        print(f"{name}: {ds.n} signatures -> {outdir / f'{name}.csv'}")
    return 0


def _cmd_fpca(args) -> int:
    train = read_dataset(Path(args.train))
    model = fpca.fit(train)
    fpca.save_model(model, Path(args.outdir))
    fractions, cumulative = fpca.variance_explained(model)
    rows = np.column_stack([
        np.arange(1, model.n_components + 1, dtype=np.float64),
        model.eigenvalues, fractions, cumulative,
    ])
    write_table_csv(Path(args.outdir) / "variance_explained.csv",
                    ["component", "eigenvalue", "fraction", "cumulative"],
                    rows)
    print(f"fit {model.n_components} components from {train.n} signatures; "
          f"first explains {fractions[0]:.4f}")
    return 0


def _cmd_transform(args) -> int:
    model = fpca.load_model(Path(args.model))
    dataset = read_dataset(Path(args.data))
    scores = fpca.transform(model, dataset)
    write_scores(Path(args.out), scores, dataset.labels)
    print(f"wrote {scores.shape[0]}x{scores.shape[1]} scores to {args.out}")
    return 0


def _cmd_train(args) -> int:
    scores, labels = read_scores(Path(args.scores))
    config = mlp.MlpConfig(hidden_sizes=tuple(args.hidden),
                           task=pipeline.TARGET_TASK[args.target],
                           learning_rate=args.learning_rate,
                           batch_size=args.batch_size,
                           max_epochs=args.max_epochs,
                           patience=args.patience,
                           val_fraction=args.val_fraction,
                           seed=args.seed)
    targets = np.asarray(getattr(labels, args.target), dtype=np.float64)
    model = mlp.train(scores, targets, config)
    mlp.save_mlp(model, Path(args.outdir))
    print(f"trained {args.target} network for {model.log.epochs_run} epochs "
          f"(best epoch {model.log.best_epoch}) -> {args.outdir}")
    return 0


def _cmd_pfi(args) -> int:
    model = mlp.load_mlp(Path(args.model))
    scores, labels = read_scores(Path(args.scores))
    targets = np.asarray(getattr(labels, args.target), dtype=np.float64)
    report = explain.permutation_importance(
        model.predict, scores, targets, pipeline.TARGET_LOSS[args.target],
        args.replications, args.seed)
    explain.save_pfi(report, Path(args.outdir), args.target)
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
        rundir / "scores" / f"{config.pfi_split}.csv")
    paths = pipeline.emit_figures(config, rundir, dataset, train_ds, model,
                                  eval_scores, eval_labels)
    print(f"emitted {len(paths) // 2} figures to {rundir / 'figures'}")
    return 0


def _cmd_report(args) -> int:
    rundir = Path(args.run)
    config = pipeline.load_run_config(rundir / "config.json")
    model = fpca.load_model(rundir / "fpca")
    metric_summary = read_json(rundir / "tables" / "metrics.json")
    pfi_reports = {t: explain.load_pfi(rundir / "pfi", t)
                   for t in pipeline.TARGETS}
    pipeline.write_report(rundir, config, model, metric_summary, pfi_reports)
    deviations = read_json(rundir / "report.json")["deviations"]
    status = "no deviations" if not deviations else (
        "DEVIATIONS: " + ", ".join(deviations))
    print(f"wrote {rundir / 'report.md'} ({status})")
    return 0


def _cmd_run(args) -> int:
    if args.config:
        config = pipeline.load_run_config(Path(args.config))
        if args.outdir:
            config.outdir = args.outdir
    else:
        config = pipeline.RunConfig(n=args.n, seed=args.seed,
                                    grid_count=args.grid_count,
                                    outdir=args.outdir or "run")
    manifest = pipeline.run_pipeline(config)
    report = read_json(Path(config.outdir) / "report.json")
    print(f"run complete: {Path(config.outdir) / 'manifest.json'} "
          f"(backend {manifest.backend}, "
          f"{manifest.realized_width} components)")
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

    p = sub.add_parser("simulate", help="generate a synthetic dataset CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--grid-count", type=int, default=1000)
    p.add_argument("--grid-start", type=float, default=-4.0)
    p.add_argument("--grid-stop", type=float, default=0.0)
    p.add_argument("--params", help="JSON file of simulator parameters")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("split", help="partition a dataset into "
                                     "train/test/validation CSVs")
    p.add_argument("--data", required=True)
    p.add_argument("--ratios", type=float, nargs=3,
                   default=list(pipeline.DEFAULT_RATIOS))
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
    p.add_argument("--hidden", type=int, nargs="+", default=[50, 40, 30])
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--max-epochs", type=int, default=500)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("pfi", help="permutation importance of a trained "
                                   "network")
    p.add_argument("--model", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--target", choices=pipeline.TARGETS, required=True)
    p.add_argument("--replications", type=int,
                   default=explain.DEFAULT_REPLICATIONS)
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
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--grid-count", type=int, default=1000)
    p.add_argument("--outdir")
    p.set_defaults(fn=_cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
