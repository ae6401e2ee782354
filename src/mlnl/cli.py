"""Command-line entry point.

Staged subcommands operate on a run directory (--out): gen-data writes the
split dataset files and resolved.cfg, whose settings the later stages run
with; inject-noise corrupts the silver split, train-silver and train-gold
produce checkpoints and metrics, estimate writes the corruption matrix CSVs.
Each first checks its arguments, then removes its own and every later
stage's files (harness.RUN_FILES); gen-data removes an earlier gen-data's too.
sweep and ablate orchestrate full experiment grids, and plot redraws a
sweep's SVG plots from the files in its directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import datagen, harness, noise, textio
from .harness import CONFIG_KEYS, ExperimentConfig, parse_config
from .metrics import evaluate
# `train` is not called here; it stays bound in this module because
# perfbench/test_tracer.py checks that the tracer wraps every binding of it.
from .model import MlpModel, forward, load_model, train  # noqa: F401


def _load_config(args) -> ExperimentConfig:
    """--config, or the defaults, with --seed and --out applied. The stages
    after gen-data run with the settings in the run directory's resolved.cfg
    instead, and reject a --config or --seed that differs from them on any
    key but out."""
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    overrides = {name: getattr(args, name) for name in ("seed", "out")
                 if getattr(args, name) is not None}
    cfg = dataclasses.replace(cfg, **overrides)
    if args.command not in ("inject-noise", "train-silver", "estimate", "train-gold"):
        return cfg
    path = Path(cfg.out) / "resolved.cfg"
    ran = parse_config(path)
    for key in CONFIG_KEYS:
        flag = "--seed" if key.name == "seed" and args.seed is not None else "--config"
        if (args.config or flag == "--seed") and key.name != "out" and key.get(cfg) != key.get(ran):
            raise ValueError(f"{flag} gives {key.name} = {key.get(cfg)!r}, "
                             f"but {path} has {key.get(ran)!r}")
    return dataclasses.replace(ran, out=cfg.out)


def _check_shapes(paths, inputs) -> None:
    """Check that the datasets, checkpoints and matrices a subcommand read
    from `paths` agree on the numbers of features and classes. `inputs`
    holds what was read from each path: a Dataset, an MlpModel, a
    CorruptionMatrix, which has only a number of classes and so must not
    come first, or None for a file the subcommand did not need. A
    ValueError names the first input and the first that disagrees with it."""
    def shape(obj):
        if isinstance(obj, MlpModel):
            return "takes", obj.weights[0].shape[1], obj.weights[-1].shape[0]
        if isinstance(obj, noise.CorruptionMatrix):
            return "has", None, obj.k
        return "has", obj.num_features, obj.num_classes

    (first, ref), *others = [(path, obj) for path, obj in zip(paths, inputs) if obj is not None]
    verb, d, k = shape(ref)
    for path, obj in others:
        _, d2, k2 = shape(obj)
        if k2 != k or d2 not in (d, None):
            has = f"{k2} classes" if d2 is None else f"{d2} and {k2}"
            raise ValueError(f"{first} {verb} {d} features and {k} classes, "
                             f"but {path} has {has}")


def _cmd_gen_data(args, cfg: ExperimentConfig) -> int:
    data = harness.prepare_data(cfg)  # a config that cannot be prepared changes nothing
    datasets = {"dataset_full.mlnl": data.full, "test.mlnl": data.test, "gold.mlnl": data.gold,
                "silver_clean.mlnl": data.silver_clean, "singles_pool.mlnl": data.singles_pool}
    # the later stages would read an earlier run's files beside this run's
    # data, or, if a write fails, beside part of it
    harness.clear_files(cfg.out, ("resolved.cfg", *datasets, *harness.RUN_FILES))
    out = harness.run_dir(cfg, cfg.out)
    for name, dataset in datasets.items():
        datagen.write_dataset(dataset, out / name)
    print(f"generated N={data.full.n} K={data.full.num_classes} "
          f"gold={data.gold.n} silver={data.silver_clean.n} "
          f"singles_pool={data.singles_pool.n} test={data.test.n} -> {out}")
    return 0


def _cmd_inject_noise(args, cfg: ExperimentConfig) -> int:
    out = Path(cfg.out)
    eta = args.eta if args.eta is not None else cfg.etas[0]
    silver = datagen.read_dataset(out / "silver_clean.mlnl")
    noisy, log, _ = harness.inject_noise(cfg, out, silver, eta)
    datagen.write_dataset(noisy, out / "silver_noisy.mlnl")
    emp, _ = noise.empirical_matrix(silver, noisy)
    noise.write_matrix(emp, out / "empirical_matrix.csv")
    textio.write_lines(out / "flips.csv",
                       ["sample,from,to", *(f"{i},{a},{b}" for i, a, b in log.flips)])
    print(f"injected eta={eta!r}: {len(log)} flips over {silver.n} samples -> {out}")
    return 0


def _cmd_train_silver(args, cfg: ExperimentConfig) -> int:
    out = Path(cfg.out)
    paths = out / "silver_noisy.mlnl", out / "test.mlnl"
    noisy, test = (datagen.read_dataset(p) for p in paths)
    _check_shapes(paths, (noisy, test))
    _, hist = harness.train_silver(cfg, out, noisy, test)
    print(f"silver model: {cfg.silver.epochs} epochs, final mAP={hist[-1].report.map:.4f} -> {out}")
    return 0


def _cmd_estimate(args, cfg: ExperimentConfig) -> int:
    out = Path(cfg.out)
    method = "true_matrix" if args.method == "true" else args.method.replace("-", "_")
    true_c = f = pool = noisy = None
    if method == "true_matrix":
        true_c = noise.read_matrix(out / "true_matrix.csv")
    else:
        f = load_model(out / "silver_model.mlpm")
    gold = datagen.read_dataset(out / "gold.mlnl")
    if method == "galc_slr":
        pool = datagen.read_dataset(out / "singles_pool.mlnl")
        if cfg.estimation_set == "silver":
            noisy = datagen.read_dataset(out / "silver_noisy.mlnl")
    names = ("silver_model.mlpm", "gold.mlnl", "singles_pool.mlnl", "silver_noisy.mlnl",
             "true_matrix.csv")
    _check_shapes([out / name for name in names], (f, gold, pool, noisy, true_c))
    _, report = harness.estimate_correction(cfg, out, method, true_c, gold, f, pool, noisy)
    if report is None:
        print(f"true matrix for eta={true_c.eta!r} -> {out / 'chat.csv'}")
    else:
        print(f"{method} estimate ({cfg.correction_form}) -> {out / 'chat.csv'} "
              f"(fallback classes: {report.fallback_classes or 'none'})")
    return 0


def _cmd_train_gold(args, cfg: ExperimentConfig) -> int:
    out = Path(cfg.out)
    paths = out / "gold.mlnl", out / "silver_noisy.mlnl", out / "test.mlnl"
    gold, noisy, test = (datagen.read_dataset(p) for p in paths)
    corr = None if args.correction == "none" else noise.read_matrix(args.correction)
    _check_shapes((*paths, args.correction), (gold, noisy, test, corr))
    _, hist = harness.train_gold(cfg, out, gold, noisy, corr, test)
    print(f"gold model (correction={args.correction}): final mAP={hist[-1].report.map:.4f} -> {out}")
    return 0


def _cmd_evaluate(args, cfg: ExperimentConfig) -> int:
    model, ds = load_model(args.model), datagen.read_dataset(args.data)
    _check_shapes((args.model, args.data), (model, ds))
    report = evaluate(forward(model, ds.features).p_sig, ds.labels)
    print(f"map={report.map!r} cf1={report.cf1!r} of1={report.of1!r}")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    textio.write_lines(out / "eval.csv",
                       ["map,cf1,of1", f"{report.map!r},{report.cf1!r},{report.of1!r}"])
    return 0


def _report_grid(kind: str, records, cells: int, table: Path) -> int:
    """Print each finished cell of a sweep or ablation grid and where its
    table went; a failed cell is counted on stderr and makes the exit code 1."""
    for rec in records:
        print(f"{rec.method:12s} eta={rec.eta!r} mAP={rec.final.map:.4f} "
              f"({rec.wall_seconds:.1f}s)")
    print(f"{table.stem} -> {table}")
    if len(records) < cells:
        print(f"error: {cells - len(records)} of {cells} {kind} cells failed; "
              f"see {table.parent / 'failures.log'}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args, cfg: ExperimentConfig) -> int:
    return _report_grid("sweep", harness.run_sweep(cfg, cfg.out),
                        len(cfg.etas) * len(harness.SWEEP_METHODS), Path(cfg.out) / "summary.csv")


def _cmd_ablate(args, cfg: ExperimentConfig) -> int:
    grid = harness.ABLATIONS[args.axis]
    return _report_grid("ablation", harness.run_ablation(cfg, args.axis, cfg.out),
                        len(grid.values) * len(grid.methods),
                        Path(cfg.out) / f"ablation_{args.axis}.csv")


def _cmd_plot(args, cfg: ExperimentConfig) -> int:
    harness.plot_sweep(cfg.out)
    print(f"plots -> {cfg.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlnl",
        description="noise-robust multi-label classification lab")
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", help="output directory override")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, text):
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        return p

    command("gen-data", _cmd_gen_data, "generate and split the synthetic dataset")
    p = command("inject-noise", _cmd_inject_noise, "corrupt the silver split")
    p.add_argument("--eta", type=float, help="noise ratio (default: first of noise.eta)")
    command("train-silver", _cmd_train_silver, "train the silver classifier on noisy data")
    p = command("estimate", _cmd_estimate, "estimate the corruption matrix")
    p.add_argument("--method", required=True, choices=["galc-slr", "glc", "true"],
                   help="true: the matrix inject-noise wrote to true_matrix.csv")
    p = command("train-gold", _cmd_train_gold, "train the final classifier")
    p.add_argument("--correction", required=True,
                   help="correction matrix CSV path, or 'none' for the plain baseline")
    p = command("evaluate", _cmd_evaluate, "evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    command("sweep", _cmd_sweep, "full grid over noise ratios and methods")
    p = command("ablate", _cmd_ablate, "ablation grid")
    p.add_argument("--axis", required=True, choices=list(harness.ABLATIONS))
    command("plot", _cmd_plot, "re-render a sweep's SVG plots from its --out directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with textio.one_blas_thread():
            return args.run(args, _load_config(args))
    except (ValueError, RuntimeError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
