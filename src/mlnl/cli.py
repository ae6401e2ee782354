"""Command-line entry point.

Staged subcommands operate on a run directory (--out): gen-data writes the
split dataset files, inject-noise corrupts the silver split, train-silver and
train-gold produce checkpoints and metrics, estimate writes the corruption
matrix CSVs. sweep and ablate orchestrate full experiment grids, and plot
redraws a sweep's SVG plots from the files in its directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import datagen, harness, noise, textio
from .harness import ExperimentConfig, parse_config
from .metrics import evaluate
# `train` is not called here; it stays bound in this module because
# perfbench/test_tracer.py checks that the tracer wraps every binding of it.
from .model import MlpModel, forward, load_model, train  # noqa: F401


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    overrides = {name: getattr(args, name) for name in ("seed", "out")
                 if getattr(args, name) is not None}
    return dataclasses.replace(cfg, **overrides)


def _check_shapes(paths, inputs) -> None:
    """Check that the datasets and checkpoints a subcommand read from
    `paths` agree on the numbers of features and classes. `inputs` holds
    what was read from each path, a Dataset or an MlpModel, or None for a
    file the subcommand did not need; a ValueError names the first input
    read and the first that disagrees with it."""
    def shape(obj):
        if isinstance(obj, MlpModel):
            return "takes", obj.weights[0].shape[1], obj.weights[-1].shape[0]
        return "has", obj.num_features, obj.num_classes

    (first, ref), *others = [(path, obj) for path, obj in zip(paths, inputs) if obj is not None]
    verb, d, k = shape(ref)
    for path, obj in others:
        _, d2, k2 = shape(obj)
        if (d2, k2) != (d, k):
            raise ValueError(f"{first} {verb} {d} features and {k} classes, "
                             f"but {path} has {d2} and {k2}")


def _cmd_gen_data(args, cfg: ExperimentConfig) -> int:
    out = harness.run_dir(cfg, cfg.out)
    data = harness.prepare_data(cfg)
    datagen.write_dataset(data.full, out / "dataset_full.mlnl")
    datagen.write_dataset(data.test, out / "test.mlnl")
    datagen.write_dataset(data.gold, out / "gold.mlnl")
    datagen.write_dataset(data.silver_clean, out / "silver_clean.mlnl")
    datagen.write_dataset(data.singles_pool, out / "singles_pool.mlnl")
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
    if true_c is not None and true_c.k != gold.num_classes:
        raise ValueError(f"{out / 'true_matrix.csv'} has K={true_c.k}, "
                         f"but {out / 'gold.mlnl'} has {gold.num_classes} classes")
    if method == "galc_slr":
        pool = datagen.read_dataset(out / "singles_pool.mlnl")
        if cfg.estimation_set == "silver":
            noisy = datagen.read_dataset(out / "silver_noisy.mlnl")
    names = ("silver_model.mlpm", "gold.mlnl", "singles_pool.mlnl", "silver_noisy.mlnl")
    _check_shapes([out / name for name in names], (f, gold, pool, noisy))
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
    _check_shapes(paths, (gold, noisy, test))
    corr = None if args.correction == "none" else noise.read_matrix(args.correction)
    if corr is not None and corr.k != noisy.num_classes:
        raise textio.located(args.correction, None, f"correction matrix K={corr.k} does not "
                             f"match the data's K={noisy.num_classes}")
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


def _cmd_sweep(args, cfg: ExperimentConfig) -> int:
    records = harness.run_sweep(cfg, cfg.out)
    for rec in records:
        print(f"{rec.method:12s} eta={rec.eta!r} mAP={rec.final.map:.4f} "
              f"({rec.wall_seconds:.1f}s)")
    print(f"summary -> {Path(cfg.out) / 'summary.csv'}")
    cells = len(cfg.etas) * len(harness.SWEEP_METHODS)
    if len(records) < cells:
        print(f"error: {cells - len(records)} of {cells} sweep cells failed; "
              f"see {Path(cfg.out) / 'failures.log'}", file=sys.stderr)
        return 1
    return 0


def _cmd_ablate(args, cfg: ExperimentConfig) -> int:
    records = harness.run_ablation(cfg, args.axis, cfg.out)
    for rec in records:
        print(f"{rec.method:12s} eta={rec.eta!r} mAP={rec.final.map:.4f}")
    return 0


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

    sub.add_parser("gen-data", help="generate and split the synthetic dataset")
    p = sub.add_parser("inject-noise", help="corrupt the silver split")
    p.add_argument("--eta", type=float, help="noise ratio (default: first of noise.eta)")
    sub.add_parser("train-silver", help="train the silver classifier on noisy data")
    p = sub.add_parser("estimate", help="estimate the corruption matrix")
    p.add_argument("--method", required=True, choices=["galc-slr", "glc", "true"],
                   help="true: the matrix inject-noise wrote to true_matrix.csv")
    p = sub.add_parser("train-gold", help="train the final classifier")
    p.add_argument("--correction", required=True,
                   help="correction matrix CSV path, or 'none' for the plain baseline")
    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    sub.add_parser("sweep", help="full grid over noise ratios and methods")
    p = sub.add_parser("ablate", help="ablation grid")
    p.add_argument("--axis", required=True, choices=list(harness.ABLATIONS))
    sub.add_parser("plot", help="re-render a sweep's SVG plots from its --out directory")
    return parser


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "inject-noise": _cmd_inject_noise,
    "train-silver": _cmd_train_silver,
    "estimate": _cmd_estimate,
    "train-gold": _cmd_train_gold,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "ablate": _cmd_ablate,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args, _load_config(args))
    except (ValueError, RuntimeError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
