"""Experiment orchestration: config files, the pipeline stages (noise
injection, silver training on noisy data, corruption estimation, corrected
gold training) that `run_pipeline` and the staged CLI subcommands share,
noise-ratio sweeps, and ablation grids.

The master seed fans out into labeled sub-streams (datagen / test-split /
gold-split / single-pool / noise / init / train) so toggling one stage never
perturbs the others, and paired runs across methods share identical data.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import datagen, estimator, noise, svgplot, textio
from .datagen import Dataset, GenConfig, SplitSpec
from .metrics import MetricsReport
from .model import (ACTIVATIONS, AslParams, CorrectedMode, EpochStats, MlpModel, TrainConfig,
                    init_model, save_model, train)
from .noise import CorruptionMatrix, NoiseSpec
from .numerics import Interval, RandomStream, Settings, integer, one_of, rule

METHODS = ("galc_slr", "glc", "true_matrix", "none")
SWEEP_METHODS = ("none", "galc_slr", "true_matrix")
CORRECTION_FORMS = ("scaled", "raw", "normalized_raw")


def _etas(etas):
    if not etas:
        return "needs at least one value"
    bad = [e for e in etas if noise.ETA_RANGE(e)]
    if bad:
        return f"value {bad[0]} outside {noise.ETA_RANGE}"
    # a repeated ratio would run its cells twice into one run directory
    repeated = [e for i, e in enumerate(etas) if e in etas[:i]]  # 0.0 == -0.0
    return f"repeats the value {repeated[0]!r}" if repeated else None


_LIMIT_RULE = integer(lambda v: None if v >= 1 else "must be >= 1 or 'unlimited'")
_LAYER_RULE = integer(lambda v: None if v >= 1 else "needs positive layer sizes")


def _hidden(sizes):
    if not sizes:
        return "needs positive layer sizes"
    problems = [p for p in map(_LAYER_RULE, sizes) if p]
    return problems[0] if problems else None


@dataclass
class ExperimentConfig(Settings):
    gen: GenConfig = field(default_factory=lambda: GenConfig(
        n=12000, d=32, k=8, mean_labels_per_sample=2.4, feature_noise_sigma=1.8,
        imbalance_exponent=1.0, correlation_strength=0.7, seed=0))
    etas: tuple[float, ...] = rule(_etas, default=(0.0, 0.2, 0.4, 0.6))
    noise_mode: str = rule(one_of(noise.NOISE_MODES), default="exact_count")
    trusted_fraction: float = rule(datagen.TRUSTED_FRACTION, default=0.10)
    test_fraction: float = rule(Interval(0.0, 1.0, lo_open=True), default=0.2)
    single_label_limit: int | None = rule(
        lambda v: None if v is None else _LIMIT_RULE(v), default=None)
    asl: AslParams = field(default_factory=AslParams)
    hidden: tuple[int, ...] = rule(_hidden, default=(64,))
    activation: str = rule(one_of(ACTIVATIONS), default="tanh")
    silver: TrainConfig = field(default_factory=lambda: TrainConfig(
        epochs=40, batch_size=64, lr=2e-3, optimizer="adam", init_scale=1.0))
    gold: TrainConfig = field(default_factory=lambda: TrainConfig(
        epochs=40, batch_size=64, lr=2e-3, optimizer="adam", init_scale=1.0))
    estimator_method: str = rule(one_of(METHODS), default="galc_slr")
    estimation_set: str = rule(one_of(("gold", "silver")), default="gold")
    glc_readout: str = rule(one_of(estimator.GLC_READOUTS), default="softmax")
    correction_form: str = rule(one_of(CORRECTION_FORMS), default="normalized_raw")
    ablation_eta: float = rule(noise.ETA_RANGE, default=0.4)
    seed: int = rule(integer(lambda v: None if 0 <= v < 2**64 else
                             f"must be in [0,2**64), got {v}"), default=0)
    out: str = "runs"


class ConfigKey(NamedTuple):
    """One config file key: the ExperimentConfig field it sets and how its
    text is parsed. It accepts the values that the field's rule accepts."""

    name: str
    field: str  # "attr", or "section.attr" for a nested config
    parse: Callable[[str], object]

    def locate(self, cfg: ExperimentConfig):
        """The section's name ("" for the top level), the object in `cfg`
        that holds the field, and the field's name."""
        section, _, attr = self.field.rpartition(".")
        return section, (getattr(cfg, section) if section else cfg), attr

    def get(self, cfg: ExperimentConfig):
        _, owner, attr = self.locate(cfg)
        return getattr(owner, attr)


def _parse_floats(value: str) -> tuple[float, ...]:
    return tuple(float(t) for t in value.replace(",", " ").split())


def _parse_ints(value: str) -> tuple[int, ...]:
    return tuple(int(t) for t in value.replace(",", " ").split())


def _dashes(value: str) -> str:
    return value.replace("-", "_")


def _train_keys(section: str) -> list[ConfigKey]:
    return [ConfigKey(f"{section}.{attr}", f"{section}.{attr}", parse)
            for attr, parse in (("epochs", int), ("batch_size", int), ("lr", float),
                                ("optimizer", str), ("init_scale", float))]


# Every settable field except the derived seeds of the nested configs, in
# the order resolved.cfg echoes them.
CONFIG_KEYS: tuple[ConfigKey, ...] = (
    ConfigKey("gen.n", "gen.n", int),
    ConfigKey("gen.d", "gen.d", int),
    ConfigKey("gen.k", "gen.k", int),
    ConfigKey("gen.mean_labels", "gen.mean_labels_per_sample", float),
    ConfigKey("gen.feature_noise_sigma", "gen.feature_noise_sigma", float),
    ConfigKey("gen.imbalance_exponent", "gen.imbalance_exponent", float),
    ConfigKey("gen.correlation_strength", "gen.correlation_strength", float),
    ConfigKey("noise.eta", "etas", _parse_floats),
    ConfigKey("noise.mode", "noise_mode", str),
    ConfigKey("split.trusted_fraction", "trusted_fraction", float),
    ConfigKey("data.test_fraction", "test_fraction", float),
    ConfigKey("data.single_label_limit", "single_label_limit",
              lambda v: None if v in ("unlimited", "none") else int(v)),
    ConfigKey("asl.gamma_plus", "asl.gamma_plus", float),
    ConfigKey("asl.gamma_minus", "asl.gamma_minus", float),
    ConfigKey("asl.margin", "asl.margin", float),
    ConfigKey("asl.clamp_eps", "asl.clamp_eps", float),
    ConfigKey("model.hidden", "hidden", _parse_ints),
    ConfigKey("model.activation", "activation", str),
    *_train_keys("silver"),
    *_train_keys("gold"),
    ConfigKey("estimator.method", "estimator_method", _dashes),
    ConfigKey("estimator.estimation_set", "estimation_set", str),
    ConfigKey("estimator.glc_readout", "glc_readout", str),
    ConfigKey("correction.form", "correction_form", _dashes),
    ConfigKey("ablation.eta", "ablation_eta", float),
    ConfigKey("seed", "seed", int),
    ConfigKey("out", "out", str),
)
_KEYS_BY_NAME = {key.name: key for key in CONFIG_KEYS}


def _fmt_value(v) -> str:
    if v is None:
        return "unlimited"
    if isinstance(v, (tuple, list)):
        return ", ".join(_fmt_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_config(cfg: ExperimentConfig) -> list[str]:
    """The lines of the canonical `key = value` echo of every setting,
    defaults included, as `resolved.cfg` holds them."""
    return [f"{key.name} = {_fmt_value(key.get(cfg))}" for key in CONFIG_KEYS]


def parse_config(path) -> ExperimentConfig:
    """Parse a `key = value` config file; unknown keys and bad types/ranges
    are rejected with the offending line; missing keys take defaults. A rule
    that relates two settings is judged on the whole file."""
    default = ExperimentConfig()
    values: dict[str, dict] = {}  # section ("" for the top level) -> field -> value
    lineno = None  # the line being judged; None judges the whole file
    try:
        for lineno, s in textio.numbered_lines(path):
            if s.startswith("#"):
                continue
            name, eq, text = (t.strip() for t in s.partition("="))
            if not eq:
                raise ValueError(f"expected 'key = value', got {s!r}")
            key = _KEYS_BY_NAME.get(name)
            if key is None:
                raise ValueError(f"unknown key {name!r}")
            try:
                value = key.parse(text)
            except (ValueError, TypeError) as e:
                raise ValueError(f"{name}: {e}") from None
            section, owner, attr = key.locate(default)
            problem = owner.field_problem(attr, value)
            if problem:
                raise ValueError(f"{name} {problem}")
            values.setdefault(section, {})[attr] = value
        lineno = None
        sections = {section: dataclasses.replace(getattr(default, section), **fields)
                    for section, fields in values.items() if section}
        return ExperimentConfig(**values.get("", {}), **sections)
    except (ValueError, MemoryError) as e:
        raise textio.located(path, lineno, e) from None


@dataclass
class SplitArtifacts:
    """Everything the pipeline needs after data preparation."""

    gold: Dataset
    silver_clean: Dataset
    singles_pool: Dataset
    test: Dataset
    full: Dataset


@dataclass
class RunRecord:
    method: str
    eta: float
    final: MetricsReport
    history: list[EpochStats]
    frobenius_to_true: float | None
    wall_seconds: float


def prepare_data(cfg: ExperimentConfig) -> SplitArtifacts:
    """Generate, hold out the clean test split, strip singles, split gold/silver."""
    root = RandomStream(cfg.seed)
    gen_cfg = dataclasses.replace(cfg.gen, seed=root.derive_seed("datagen"))
    full = datagen.generate(gen_cfg)

    n_test = int(round(cfg.test_fraction * full.n))
    perm = RandomStream(root.derive_seed("test-split")).permutation(full.n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    test_all = full.take(test_idx)
    train_all = full.take(train_idx)

    multi_train, singles_train = datagen.strip_single_label(train_all)
    multi_test, _ = datagen.strip_single_label(test_all)

    split = SplitSpec(cfg.trusted_fraction, seed=root.derive_seed("gold-split"))
    gold, silver_clean = datagen.split_gold_silver(multi_train, split)
    pool = datagen.build_single_label_pool(singles_train, cfg.single_label_limit,
                                           seed=root.derive_seed("single-pool"))
    return SplitArtifacts(gold=gold, silver_clean=silver_clean, singles_pool=pool,
                          test=multi_test, full=full)


def training_matrix(report: estimator.EstimationReport, form: str) -> CorruptionMatrix:
    """Materialize the correction matrix used for gold training."""
    if form == "scaled":
        return report.scaled
    if form == "raw":
        return report.raw
    if form == "normalized_raw":
        return noise.row_normalized(report.raw)
    raise ValueError(f"unknown correction form {form!r}")


METRICS_HEADER = "epoch,split,map,cf1,of1,loss"


def write_metrics_csv(path, history: list[EpochStats]) -> None:
    textio.write_lines(path, [METRICS_HEADER, *(
        f"{row.epoch},test,{row.report.map!r},{row.report.cf1!r},{row.report.of1!r},"
        f"{row.loss!r}" for row in history)])


def run_dir(cfg: ExperimentConfig, outdir) -> Path:
    """Check `cfg` (an ExperimentConfig stays mutable), make the run
    directory `outdir` and echo every setting to its resolved.cfg."""
    cfg.validate()
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    textio.write_lines(out / "resolved.cfg", render_config(cfg))
    return out


# Pipeline stages. run_pipeline and the staged CLI subcommands both run
# these; each stage takes its seeds from the master seed by label and its
# layer sizes from the data, and writes its own files into the run directory
# `out`, so the same inputs give the same bytes however the stages are
# strung together.

def inject_noise(cfg: ExperimentConfig, out: Path, silver_clean: Dataset, eta: float):
    """Corrupt the silver split at noise ratio `eta` and write the symmetric
    matrix at `eta` to true_matrix.csv; returns (noisy, FlipLog, that matrix)."""
    spec = NoiseSpec(eta, seed=RandomStream(cfg.seed).derive_seed("noise"), mode=cfg.noise_mode)
    noisy, log = noise.inject(silver_clean, spec)
    true_c = noise.symmetric_matrix(silver_clean.num_classes, eta)
    noise.write_matrix(true_c, out / "true_matrix.csv")
    return noisy, log, true_c


def _train_stage(cfg: ExperimentConfig, out: Path, stage: str, data: Dataset, loss_mode,
                 test: Dataset, metrics_file: str):
    root = RandomStream(cfg.seed)
    train_cfg = getattr(cfg, stage)
    model0 = init_model([data.num_features, *cfg.hidden, data.num_classes], cfg.activation,
                        train_cfg.init_scale, seed=root.derive_seed(f"{stage}-init"))
    train_cfg = dataclasses.replace(train_cfg, seed=root.derive_seed(f"{stage}-train"))
    model, history = train(model0, data, loss_mode, train_cfg, cfg.asl, eval_data=test)
    save_model(model, out / f"{stage}_model.mlpm")
    write_metrics_csv(out / metrics_file, history)
    return model, history


def train_silver(cfg: ExperimentConfig, out: Path, silver_noisy: Dataset, test: Dataset):
    """Plain ASL training on the noisy silver split; writes silver_model.mlpm
    and silver_metrics.csv and returns (model, history)."""
    return _train_stage(cfg, out, "silver", silver_noisy, "asl", test, "silver_metrics.csv")


def estimate_correction(cfg: ExperimentConfig, out: Path, method: str,
                        true_matrix: CorruptionMatrix | None, gold: Dataset,
                        silver_model: MlpModel | None, singles_pool: Dataset | None,
                        silver_noisy: Dataset | None):
    """The correction matrix `method` trains the gold model with, and the
    estimation report behind it (written to chat.csv and chat_*); returns
    (matrix or None, report or None).

    galc_slr reads the silver model, the single-label pool and the
    estimation set (gold, or silver_noisy when cfg.estimation_set is
    "silver"); glc reads the silver model and gold; true_matrix trains with
    `true_matrix`, the matrix inject_noise wrote, which the others ignore.
    """
    if method == "none":
        return None, None
    if method == "true_matrix":
        matrix, report = true_matrix, None
    elif method == "galc_slr":
        regs = estimator.compute_regulators(silver_model, singles_pool)
        est_set = gold if cfg.estimation_set == "gold" else silver_noisy
        report = estimator.estimate_galc_slr(silver_model, est_set, regs)
    else:
        report = estimator.estimate_glc(silver_model, gold, cfg.glc_readout)
    if report is not None:
        estimator.write_report(report, out / "chat")
        matrix = training_matrix(report, cfg.correction_form)
    noise.write_matrix(matrix, out / "chat.csv")
    return matrix, report


def train_gold(cfg: ExperimentConfig, out: Path, gold: Dataset, silver_noisy: Dataset,
               correction: CorruptionMatrix | None, test: Dataset):
    """Train on gold + noisy silver; with a correction matrix, silver rows fit
    M^T p and gold rows their own labels. Writes gold_model.mlpm and
    metrics.csv and returns (model, history)."""
    combined = Dataset(np.concatenate([gold.features, silver_noisy.features]),
                       np.concatenate([gold.labels, silver_noisy.labels]), tag="noisy")
    mode = "asl"
    if correction is not None:
        gold_mask = np.zeros(combined.n, dtype=bool)
        gold_mask[:gold.n] = True
        mode = CorrectedMode(correction, gold_mask)
    return _train_stage(cfg, out, "gold", combined, mode, test, "metrics.csv")


def _stage(name: str, fn):
    """Run one stage; a failure is re-raised as a RuntimeError naming it."""
    try:
        return fn()
    except Exception as e:
        raise RuntimeError(f"pipeline stage '{name}' failed: {e}") from e


def run_pipeline(cfg: ExperimentConfig, eta: float, outdir,
                 method: str | None = None,
                 data: SplitArtifacts | None = None) -> RunRecord:
    """One full run at a given noise ratio; returns the run record.

    `data` lets sweeps reuse the prepared splits (they depend only on the
    master seed, never on eta or method).
    """
    method = method or cfg.estimator_method
    if method not in METHODS:
        raise ValueError(f"estimator method must be one of {METHODS}")
    out = run_dir(cfg, outdir)
    t0 = time.perf_counter()
    if data is None:
        data = _stage("prepare-data", lambda: prepare_data(cfg))
    silver_noisy, _, true_c = _stage("inject-noise", lambda: inject_noise(
        cfg, out, data.silver_clean, eta))
    f, _ = _stage("train-silver", lambda: train_silver(cfg, out, silver_noisy, data.test))
    corr, report = _stage("estimate", lambda: estimate_correction(
        cfg, out, method, true_c, data.gold, f, data.singles_pool, silver_noisy))
    frob = None
    if corr is not None:
        estimate = corr if report is None else report.raw
        frob = estimator.compare_matrices(estimate, true_c).frobenius_distance
    _, g_hist = _stage("train-gold", lambda: train_gold(
        cfg, out, data.gold, silver_noisy, corr, data.test))
    return RunRecord(
        method=method, eta=eta,
        final=g_hist[-1].report, history=g_hist, frobenius_to_true=frob,
        wall_seconds=time.perf_counter() - t0)


_METHOD_LABELS = {"none": "ASL baseline", "galc_slr": "GALC-SLR", "true_matrix": "true matrix"}
SUMMARY_HEADER = "method,eta,map,cf1,of1,frobenius_to_true"


def run_sweep(cfg: ExperimentConfig, outdir) -> list[RunRecord]:
    """Grid over noise ratios and SWEEP_METHODS; emits summary.csv and SVG plots."""
    out = run_dir(cfg, outdir)
    data = prepare_data(cfg)

    records: list[RunRecord] = []
    failures: list[str] = []
    rows = [SUMMARY_HEADER]
    for eta in cfg.etas:
        for method in SWEEP_METHODS:
            try:
                rec = run_pipeline(cfg, eta, out / f"eta{eta!r}_{method}", method=method,
                                   data=data)
            except Exception as e:
                failures.append(f"eta={eta!r} method={method}: {e}")
                continue
            records.append(rec)
            frob = "" if rec.frobenius_to_true is None else repr(rec.frobenius_to_true)
            rows.append(f"{method},{eta!r},{rec.final.map!r},{rec.final.cf1!r},"
                        f"{rec.final.of1!r},{frob}")
    textio.write_lines(out / "summary.csv", rows)
    if failures:
        textio.write_lines(out / "failures.log", failures)
    else:  # a clean sweep keeps no failures.log of an earlier sweep
        (out / "failures.log").unlink(missing_ok=True)
    if records:
        plot_sweep(out)
    return records


def _read_csv(path, header: str, parse_row) -> list:
    """The rows of a CSV file written under `header`, each parsed from its
    fields by `parse_row`; a malformed row raises ValueError at path:line,
    and so does a file without rows."""
    lines = textio.numbered_lines(path)
    lineno, first = next(lines, (1, None))
    if first != header:
        raise textio.located(path, lineno, f"expected the header {header!r}")
    rows = []
    for lineno, line in lines:
        fields = line.split(",")
        try:
            if len(fields) != header.count(",") + 1:
                raise ValueError(f"expected {header.count(',') + 1} fields, got {len(fields)}")
            rows.append(parse_row(fields))
        except ValueError as e:
            raise textio.located(path, lineno, e) from None
    if not rows:
        raise textio.located(path, None, "no data rows")
    return rows


def _summary_row(fields):
    method, eta, *scores = fields
    if method not in SWEEP_METHODS:
        raise ValueError(f"method must be one of {SWEEP_METHODS}, got {method!r}")
    return method, float(eta), dict(zip(("map", "cf1", "of1"), map(float, scores[:3])))


def plot_sweep(outdir) -> None:
    """Draw a sweep directory's SVGs from its files: the MAP, CF1 and OF1
    curves from summary.csv, and the per-epoch test mAP of every method's run
    at the highest noise ratio from that run's metrics.csv."""
    out = Path(outdir)
    cells: dict[str, dict[float, dict[str, float]]] = {}
    for method, eta, scores in _read_csv(out / "summary.csv", SUMMARY_HEADER, _summary_row):
        cells.setdefault(method, {})[eta] = scores
    methods = [m for m in SWEEP_METHODS if m in cells]
    for metric in ("map", "cf1", "of1"):
        series = [(_METHOD_LABELS[m], list(cells[m]), [s[metric] for s in cells[m].values()])
                  for m in methods]
        svgplot.emit_plot(series, "line", out / f"sweep_{metric}.svg",
                          title=f"{metric.upper()} vs noise ratio",
                          xlabel="noise ratio", ylabel=metric.upper())
    top = max(max(c) for c in cells.values())
    memo_series = []
    for m in methods:
        if top in cells[m]:
            epochs = _read_csv(out / f"eta{top!r}_{m}" / "metrics.csv", METRICS_HEADER,
                               lambda f: (int(f[0]), float(f[2])))
            memo_series.append((_METHOD_LABELS[m], *zip(*epochs)))
    svgplot.emit_plot(memo_series, "line", out / "sweep_memorization.svg",
                      title=f"Test mAP per epoch at eta={top!r}",
                      xlabel="epoch", ylabel="mAP")


class AblationAxis(NamedTuple):
    """One ablation grid: the config field it varies and how it is shown."""

    field: str                 # the ExperimentConfig field set to each value
    values: tuple
    groups: tuple[str, ...]    # one label per value: the CSV label and the plot group
    rundir: str                # run directory, formatted with value, group and method
    methods: tuple[str, ...]
    title: str                 # followed by " at eta=<ablation eta>"
    xlabel: str


ABLATIONS = {
    "trusted": AblationAxis("trusted_fraction", (0.05, 0.10), ("tf=0.05", "tf=0.1"),
                            "tf{value!r}_{method}", ("galc_slr", "true_matrix"),
                            "Trusted-fraction ablation", "trusted fraction"),
    "limit": AblationAxis("single_label_limit", (10, 50, None), ("L10", "L50", "unlimited"),
                          "limit_{group}", ("galc_slr",),
                          "Single-label budget ablation", "single-label budget"),
}


def run_ablation(cfg: ExperimentConfig, axis: str, outdir) -> list[RunRecord]:
    """One ABLATIONS grid at the fixed ablation noise ratio: every value of
    the axis's field with every one of its methods; the first failure raises."""
    if axis not in ABLATIONS:
        raise ValueError(f"axis must be one of {tuple(ABLATIONS)}")
    grid = ABLATIONS[axis]
    out = run_dir(cfg, outdir)
    eta = cfg.ablation_eta
    records: list[RunRecord] = []
    rows = ["label,method,eta,map,cf1,of1"]
    for value, group in zip(grid.values, grid.groups):
        sub = dataclasses.replace(cfg, **{grid.field: value})
        data = _stage("prepare-data", lambda: prepare_data(sub))
        for method in grid.methods:
            rundir = grid.rundir.format(value=value, group=group, method=method)
            rec = run_pipeline(sub, eta, out / rundir, method=method, data=data)
            records.append(rec)
            rows.append(f"{group},{method},{eta!r},{rec.final.map!r},"
                        f"{rec.final.cf1!r},{rec.final.of1!r}")
    series = [(_METHOD_LABELS[m], grid.groups, [r.final.map for r in records if r.method == m])
              for m in grid.methods]
    svgplot.emit_plot(series, "grouped_bar", out / f"ablation_{axis}.svg",
                      title=f"{grid.title} at eta={eta!r}", xlabel=grid.xlabel, ylabel="mAP")
    textio.write_lines(out / f"ablation_{axis}.csv", rows)
    return records
