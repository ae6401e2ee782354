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
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import datagen, estimator, noise, svgplot
from .datagen import Dataset, GenConfig, SplitSpec
from .metrics import MetricsReport
from .model import (AslParams, CorrectedMode, EpochStats, MlpModel, TrainConfig, init_model,
                    save_model, train)
from .noise import CorruptionMatrix, NoiseSpec
from .numerics import RandomStream

METHODS = ("galc_slr", "glc", "true_matrix", "none")
SWEEP_METHODS = ("none", "galc_slr", "true_matrix")
CORRECTION_FORMS = ("scaled", "raw", "normalized_raw")


@dataclass
class ExperimentConfig:
    gen: GenConfig = field(default_factory=lambda: GenConfig(
        n=12000, d=32, k=8, mean_labels_per_sample=2.4, feature_noise_sigma=1.8,
        imbalance_exponent=1.0, correlation_strength=0.7, seed=0))
    etas: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6)
    noise_mode: str = "exact_count"
    trusted_fraction: float = 0.10
    test_fraction: float = 0.2
    single_label_limit: int | None = None
    asl: AslParams = field(default_factory=AslParams)
    hidden: tuple[int, ...] = (64,)
    activation: str = "tanh"
    silver: TrainConfig = field(default_factory=lambda: TrainConfig(
        epochs=40, batch_size=64, lr=2e-3, optimizer="adam", init_scale=1.0))
    gold: TrainConfig = field(default_factory=lambda: TrainConfig(
        epochs=40, batch_size=64, lr=2e-3, optimizer="adam", init_scale=1.0))
    estimator_method: str = "galc_slr"
    estimation_set: str = "gold"
    glc_readout: str = "softmax"
    correction_form: str = "normalized_raw"
    ablation_eta: float = 0.4
    seed: int = 0
    out: str = "runs"

    def validate(self):
        for key in CONFIG_KEYS:
            problem = key.check(key.get(self))
            if problem:
                raise ValueError(f"{key.name} {problem}")
        # the checks that relate two generator fields (mean labels vs K,
        # imbalance underflow at K) belong to GenConfig
        self.gen.validate()


class ConfigKey(NamedTuple):
    """One config file key: where it lives in ExperimentConfig, how its text
    is parsed, and what values it accepts."""

    name: str
    field: str                             # "attr", or "section.attr" for a nested config
    parse: Callable[[str], object]
    check: Callable[[object], str | None]  # the problem with a value, or None

    def get(self, cfg: ExperimentConfig):
        section, _, attr = self.field.rpartition(".")
        return getattr(getattr(cfg, section) if section else cfg, attr)

    def set(self, cfg: ExperimentConfig, value) -> None:
        section, _, attr = self.field.rpartition(".")
        if section:
            setattr(cfg, section, dataclasses.replace(getattr(cfg, section), **{attr: value}))
        else:
            setattr(cfg, attr, value)


def _interval(lo, hi=math.inf, lo_open=False, hi_open=True):
    """A number in the interval; NaN and the infinities are never in one."""
    text = f"{'(' if lo_open else '['}{lo:g},{hi:g}{')' if hi_open else ']'}"

    def check(v):
        inside = (lo < v if lo_open else lo <= v) and (v < hi if hi_open else v <= hi)
        return None if inside else f"must be in {text}, got {v!r}"
    return check


def _one_of(*choices):
    return lambda v: None if v in choices else f"must be one of {choices}"


def _etas(etas):
    if not etas:
        return "needs at least one value"
    bad = [e for e in etas if not 0.0 <= e < 1.0]
    return f"value {bad[0]} outside [0,1)" if bad else None


def _parse_floats(value: str) -> tuple[float, ...]:
    return tuple(float(t) for t in value.replace(",", " ").split())


def _parse_ints(value: str) -> tuple[int, ...]:
    return tuple(int(t) for t in value.replace(",", " ").split())


def _dashes(value: str) -> str:
    return value.replace("-", "_")


def _train_keys(section: str) -> list[ConfigKey]:
    return [ConfigKey(f"{section}.epochs", f"{section}.epochs", int, _interval(1)),
            ConfigKey(f"{section}.batch_size", f"{section}.batch_size", int, _interval(1)),
            ConfigKey(f"{section}.lr", f"{section}.lr", float, _interval(0.0)),
            ConfigKey(f"{section}.optimizer", f"{section}.optimizer", str, _one_of("adam", "sgd")),
            ConfigKey(f"{section}.init_scale", f"{section}.init_scale", float, _interval(0.0))]


# Every settable field except the derived seeds of the nested configs, in
# the order resolved.cfg echoes them. Float keys must be finite.
CONFIG_KEYS: tuple[ConfigKey, ...] = (
    ConfigKey("gen.n", "gen.n", int, _interval(1)),
    ConfigKey("gen.d", "gen.d", int, _interval(1)),
    ConfigKey("gen.k", "gen.k", int, _interval(1)),
    ConfigKey("gen.mean_labels", "gen.mean_labels_per_sample", float, _interval(2.0)),
    ConfigKey("gen.feature_noise_sigma", "gen.feature_noise_sigma", float,
              _interval(0.0, lo_open=True)),
    ConfigKey("gen.imbalance_exponent", "gen.imbalance_exponent", float, _interval(0.0)),
    ConfigKey("gen.correlation_strength", "gen.correlation_strength", float,
              _interval(0.0, 1.0, hi_open=False)),
    ConfigKey("noise.eta", "etas", _parse_floats, _etas),
    ConfigKey("noise.mode", "noise_mode", str, _one_of("exact_count", "bernoulli")),
    ConfigKey("split.trusted_fraction", "trusted_fraction", float,
              _interval(0.0, 1.0, lo_open=True)),
    ConfigKey("data.test_fraction", "test_fraction", float, _interval(0.0, 1.0, lo_open=True)),
    ConfigKey("data.single_label_limit", "single_label_limit",
              lambda v: None if v in ("unlimited", "none") else int(v),
              lambda v: None if v is None or v >= 1 else "must be >= 1 or 'unlimited'"),
    ConfigKey("asl.gamma_plus", "asl.gamma_plus", float, _interval(0.0)),
    ConfigKey("asl.gamma_minus", "asl.gamma_minus", float, _interval(0.0)),
    ConfigKey("asl.margin", "asl.margin", float, _interval(0.0, 1.0)),
    ConfigKey("asl.clamp_eps", "asl.clamp_eps", float,
              _interval(0.0, 1e-3, lo_open=True, hi_open=False)),
    ConfigKey("model.hidden", "hidden", _parse_ints,
              lambda v: None if v and min(v) >= 1 else "needs positive layer sizes"),
    ConfigKey("model.activation", "activation", str, _one_of("tanh", "relu")),
    *_train_keys("silver"),
    *_train_keys("gold"),
    ConfigKey("estimator.method", "estimator_method", _dashes, _one_of(*METHODS)),
    ConfigKey("estimator.estimation_set", "estimation_set", str, _one_of("gold", "silver")),
    ConfigKey("estimator.glc_readout", "glc_readout", str, _one_of("softmax", "sigmoid")),
    ConfigKey("correction.form", "correction_form", _dashes, _one_of(*CORRECTION_FORMS)),
    ConfigKey("ablation.eta", "ablation_eta", float, _interval(0.0, 1.0)),
    ConfigKey("seed", "seed", int, lambda v: None),
    ConfigKey("out", "out", str, lambda v: None),
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


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical key = value echo of every setting, defaults included."""
    return "".join(f"{key.name} = {_fmt_value(key.get(cfg))}\n" for key in CONFIG_KEYS)


def parse_config(path) -> ExperimentConfig:
    """Parse a `key = value` config file; unknown keys and bad types/ranges
    are rejected with the offending line; missing keys take defaults."""
    cfg = ExperimentConfig()
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    def fail(lineno, msg):
        raise ValueError(f"{path}:{lineno}: {msg}")

    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            fail(lineno, f"expected 'key = value', got {raw!r}")
        name, text = (t.strip() for t in s.split("=", 1))
        key = _KEYS_BY_NAME.get(name)
        if key is None:
            fail(lineno, f"unknown key {name!r}")
        try:
            value = key.parse(text)
        except (ValueError, TypeError) as e:
            fail(lineno, f"{name}: {e}")
        problem = key.check(value)
        if problem:
            fail(lineno, f"{name} {problem}")
        key.set(cfg, value)
    try:
        cfg.validate()
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return cfg


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
    config_hash: str
    final: MetricsReport
    history: list[EpochStats]
    silver_history: list[EpochStats]
    frobenius_to_true: float | None
    artifact_paths: dict[str, str]
    wall_seconds: float


def config_hash(cfg: ExperimentConfig, eta: float, method: str) -> str:
    text = render_config(cfg) + f"|eta={eta!r}|method={method}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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


def write_metrics_csv(path, history: list[EpochStats], split: str) -> None:
    lines = ["epoch,split,map,cf1,of1,loss"]
    for row in history:
        r = row.report
        lines.append(f"{row.epoch},{split},{r.map!r},{r.cf1!r},{r.of1!r},{row.loss!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# Pipeline stages. run_pipeline and the staged CLI subcommands both run
# these; each stage takes its seeds from the master seed by label and its
# layer sizes from the data, so the same inputs give the same bytes however
# the stages are strung together.

def inject_noise(cfg: ExperimentConfig, silver_clean: Dataset, eta: float):
    """Corrupt the silver split at noise ratio `eta`; returns (noisy, FlipLog)."""
    spec = NoiseSpec(eta, seed=RandomStream(cfg.seed).derive_seed("noise"), mode=cfg.noise_mode)
    return noise.inject(silver_clean, spec)


def _train_stage(cfg: ExperimentConfig, stage: str, data: Dataset, loss_mode,
                 test: Dataset | None):
    root = RandomStream(cfg.seed)
    train_cfg = getattr(cfg, stage)
    model0 = init_model([data.num_features, *cfg.hidden, data.num_classes], cfg.activation,
                        train_cfg.init_scale, seed=root.derive_seed(f"{stage}-init"))
    train_cfg = dataclasses.replace(train_cfg, seed=root.derive_seed(f"{stage}-train"))
    return train(model0, data, loss_mode, train_cfg, cfg.asl, eval_data=test)


def train_silver(cfg: ExperimentConfig, silver_noisy: Dataset, test: Dataset | None):
    """Plain ASL training on the noisy silver split; returns (model, history)."""
    return _train_stage(cfg, "silver", silver_noisy, "asl", test)


def estimate_correction(cfg: ExperimentConfig, method: str, eta: float, gold: Dataset,
                        silver_model: MlpModel | None, singles_pool: Dataset | None,
                        silver_noisy: Dataset | None):
    """The correction matrix `method` trains the gold model with, and the
    estimation report behind it; returns (matrix or None, report or None).

    galc_slr reads the silver model, the single-label pool and the
    estimation set (gold, or silver_noisy when cfg.estimation_set is
    "silver"); glc reads the silver model and gold; true_matrix only K.
    """
    if method == "true_matrix":
        return noise.symmetric_matrix(gold.num_classes, eta), None
    if method == "none":
        return None, None
    if method == "galc_slr":
        regs = estimator.compute_regulators(silver_model, singles_pool)
        est_set = gold if cfg.estimation_set == "gold" else silver_noisy
        report = estimator.estimate_galc_slr(silver_model, est_set, regs)
    else:
        report = estimator.estimate_glc(silver_model, gold, cfg.glc_readout)
    return training_matrix(report, cfg.correction_form), report


def write_correction(out: Path, matrix: CorruptionMatrix | None,
                     report: estimator.EstimationReport | None) -> dict[str, str]:
    """Write the estimate stage's files (chat_*.csv, chat_info.txt, chat.csv)."""
    paths = estimator.write_report(report, out / "chat") if report is not None else {}
    if matrix is not None:
        noise.write_matrix(matrix, out / "chat.csv")
        paths["correction"] = str(out / "chat.csv")
    return paths


def train_gold(cfg: ExperimentConfig, gold: Dataset, silver_noisy: Dataset,
               correction: CorruptionMatrix | None, test: Dataset | None):
    """Train on gold + noisy silver; with a correction matrix, silver rows fit
    M^T p and gold rows their own labels. Returns (model, history)."""
    combined = Dataset(np.concatenate([gold.features, silver_noisy.features]),
                       np.concatenate([gold.labels, silver_noisy.labels]), tag="noisy")
    mode = "asl"
    if correction is not None:
        gold_mask = np.zeros(combined.n, dtype=bool)
        gold_mask[:gold.n] = True
        mode = CorrectedMode(correction, gold_mask)
    return _train_stage(cfg, "gold", combined, mode, test)


def run_pipeline(cfg: ExperimentConfig, eta: float, outdir,
                 method: str | None = None,
                 data: SplitArtifacts | None = None) -> RunRecord:
    """One full run at a given noise ratio; returns the run record.

    `data` lets sweeps reuse the prepared splits (they depend only on the
    master seed, never on eta or method).
    """
    cfg.validate()
    method = method or cfg.estimator_method
    if method not in METHODS:
        raise ValueError(f"estimator method must be one of {METHODS}")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    def stage(name, fn):
        try:
            return fn()
        except Exception as e:
            raise RuntimeError(f"pipeline stage '{name}' failed: {e}") from e

    if data is None:
        data = stage("prepare-data", lambda: prepare_data(cfg))
    silver_noisy, _ = stage("inject-noise", lambda: inject_noise(cfg, data.silver_clean, eta))
    true_c = noise.symmetric_matrix(data.gold.num_classes, eta)
    noise.write_matrix(true_c, out / "true_matrix.csv")
    paths = {"true_matrix": str(out / "true_matrix.csv")}

    f, f_hist = stage("train-silver", lambda: train_silver(cfg, silver_noisy, data.test))
    save_model(f, out / "silver_model.mlpm")
    write_metrics_csv(out / "silver_metrics.csv", f_hist, "test")
    paths["silver_model"] = str(out / "silver_model.mlpm")

    corr, report = stage("estimate", lambda: estimate_correction(
        cfg, method, eta, data.gold, f, data.singles_pool, silver_noisy))
    paths.update(write_correction(out, corr, report))
    frob = None
    if report is not None:
        frob = estimator.compare_matrices(report.raw, true_c).frobenius_distance
    elif corr is not None:
        frob = 0.0

    g, g_hist = stage("train-gold", lambda: train_gold(
        cfg, data.gold, silver_noisy, corr, data.test))
    save_model(g, out / "gold_model.mlpm")
    write_metrics_csv(out / "metrics.csv", g_hist, "test")
    paths["gold_model"] = str(out / "gold_model.mlpm")
    paths["metrics"] = str(out / "metrics.csv")

    (out / "resolved.cfg").write_text(render_config(cfg), encoding="utf-8")
    return RunRecord(
        method=method, eta=eta,
        config_hash=config_hash(cfg, eta, method),
        final=g_hist[-1].report, history=g_hist, silver_history=f_hist,
        frobenius_to_true=frob, artifact_paths=paths,
        wall_seconds=time.perf_counter() - t0)


_METHOD_LABELS = {"none": "ASL baseline", "galc_slr": "GALC-SLR",
                  "true_matrix": "true matrix", "glc": "GLC"}


def run_sweep(cfg: ExperimentConfig, outdir,
              methods: tuple[str, ...] = SWEEP_METHODS) -> list[RunRecord]:
    """Grid over noise ratios and methods; emits summary.csv and SVG plots."""
    cfg.validate()
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved.cfg").write_text(render_config(cfg), encoding="utf-8")
    data = prepare_data(cfg)

    records: list[RunRecord] = []
    failures: list[str] = []
    rows = ["method,eta,map,cf1,of1,frobenius_to_true"]
    for eta in cfg.etas:
        for method in methods:
            rundir = out / f"eta{eta!r}_{method}"
            try:
                rec = run_pipeline(cfg, eta, rundir, method=method, data=data)
            except Exception as e:
                failures.append(f"eta={eta!r} method={method}: {e}")
                continue
            records.append(rec)
            frob = "" if rec.frobenius_to_true is None else repr(rec.frobenius_to_true)
            rows.append(f"{method},{eta!r},{rec.final.map!r},{rec.final.cf1!r},"
                        f"{rec.final.of1!r},{frob}")
    (out / "summary.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    if failures:
        (out / "failures.log").write_text("\n".join(failures) + "\n", encoding="utf-8")

    by_method: dict[str, list[RunRecord]] = {}
    for rec in records:
        by_method.setdefault(rec.method, []).append(rec)
    for metric in ("map", "cf1", "of1"):
        series = []
        for method in methods:
            recs = by_method.get(method, [])
            if recs:
                series.append((_METHOD_LABELS.get(method, method),
                               [r.eta for r in recs],
                               [getattr(r.final, metric) for r in recs]))
        if series:
            svgplot.emit_plot(series, "line", out / f"sweep_{metric}.svg",
                              title=f"{metric.upper()} vs noise ratio",
                              xlabel="noise ratio", ylabel=metric.upper())
    max_eta = max(cfg.etas)
    memo_series = []
    for method in methods:
        recs = [r for r in by_method.get(method, []) if r.eta == max_eta]
        if recs:
            hist = recs[0].history
            memo_series.append((_METHOD_LABELS.get(method, method),
                                [h.epoch for h in hist],
                                [h.report.map for h in hist]))
    if memo_series:
        svgplot.emit_plot(memo_series, "line", out / "sweep_memorization.svg",
                          title=f"Test mAP per epoch at eta={max_eta!r}",
                          xlabel="epoch", ylabel="mAP")
    return records


def run_ablation(cfg: ExperimentConfig, axis: str, outdir) -> list[RunRecord]:
    """Ablation grids at the fixed ablation noise ratio.

    axis="trusted": trusted fractions {0.05, 0.10} x {galc_slr, true_matrix}.
    axis="limit":   single-label budgets {10, 50, unlimited} with galc_slr.
    """
    cfg.validate()
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved.cfg").write_text(render_config(cfg), encoding="utf-8")
    eta = cfg.ablation_eta
    records: list[RunRecord] = []
    rows = ["label,method,eta,map,cf1,of1"]

    if axis == "trusted":
        fractions = (0.05, 0.10)
        methods = ("galc_slr", "true_matrix")
        values: dict[str, list[float]] = {m: [] for m in methods}
        for tf in fractions:
            sub = dataclasses.replace(cfg, trusted_fraction=tf)
            for method in methods:
                rec = run_pipeline(sub, eta, out / f"tf{tf!r}_{method}", method=method)
                records.append(rec)
                values[method].append(rec.final.map)
                rows.append(f"tf={tf!r},{method},{eta!r},{rec.final.map!r},"
                            f"{rec.final.cf1!r},{rec.final.of1!r}")
        groups = [f"tf={tf!r}" for tf in fractions]
        series = [(_METHOD_LABELS[m], groups, values[m]) for m in methods]
        svgplot.emit_plot(series, "grouped_bar", out / "ablation_trusted.svg",
                          title=f"Trusted-fraction ablation at eta={eta!r}",
                          xlabel="trusted fraction", ylabel="mAP")
    elif axis == "limit":
        limits = (10, 50, None)
        labels = ["L10", "L50", "unlimited"]
        vals = []
        for lim, label in zip(limits, labels):
            sub = dataclasses.replace(cfg, single_label_limit=lim)
            rec = run_pipeline(sub, eta, out / f"limit_{label}", method="galc_slr")
            records.append(rec)
            vals.append(rec.final.map)
            rows.append(f"{label},galc_slr,{eta!r},{rec.final.map!r},"
                        f"{rec.final.cf1!r},{rec.final.of1!r}")
        svgplot.emit_plot([("GALC-SLR", labels, vals)], "grouped_bar",
                          out / "ablation_limit.svg",
                          title=f"Single-label budget ablation at eta={eta!r}",
                          xlabel="single-label budget", ylabel="mAP")
    else:
        raise ValueError("axis must be 'trusted' or 'limit'")
    (out / f"ablation_{axis}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return records
