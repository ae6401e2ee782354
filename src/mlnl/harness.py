"""Experiment orchestration: config files, the three-step pipeline
(silver training on noisy data, corruption estimation, corrected gold
training), noise-ratio sweeps, and ablation grids.

The master seed fans out into labeled sub-streams (datagen / test-split /
gold-split / single-pool / noise / init / train) so toggling one stage never
perturbs the others, and paired runs across methods share identical data.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import datagen, estimator, noise, svgplot
from .datagen import Dataset, GenConfig, SplitSpec
from .metrics import MetricsReport
from .model import AslParams, CorrectedMode, EpochStats, TrainConfig, init_model, save_model, train
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
        self.gen.validate()
        for e in self.etas:
            if not 0.0 <= e < 1.0:
                raise ValueError(f"noise.eta value {e} outside [0,1)")
        if not self.etas:
            raise ValueError("noise.eta needs at least one value")
        if not 0.0 < self.trusted_fraction < 1.0:
            raise ValueError("split.trusted_fraction must be in (0,1)")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("data.test_fraction must be in (0,1)")
        if self.single_label_limit is not None and self.single_label_limit < 1:
            raise ValueError("data.single_label_limit must be >= 1 or 'unlimited'")
        self.asl.validate()
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError("model.hidden needs positive layer sizes")
        if self.activation not in ("tanh", "relu"):
            raise ValueError("model.activation must be tanh or relu")
        self.silver.validate()
        self.gold.validate()
        if self.estimator_method not in METHODS:
            raise ValueError(f"estimator.method must be one of {METHODS}")
        if self.estimation_set not in ("gold", "silver"):
            raise ValueError("estimator.estimation_set must be gold or silver")
        if self.glc_readout not in ("softmax", "sigmoid"):
            raise ValueError("estimator.glc_readout must be softmax or sigmoid")
        if self.correction_form not in CORRECTION_FORMS:
            raise ValueError(f"correction.form must be one of {CORRECTION_FORMS}")
        if not 0.0 <= self.ablation_eta < 1.0:
            raise ValueError("ablation.eta must be in [0,1)")
        if self.noise_mode not in ("exact_count", "bernoulli"):
            raise ValueError("noise.mode must be exact_count or bernoulli")


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
    g, a, s, o = cfg.gen, cfg.asl, cfg.silver, cfg.gold
    pairs = [
        ("gen.n", g.n), ("gen.d", g.d), ("gen.k", g.k),
        ("gen.mean_labels", g.mean_labels_per_sample),
        ("gen.feature_noise_sigma", g.feature_noise_sigma),
        ("gen.imbalance_exponent", g.imbalance_exponent),
        ("gen.correlation_strength", g.correlation_strength),
        ("noise.eta", cfg.etas), ("noise.mode", cfg.noise_mode),
        ("split.trusted_fraction", cfg.trusted_fraction),
        ("data.test_fraction", cfg.test_fraction),
        ("data.single_label_limit", cfg.single_label_limit),
        ("asl.gamma_plus", a.gamma_plus), ("asl.gamma_minus", a.gamma_minus),
        ("asl.margin", a.margin), ("asl.clamp_eps", a.clamp_eps),
        ("model.hidden", cfg.hidden), ("model.activation", cfg.activation),
        ("silver.epochs", s.epochs), ("silver.batch_size", s.batch_size),
        ("silver.lr", s.lr), ("silver.optimizer", s.optimizer),
        ("silver.init_scale", s.init_scale),
        ("gold.epochs", o.epochs), ("gold.batch_size", o.batch_size),
        ("gold.lr", o.lr), ("gold.optimizer", o.optimizer),
        ("gold.init_scale", o.init_scale),
        ("estimator.method", cfg.estimator_method),
        ("estimator.estimation_set", cfg.estimation_set),
        ("estimator.glc_readout", cfg.glc_readout),
        ("correction.form", cfg.correction_form),
        ("ablation.eta", cfg.ablation_eta),
        ("seed", cfg.seed), ("out", cfg.out),
    ]
    return "\n".join(f"{k} = {_fmt_value(v)}" for k, v in pairs) + "\n"


def _parse_floats(value: str) -> tuple[float, ...]:
    return tuple(float(t) for t in value.replace(",", " ").split())


def _parse_ints(value: str) -> tuple[int, ...]:
    return tuple(int(t) for t in value.replace(",", " ").split())


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
        key, value = (t.strip() for t in s.split("=", 1))
        try:
            _apply_key(cfg, key, value)
        except KeyError:
            fail(lineno, f"unknown key {key!r}")
        except (ValueError, TypeError) as e:
            fail(lineno, f"{key}: {e}")
    cfg.validate()
    return cfg


def _apply_key(cfg: ExperimentConfig, key: str, value: str) -> None:
    g = cfg.gen
    if key == "gen.n":
        cfg.gen = dataclasses.replace(g, n=int(value))
    elif key == "gen.d":
        cfg.gen = dataclasses.replace(g, d=int(value))
    elif key == "gen.k":
        cfg.gen = dataclasses.replace(g, k=int(value))
    elif key == "gen.mean_labels":
        cfg.gen = dataclasses.replace(g, mean_labels_per_sample=float(value))
    elif key == "gen.feature_noise_sigma":
        cfg.gen = dataclasses.replace(g, feature_noise_sigma=float(value))
    elif key == "gen.imbalance_exponent":
        cfg.gen = dataclasses.replace(g, imbalance_exponent=float(value))
    elif key == "gen.correlation_strength":
        cfg.gen = dataclasses.replace(g, correlation_strength=float(value))
    elif key == "noise.eta":
        etas = _parse_floats(value)
        for e in etas:
            if not 0.0 <= e < 1.0:
                raise ValueError(f"value {e} outside [0,1)")
        cfg.etas = etas
    elif key == "noise.mode":
        cfg.noise_mode = value
    elif key == "split.trusted_fraction":
        cfg.trusted_fraction = float(value)
    elif key == "data.test_fraction":
        cfg.test_fraction = float(value)
    elif key == "data.single_label_limit":
        cfg.single_label_limit = None if value in ("unlimited", "none") else int(value)
    elif key == "asl.gamma_plus":
        cfg.asl = dataclasses.replace(cfg.asl, gamma_plus=float(value))
    elif key == "asl.gamma_minus":
        cfg.asl = dataclasses.replace(cfg.asl, gamma_minus=float(value))
    elif key == "asl.margin":
        cfg.asl = dataclasses.replace(cfg.asl, margin=float(value))
    elif key == "asl.clamp_eps":
        cfg.asl = dataclasses.replace(cfg.asl, clamp_eps=float(value))
    elif key == "model.hidden":
        cfg.hidden = _parse_ints(value)
    elif key == "model.activation":
        cfg.activation = value
    elif key in ("silver.epochs", "gold.epochs"):
        section = key.split(".")[0]
        setattr(cfg, section, dataclasses.replace(getattr(cfg, section), epochs=int(value)))
    elif key in ("silver.batch_size", "gold.batch_size"):
        section = key.split(".")[0]
        setattr(cfg, section, dataclasses.replace(getattr(cfg, section), batch_size=int(value)))
    elif key in ("silver.lr", "gold.lr"):
        section = key.split(".")[0]
        setattr(cfg, section, dataclasses.replace(getattr(cfg, section), lr=float(value)))
    elif key in ("silver.optimizer", "gold.optimizer"):
        section = key.split(".")[0]
        setattr(cfg, section, dataclasses.replace(getattr(cfg, section), optimizer=value))
    elif key in ("silver.init_scale", "gold.init_scale"):
        section = key.split(".")[0]
        setattr(cfg, section, dataclasses.replace(getattr(cfg, section), init_scale=float(value)))
    elif key == "estimator.method":
        cfg.estimator_method = value.replace("-", "_")
    elif key == "estimator.estimation_set":
        cfg.estimation_set = value
    elif key == "estimator.glc_readout":
        cfg.glc_readout = value
    elif key == "correction.form":
        cfg.correction_form = value.replace("-", "_")
    elif key == "ablation.eta":
        cfg.ablation_eta = float(value)
    elif key == "seed":
        cfg.seed = int(value)
    elif key == "out":
        cfg.out = value
    else:
        raise KeyError(key)


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
    root = RandomStream(cfg.seed)
    paths: dict[str, str] = {}

    def stage(name, fn):
        try:
            return fn()
        except Exception as e:
            raise RuntimeError(f"pipeline stage '{name}' failed: {e}") from e

    if data is None:
        data = stage("prepare-data", lambda: prepare_data(cfg))

    k = data.gold.num_classes
    spec = NoiseSpec(eta, seed=root.derive_seed("noise"), mode=cfg.noise_mode)
    silver_noisy, flip_log = stage("inject-noise", lambda: noise.inject(data.silver_clean, spec))
    true_c = noise.symmetric_matrix(k, eta)
    noise.write_matrix(true_c, out / "true_matrix.csv")
    paths["true_matrix"] = str(out / "true_matrix.csv")

    layer_sizes = [cfg.gen.d, *cfg.hidden, k]
    silver_cfg = dataclasses.replace(cfg.silver, seed=root.derive_seed("silver-train"))
    f0 = init_model(layer_sizes, cfg.activation, cfg.silver.init_scale,
                    seed=root.derive_seed("silver-init"))
    f, f_hist = stage("train-silver", lambda: train(
        f0, silver_noisy, "asl", silver_cfg, cfg.asl, eval_data=data.test))
    save_model(f, out / "silver_model.mlpm")
    write_metrics_csv(out / "silver_metrics.csv", f_hist, "test")
    paths["silver_model"] = str(out / "silver_model.mlpm")

    report = None
    frob = None
    corr: CorruptionMatrix | None = None
    if method == "galc_slr":
        regs = stage("compute-regulators",
                     lambda: estimator.compute_regulators(f, data.singles_pool))
        est_set = data.gold if cfg.estimation_set == "gold" else silver_noisy
        report = stage("estimate", lambda: estimator.estimate_galc_slr(f, est_set, regs))
    elif method == "glc":
        report = stage("estimate", lambda: estimator.estimate_glc(f, data.gold, cfg.glc_readout))
    elif method == "true_matrix":
        corr = true_c
        frob = 0.0
    if report is not None:
        paths.update(estimator.write_report(report, out / "chat"))
        frob = estimator.compare_matrices(report.raw, true_c).frobenius_distance
        corr = training_matrix(report, cfg.correction_form)
    if corr is not None:
        noise.write_matrix(corr, out / "chat.csv")
        paths["correction"] = str(out / "chat.csv")

    gold_cfg = dataclasses.replace(cfg.gold, seed=root.derive_seed("gold-train"))
    g0 = init_model(layer_sizes, cfg.activation, cfg.gold.init_scale,
                    seed=root.derive_seed("gold-init"))
    combined = Dataset(
        np.concatenate([data.gold.features, silver_noisy.features]),
        np.concatenate([data.gold.labels, silver_noisy.labels]),
        tag="noisy")
    if method == "none":
        mode = "asl"
    else:
        gold_mask = np.zeros(combined.n, dtype=bool)
        gold_mask[:data.gold.n] = True
        mode = CorrectedMode(corr, gold_mask)
    g, g_hist = stage("train-gold", lambda: train(
        g0, combined, mode, gold_cfg, cfg.asl, eval_data=data.test))
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
