"""Experiment orchestration: config files, the pipeline stages (noise
injection, silver training on noisy data, corruption estimation, corrected
gold training) that `run_pipeline` and the staged CLI subcommands share,
noise-ratio sweeps, and ablation grids.

The master seed fans out into labeled sub-streams (datagen / test-split /
gold-split / single-pool / noise / silver-init / silver-train / gold-init /
gold-train) so toggling one stage never perturbs the others, and paired runs
across methods share identical data. On two or more CPUs, a grid's forked
workers run its batch loops ahead, each group's gold loops as one stack,
and its stages replay them here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from . import datagen, estimator, noise, svgplot, textio
from .datagen import Dataset, GenConfig, SplitSpec
from .metrics import MetricsReport
from .model import (ACTIVATIONS, AslParams, CorrectedMode, EpochStats, MlpModel, TrainConfig,
                    fill_memo, init_model, save_model, train)
from .noise import CorruptionMatrix, NoiseSpec
from .numerics import Interval, RandomStream, Settings, digest, integer, one_of, rule

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
        n=12000, d=32, k=8, feature_noise_sigma=1.8, imbalance_exponent=1.0,
        correlation_strength=0.7))
    etas: tuple[float, ...] = rule(_etas, default=(0.0, 0.2, 0.4, 0.6))
    noise_mode: str = rule(one_of(noise.NOISE_MODES), default="exact_count")
    trusted_fraction: float = rule(datagen.TRUSTED_FRACTION, default=0.10)
    test_fraction: float = rule(Interval(0.0, 1.0, lo_open=True), default=0.2)
    single_label_limit: int | None = rule(
        lambda v: None if v is None else _LIMIT_RULE(v), default=None)
    asl: AslParams = field(default_factory=AslParams)
    hidden: tuple[int, ...] = rule(_hidden, default=(64,))
    activation: str = rule(one_of(ACTIVATIONS), default="tanh")
    silver: TrainConfig = field(default_factory=lambda: TrainConfig(lr=2e-3))
    gold: TrainConfig = field(default_factory=lambda: TrainConfig(lr=2e-3))
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


def _parse_list(kind):
    return lambda value: tuple(kind(t) for t in value.replace(",", " ").split())


def _dashes(value: str) -> str:
    return value.replace("-", "_")


def _section_keys(section: str, cls, **names) -> list[ConfigKey]:
    """A key `<section>.<attr>` (or `<section>.<names[attr]>`) for each field
    of a nested config but its derived seed, parsed by the field's type."""
    types = get_type_hints(cls)
    return [ConfigKey(f"{section}.{names.get(f.name, f.name)}", f"{section}.{f.name}",
                      types[f.name]) for f in dataclasses.fields(cls) if f.name != "seed"]


# Every settable field except the derived seeds of the nested configs, in
# the order resolved.cfg echoes them.
CONFIG_KEYS: tuple[ConfigKey, ...] = (
    *_section_keys("gen", GenConfig, mean_labels_per_sample="mean_labels"),
    ConfigKey("noise.eta", "etas", _parse_list(float)),
    ConfigKey("noise.mode", "noise_mode", str),
    ConfigKey("split.trusted_fraction", "trusted_fraction", float),
    ConfigKey("data.test_fraction", "test_fraction", float),
    ConfigKey("data.single_label_limit", "single_label_limit",
              lambda v: None if v in ("unlimited", "none") else int(v)),
    *_section_keys("asl", AslParams),
    ConfigKey("model.hidden", "hidden", _parse_list(int)),
    ConfigKey("model.activation", "activation", str),
    *_section_keys("silver", TrainConfig),
    *_section_keys("gold", TrainConfig),
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
    """Parse a `key = value` config file; unknown or repeated keys and bad
    types/ranges are rejected with the offending line; missing keys take
    defaults. A rule that relates two settings is judged on the whole file."""
    default = ExperimentConfig()
    values: dict[str, dict] = {}  # section ("" for the top level) -> field -> value
    first_line: dict[str, int] = {}  # key name -> the line that set it
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
            if name in first_line:
                raise ValueError(f"key {name!r} repeats line {first_line[name]}")
            first_line[name] = lineno
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
    """Everything the pipeline needs after data preparation, and the memo of
    training trajectories (see `model.train`) that the runs sharing this
    object reuse. Each run adds its silver and gold loops to the memo unless
    they are there already; a loop holds epochs x parameters x 8 bytes,
    about 0.85 MB at the default config. A grid sets the memo of each group
    of cells, which forked workers may have filled ahead (see _prefetch):
    there, a stack of a group's C gold loops holds its C loops' snapshots
    and six (C, parameters) buffers at once, about 2.9 MB for C = 3."""

    gold: Dataset
    silver_clean: Dataset
    singles_pool: Dataset
    test: Dataset
    full: Dataset
    trajectories: dict = field(default_factory=dict)


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
    if multi_test.n == 0:
        raise ValueError(f"test_fraction {cfg.test_fraction!r} leaves no multi-label test "
                         f"samples of {full.n}")

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
# strung together. A file is valid only beside the files it was computed
# from, so each stage first clears its own RUN_FILES and every later one's:
# they match each file a stage or the staged CLI writes after gen-data, in
# pipeline order, and the `<file>.partial` a killed write leaves.
RUN_FILES = ("true_matrix.csv*", "silver_noisy.mlnl*", "empirical_matrix.csv*", "flips.csv*",
             "silver_model.mlpm*", "silver_metrics.csv*", "chat*", "gold_model.mlpm*",
             "metrics.csv*", "eval.csv*")


def clear_files(out, patterns) -> None:
    """Remove the files in the directory `out` that match the glob `patterns`."""
    for pattern in patterns:
        for path in Path(out).glob(pattern):
            path.unlink()


def _noisy_split(cfg: ExperimentConfig, silver_clean: Dataset, eta: float):
    """The silver split corrupted at noise ratio `eta`, its FlipLog and the
    symmetric matrix at `eta`."""
    spec = NoiseSpec(eta, seed=RandomStream(cfg.seed).derive_seed("noise"), mode=cfg.noise_mode)
    noisy, log = noise.inject(silver_clean, spec)
    return noisy, log, noise.symmetric_matrix(silver_clean.num_classes, eta)


def inject_noise(cfg: ExperimentConfig, out: Path, silver_clean: Dataset, eta: float):
    """Corrupt the silver split at noise ratio `eta` and write the symmetric
    matrix at `eta` to true_matrix.csv; returns (noisy, FlipLog, that matrix)."""
    clear_files(out, RUN_FILES)
    noisy, log, true_c = _noisy_split(cfg, silver_clean, eta)
    noise.write_matrix(true_c, out / "true_matrix.csv")
    return noisy, log, true_c


def _job(cfg: ExperimentConfig, stage: str, data: Dataset, loss_mode) -> tuple:
    """The first five arguments of the "silver" or "gold" stage's
    `model.train` on `data`: the stage's seeded initial model, the data, the
    loss mode, its TrainConfig with the derived seed, and cfg.asl."""
    root = RandomStream(cfg.seed)
    train_cfg = getattr(cfg, stage)
    model0 = init_model([data.num_features, *cfg.hidden, data.num_classes], cfg.activation,
                        train_cfg.init_scale, seed=root.derive_seed(f"{stage}-init"))
    return (model0, data, loss_mode,
            dataclasses.replace(train_cfg, seed=root.derive_seed(f"{stage}-train")), cfg.asl)


def _train_stage(cfg: ExperimentConfig, out: Path, stage: str, data: Dataset, loss_mode,
                 test: Dataset, metrics_file: str, memo: dict | None):
    clear_files(out, RUN_FILES[RUN_FILES.index(f"{stage}_model.mlpm*"):])
    model, history = train(*_job(cfg, stage, data, loss_mode), eval_data=test, memo=memo)
    save_model(model, out / f"{stage}_model.mlpm")
    write_metrics_csv(out / metrics_file, history)
    return model, history


def train_silver(cfg: ExperimentConfig, out: Path, silver_noisy: Dataset, test: Dataset,
                 memo: dict | None = None):
    """Plain ASL training on the noisy silver split; writes silver_model.mlpm
    and silver_metrics.csv and returns (model, history). With `memo`, a
    trajectory it holds replaces the batch loop (see `model.train`)."""
    return _train_stage(cfg, out, "silver", silver_noisy, "asl", test, "silver_metrics.csv",
                        memo)


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"estimator method must be one of {METHODS}, got {method!r}")


def estimate_correction(cfg: ExperimentConfig, out: Path, method: str,
                        true_matrix: CorruptionMatrix | None, gold: Dataset,
                        silver_model: MlpModel | None, singles_pool: Dataset | None,
                        silver_noisy: Dataset | None):
    """The correction matrix `method` trains the gold model with, and the
    estimation report behind it (written to chat.csv and chat_* once the
    RUN_FILES from chat* on are cleared); returns (matrix or None, report or None).

    galc_slr reads the silver model, the single-label pool and the
    estimation set (gold, or silver_noisy when cfg.estimation_set is
    "silver"); glc reads the silver model and gold; true_matrix trains with
    `true_matrix`, the matrix inject_noise wrote, which the others ignore.
    """
    _check_method(method)  # before an earlier estimate is removed
    clear_files(out, RUN_FILES[RUN_FILES.index("chat*"):])
    matrix, report = _correction(cfg, method, true_matrix, gold, silver_model, singles_pool,
                                 silver_noisy)
    if report is not None:
        estimator.write_report(report, out / "chat")
    if matrix is not None:
        noise.write_matrix(matrix, out / "chat.csv")
    return matrix, report


def _correction(cfg: ExperimentConfig, method: str, true_matrix: CorruptionMatrix | None,
                gold: Dataset, silver_model: MlpModel | None, singles_pool: Dataset | None,
                silver_noisy: Dataset | None):
    """estimate_correction's (matrix or None, report or None), with no file
    read or written."""
    if method == "none":
        return None, None
    if method == "true_matrix":
        return true_matrix, None
    if method == "galc_slr":
        regs = estimator.compute_regulators(silver_model, singles_pool)
        est_set = gold if cfg.estimation_set == "gold" else silver_noisy
        report = estimator.estimate_galc_slr(silver_model, est_set, regs)
    else:
        report = estimator.estimate_glc(silver_model, gold, cfg.glc_readout)
    return training_matrix(report, cfg.correction_form), report


def _gold_set(gold: Dataset, silver_noisy: Dataset, correction: CorruptionMatrix | None):
    """The gold stage's training set, gold rows then noisy silver rows, and
    its loss mode: plain ASL, or with a correction matrix, silver rows
    fitting M^T p and gold rows their own labels."""
    combined = Dataset(np.concatenate([gold.features, silver_noisy.features]),
                       np.concatenate([gold.labels, silver_noisy.labels]), tag="noisy")
    if correction is None:
        return combined, "asl"
    gold_mask = np.zeros(combined.n, dtype=bool)
    gold_mask[:gold.n] = True
    return combined, CorrectedMode(correction.matrix, gold_mask)


def train_gold(cfg: ExperimentConfig, out: Path, gold: Dataset, silver_noisy: Dataset,
               correction: CorruptionMatrix | None, test: Dataset, memo: dict | None = None):
    """Train on gold + noisy silver (see _gold_set). Writes gold_model.mlpm
    and metrics.csv and returns (model, history). With `memo`, a trajectory
    it holds replaces the batch loop (see `model.train`)."""
    combined, mode = _gold_set(gold, silver_noisy, correction)
    return _train_stage(cfg, out, "gold", combined, mode, test, "metrics.csv", memo)


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
    master seed, never on eta or method), and its memo the batch loops of an
    earlier run with the same inputs. A failed run leaves its resolved.cfg
    and no RUN_FILES file, an earlier run's included.
    """
    method = method or cfg.estimator_method
    _check_method(method)
    out = Path(outdir)
    t0 = time.perf_counter()
    try:
        run_dir(cfg, out)
        if data is None:
            data = _stage("prepare-data", lambda: prepare_data(cfg))
        silver_noisy, _, true_c = _stage("inject-noise", lambda: inject_noise(
            cfg, out, data.silver_clean, eta))
        f, _ = _stage("train-silver", lambda: train_silver(
            cfg, out, silver_noisy, data.test, data.trajectories))
        corr, report = _stage("estimate", lambda: estimate_correction(
            cfg, out, method, true_c, data.gold, f, data.singles_pool, silver_noisy))
        frob = None
        if corr is not None:
            estimate = corr if report is None else report.raw
            frob = estimator.compare_matrices(estimate, true_c).frobenius_distance
        _, g_hist = _stage("train-gold", lambda: train_gold(
            cfg, out, data.gold, silver_noisy, corr, data.test, data.trajectories))
    except BaseException:
        clear_files(out, RUN_FILES)
        raise
    return RunRecord(
        method=method, eta=eta,
        final=g_hist[-1].report, history=g_hist, frobenius_to_true=frob,
        wall_seconds=time.perf_counter() - t0)


_METHOD_LABELS = {"none": "ASL baseline", "galc_slr": "GALC-SLR", "true_matrix": "true matrix"}
SUMMARY_HEADER = "method,eta,map,cf1,of1,frobenius_to_true"


def _prefetch(group) -> dict:
    """Run the batch loops of a group of cells (config, eta, method, data)
    that share one inject and one silver loop ahead of their stages, from
    the stages' own inputs but with no file and no evaluation set: the
    silver loop, then each cell's correction matrix, then the gold loops,
    which `model.fill_memo` trains as one stack where only their loss modes
    differ; a sweep group's share the gold-init weights, the gold-train
    shuffle and the training rows. Returns the trajectory memo they fill,
    one entry per loop. A loop that raises leaves no entry, and a gold stack
    that raises leaves none for any of its cells, so each of their stages
    runs its loop alone and gets the bytes or the error it gets on one CPU."""
    memo: dict = {}
    first_cfg, eta, _, first = group[0]
    with contextlib.suppress(Exception):
        noisy, _, true_c = _noisy_split(first_cfg, first.silver_clean, eta)
        silver, _ = train(*_job(first_cfg, "silver", noisy, "asl"), memo=memo)
        jobs = []
        for sub, _, method, data in group:
            with contextlib.suppress(Exception):
                corr, _ = _correction(sub, method, true_c, data.gold, silver, data.singles_pool,
                                      noisy)
                jobs.append(_job(sub, "gold", *_gold_set(data.gold, noisy, corr)))
        fill_memo(jobs, memo)
    return memo


def _prefetched(runs, groups):
    """Yield (memo, seconds waited for it) for each group of `runs` (lists
    of indices), in order: the memo that a forked worker's _prefetch filled
    where two or more workers may run, else an empty one. ordered_map would
    run a lone item here, making each inject and estimate twice, so one
    group, or one CPU, runs its loops in its stages. A worker that dies or
    sends what cannot be read costs only speed: that group and every later
    one get an empty memo."""
    memos = None
    if min(textio.worker_limit(), len(groups)) > 1:
        memos = textio.ordered_map(_prefetch, [[runs[i] for i in g] for g in groups])
    try:
        for _ in groups:
            t0 = time.perf_counter()
            memo = {}
            if memos is not None:
                try:
                    memo = next(memos)
                except Exception:  # an EOFError for a killed worker, say
                    memos.close()
                    memos = None
            yield memo, time.perf_counter() - t0
    finally:
        if memos is not None:
            memos.close()


def _run_grid(cfg: ExperimentConfig, outdir, cells, outputs) -> list[tuple[str, RunRecord]]:
    """Run each cell (config, eta, method, run directory, label) through
    run_pipeline under `cfg`'s run directory `outdir`, once an earlier grid's
    files (those matching the glob patterns `outputs`, and failures.log) are
    removed and every split is prepared, once per run of cells that share a
    config. A failed cell is skipped, named in failures.log and left by
    run_pipeline with no RUN_FILES file beside its resolved.cfg; returns the
    (label, record) of every cell that finished, in cell order.

    Cells with the same noise ratio and silver split (by content), which is
    all that grids vary of the inject and silver loop's inputs, form a group
    with one trajectory memo, so the group runs that loop once. With two or
    more groups and textio.worker_limit() above 1, forked workers run each
    group's batch loops ahead (see _prefetched), and the group's cells then
    find every loop in the memo; their stages still make every other call
    and write every file here. The memo key, not the group, decides reuse,
    so a loop missing from the memo runs here. The time spent waiting for a
    group's memo is added to the wall_seconds of the first of the group's
    cells to finish."""
    out = run_dir(cfg, outdir)
    clear_files(out, (*outputs, "failures.log"))
    runs, groups = [], {}
    data_cfg = data = None
    for sub, eta, method, _, _ in cells:
        if sub is not data_cfg:
            data_cfg, data = sub, _stage("prepare-data", lambda: prepare_data(sub))
            split_digest = digest((), data.silver_clean.features, data.silver_clean.labels)
        groups.setdefault((eta, split_digest), []).append(len(runs))
        runs.append((sub, eta, method, data))
    groups = list(groups.values())
    done, failures = {}, {}
    with contextlib.closing(_prefetched(runs, groups)) as memos:
        for group, (memo, wait) in zip(groups, memos):
            for i in group:
                sub, eta, method, data = runs[i]
                _, _, _, rundir, label = cells[i]
                data.trajectories = memo
                try:
                    record = run_pipeline(sub, eta, out / rundir, method=method, data=data)
                except Exception as e:
                    failures[i] = f"{label} method={method}: {e}"
                    continue
                record.wall_seconds += wait
                wait = 0.0
                done[i] = label, record
            memo.clear()
    if failures:
        textio.write_lines(out / "failures.log", [failures[i] for i in sorted(failures)])
    return [done[i] for i in sorted(done)]


def run_sweep(cfg: ExperimentConfig, outdir) -> list[RunRecord]:
    """Grid over noise ratios and SWEEP_METHODS; emits summary.csv and SVG plots."""
    cells = [(cfg, e, m, f"eta{e!r}_{m}", f"eta={e!r}") for e in cfg.etas for m in SWEEP_METHODS]
    records = [rec for _, rec in _run_grid(cfg, outdir, cells, ("summary.csv", "sweep_*.svg"))]
    textio.write_lines(Path(outdir) / "summary.csv", [SUMMARY_HEADER, *(
        f"{r.method},{r.eta!r},{r.final.map!r},{r.final.cf1!r},{r.final.of1!r},"
        f"{'' if r.frobenius_to_true is None else repr(r.frobenius_to_true)}" for r in records)])
    if records:
        plot_sweep(outdir)
    return records


def _read_csv(path, header: str, parse_row) -> list:
    """The rows of a CSV file written under `header`, each parsed by
    `parse_row` from its fields and the (line, row) pairs above it; a
    malformed row raises ValueError at path:line, and a file without rows at path."""
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
            rows.append((lineno, parse_row(fields, rows)))
        except ValueError as e:
            raise textio.located(path, lineno, e) from None
    if not rows:
        raise textio.located(path, None, "no data rows")
    return [row for _, row in rows]


def _finite(name: str, text: str) -> float:
    value = textio.parse_number(name, text)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _summary_row(fields, above):
    method, eta, *scores, frobenius = fields
    if method not in SWEEP_METHODS:
        raise ValueError(f"method must be one of {SWEEP_METHODS}, got {method!r}")
    if frobenius:  # empty for a run without a correction matrix
        _finite("frobenius_to_true", frobenius)
    eta = _finite("eta", eta)
    for lineno, row in above:  # run_sweep writes one row per cell
        if row[:2] == (method, eta):
            raise ValueError(f"method {method} at eta {eta!r} repeats line {lineno}")
    return method, eta, {
        metric: _finite(metric, text) for metric, text in zip(("map", "cf1", "of1"), scores)}


def _epoch_row(fields, above):
    epoch = textio.parse_number("epoch", fields[0], int)
    if epoch != len(above) + 1:
        raise ValueError(f"expected epoch {len(above) + 1}, got {epoch}")
    return epoch, _finite("map", fields[2])


def plot_sweep(outdir) -> None:
    """Draw a sweep directory's SVGs from its files: the MAP, CF1 and OF1
    curves from summary.csv, with each method's points in noise-ratio order,
    and the per-epoch test mAP of every method's run at the highest noise ratio
    from that run's metrics.csv. Every file is read, and a non-finite eta,
    score or frobenius_to_true, a repeated method and eta, or an epoch out of
    the order 1, 2, ... rejected at path:line, before any SVG is drawn."""
    out = Path(outdir)
    cells: dict[str, dict[float, dict[str, float]]] = {}
    for method, eta, scores in sorted(
            _read_csv(out / "summary.csv", SUMMARY_HEADER, _summary_row), key=lambda r: r[1]):
        cells.setdefault(method, {})[eta] = scores
    methods = [m for m in SWEEP_METHODS if m in cells]
    top = max(max(c) for c in cells.values())
    memo_series = []
    for m in methods:
        if top in cells[m]:
            epochs = _read_csv(out / f"eta{top!r}_{m}" / "metrics.csv", METRICS_HEADER, _epoch_row)
            memo_series.append((_METHOD_LABELS[m], *zip(*epochs)))
    for metric in ("map", "cf1", "of1"):
        series = [(_METHOD_LABELS[m], list(cells[m]), [s[metric] for s in cells[m].values()])
                  for m in methods]
        svgplot.emit_plot(series, "line", out / f"sweep_{metric}.svg",
                          title=f"{metric.upper()} vs noise ratio",
                          xlabel="noise ratio", ylabel=metric.upper())
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
    the axis's field with every one of its methods; the SVG needs every cell."""
    if axis not in ABLATIONS:
        raise ValueError(f"axis must be one of {tuple(ABLATIONS)}")
    grid = ABLATIONS[axis]
    eta = cfg.ablation_eta
    cells = []
    for value, group in zip(grid.values, grid.groups):
        sub = dataclasses.replace(cfg, **{grid.field: value})
        cells += [(sub, eta, m, grid.rundir.format(value=value, group=group, method=m), group)
                  for m in grid.methods]
    done = _run_grid(cfg, outdir, cells, (f"ablation_{axis}.csv", f"ablation_{axis}.svg"))
    textio.write_lines(Path(outdir) / f"ablation_{axis}.csv", ["label,method,eta,map,cf1,of1", *(
        f"{group},{r.method},{eta!r},{r.final.map!r},{r.final.cf1!r},{r.final.of1!r}"
        for group, r in done)])
    if len(done) == len(cells):
        series = [(_METHOD_LABELS[m], grid.groups, [r.final.map for _, r in done if r.method == m])
                  for m in grid.methods]
        svgplot.emit_plot(series, "grouped_bar", Path(outdir) / f"ablation_{axis}.svg",
                          title=f"{grid.title} at eta={eta!r}", xlabel=grid.xlabel, ylabel="mAP")
    return [rec for _, rec in done]
