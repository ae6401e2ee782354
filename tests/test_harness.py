import dataclasses
import errno
import functools
import hashlib
import itertools
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mlnl import estimator, harness, model, noise, textio
from mlnl.datagen import Dataset, GenConfig, SplitSpec
from mlnl.estimator import estimate_glc
from mlnl.harness import (CONFIG_KEYS, ExperimentConfig, parse_config, prepare_data,
                          render_config, run_ablation, run_pipeline, run_sweep,
                          training_matrix)
from mlnl.model import AslParams, TrainConfig, init_model
from mlnl.noise import NoiseSpec, read_matrix
from test_cli import out_of_space_after_one


def tiny_config(seed=9, etas=(0.0, 0.3)) -> ExperimentConfig:
    return ExperimentConfig(
        gen=GenConfig(n=900, d=12, k=6, mean_labels_per_sample=2.2,
                      feature_noise_sigma=1.2, imbalance_exponent=1.0,
                      correlation_strength=0.6, seed=0),
        etas=etas,
        trusted_fraction=0.12,
        silver=TrainConfig(epochs=3, batch_size=32, lr=2e-3),
        gold=TrainConfig(epochs=3, batch_size=32, lr=2e-3),
        hidden=(16,), seed=seed)


def dispatched_cpu_features() -> dict:
    """numpy's map of SIMD feature name to whether this desk dispatches it."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


# numpy's AVX-512 dispatch levels: switching them off, and OpenBLAS to its
# Haswell kernels, makes a process compute as on an AVX2 desk
AVX512_FEATURES = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def tree_digest(root) -> str:
    """SHA-256 over the relative path and bytes of every file under root."""
    lines = [f"{p.relative_to(root).as_posix()} {hashlib.sha256(p.read_bytes()).hexdigest()}"
             for p in sorted(root.rglob("*")) if p.is_file()]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestParseConfig:
    def test_empty_file_gives_defaults_echoed(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = parse_config(path)
        default = ExperimentConfig()
        assert render_config(cfg) == render_config(default)
        echo = render_config(cfg)
        assert "gen.n = 12000" in echo
        assert "estimator.method = galc_slr" in echo

    def test_eta_assignment(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("noise.eta = 0.4\n")
        assert parse_config(path).etas == (0.4,)

    def test_eta_list(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("noise.eta = 0, 0.2, 0.4\n")
        assert parse_config(path).etas == (0.0, 0.2, 0.4)

    def test_largest_seed_accepted(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text(f"seed = {2**64 - 1}\n")
        assert parse_config(path).seed == 2**64 - 1

    def test_unlimited_limit(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("data.single_label_limit = unlimited\n")
        assert parse_config(path).single_label_limit is None

    def test_round_trips_through_echo(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "echo.cfg"
        textio.write_lines(path, render_config(cfg))
        back = parse_config(path)
        assert render_config(back) == render_config(cfg)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("\n# full line comment\n\ngen.k = 5\n")
        assert parse_config(path).gen.k == 5

    def test_related_settings_are_judged_on_the_whole_file(self, tmp_path):
        # gen.mean_labels (default 2.4) must not exceed gen.k: judged after the
        # last line, so lowering k before lowering the mean is fine (the
        # textio table's config-mean-above-k row checks the rejection)
        path = tmp_path / "a.cfg"
        path.write_text("gen.k = 2\ngen.mean_labels = 2.0\n")
        echo = render_config(parse_config(path))
        assert "gen.k = 2" in echo and "gen.mean_labels = 2.0" in echo


# The accepted interval (lo, hi, lo_open, hi_open) of every float key,
# written out independently of the key table.
FLOAT_RANGES = {
    "gen.mean_labels": (2.0, math.inf, False, True),  # GenConfig also checks <= gen.k
    "gen.feature_noise_sigma": (0.0, math.inf, True, True),
    "gen.imbalance_exponent": (0.0, math.inf, False, True),
    "gen.correlation_strength": (0.0, 1.0, False, False),
    "noise.eta": (0.0, 1.0, False, True),
    "split.trusted_fraction": (0.0, 1.0, True, True),
    "data.test_fraction": (0.0, 1.0, True, True),
    "asl.gamma_plus": (0.0, math.inf, False, True),
    "asl.gamma_minus": (0.0, math.inf, False, True),
    "asl.margin": (0.0, 1.0, False, True),
    "asl.clamp_eps": (0.0, 1e-3, True, False),
    "silver.lr": (0.0, math.inf, False, True),
    "silver.init_scale": (0.0, math.inf, False, True),
    "gold.lr": (0.0, math.inf, False, True),
    "gold.init_scale": (0.0, math.inf, False, True),
    "ablation.eta": (0.0, 1.0, False, True),
}


def inside(key, v):
    lo, hi, lo_open, hi_open = FLOAT_RANGES[key]
    return (lo < v if lo_open else lo <= v) and (v < hi if hi_open else v <= hi)


rejected_floats = st.sampled_from(sorted(FLOAT_RANGES)).flatmap(lambda key: st.tuples(
    st.just(key),
    st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
              st.floats().filter(lambda v: not inside(key, v)))))


def value_pool(key) -> list:
    """Values that probe the rule of `key`: NaN, the infinities, -1, 0, the
    ends of its range and their float neighbours, and unknown choices."""
    default = key.get(ExperimentConfig())
    floats = [math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 1e-7, 1e-3, 0.5, 1.0, 2.0, 3.0]
    for end in FLOAT_RANGES.get(key.name, ())[:2]:
        if math.isfinite(end):
            floats += [math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)]
    if key.name == "noise.eta":
        return [(), (0.2, 0.2), (0.0, -0.0), (0.1, 0.5), *((v,) for v in floats)]
    if key.name == "model.hidden":
        return [(), (0,), (-1,), (1,), (8, 4), (8, 0)]
    if key.name == "data.single_label_limit":
        return [None, -1, 0, 1, 2]
    if isinstance(default, float):
        return floats
    if isinstance(default, int):
        return [-1, 0, 1, 2, 3, *([2**64 - 1, 2**64] if key.name == "seed" else [])]
    return ["", "bogus", "adam", "sgd", "tanh", "relu", "exact_count", "bernoulli", "softmax",
            "sigmoid", "gold", "silver", "galc_slr", "glc", "true_matrix", "none", "scaled",
            "raw", "normalized_raw"]


def rejects(call) -> bool:
    try:
        call()
    except ValueError:
        return True
    return False


# Library calls that take a key's setting outside ExperimentConfig.
ONE_SAMPLE = Dataset(np.zeros((1, 2)), np.array([[1, 0]]))
LIBRARY_TWINS = {
    "split.trusted_fraction": lambda v: SplitSpec(v).validate(),
    "noise.mode": lambda v: NoiseSpec(0.0, mode=v).validate(),
    "ablation.eta": lambda v: NoiseSpec(v).validate(),
    "model.activation": lambda v: init_model([2, 2], v),
    "estimator.glc_readout": lambda v: estimate_glc(init_model([2, 2]), ONE_SAMPLE, v),
}


class TestKeyTable:
    def test_file_and_library_reject_the_same_values(self, tmp_path):
        """A config file line rejects a value exactly when the dataclass that
        owns the setting (and any library call that takes it) rejects it."""
        path = tmp_path / "one.cfg"
        disagree = []
        for key in CONFIG_KEYS:
            section, _, attr = key.field.rpartition(".")
            owner = getattr(ExperimentConfig(), section) if section else ExperimentConfig()
            for value in value_pool(key):
                textio.write_lines(path, [f"{key.name} = {harness._fmt_value(value)}"])
                by_file = rejects(lambda: parse_config(path))
                by_owner = rejects(
                    lambda: dataclasses.replace(owner, **{attr: value}).validate())
                twin = LIBRARY_TWINS.get(key.name)
                by_twin = rejects(lambda: twin(value)) if twin else by_file
                if not by_file == by_owner == by_twin:
                    disagree.append((key.name, value, by_file, by_owner, by_twin))
        assert disagree == []

    def test_every_ruled_field_has_one_key(self):
        """Every field with a rule, at any depth below ExperimentConfig and
        other than the derived seeds, is set by exactly one key, and every
        key but `out` sets a field with a rule."""
        ruled = []

        def walk(obj, prefix):
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if dataclasses.is_dataclass(value):
                    walk(value, f"{prefix}{f.name}.")
                elif "rule" in f.metadata and not (prefix and f.name == "seed"):
                    ruled.append(prefix + f.name)

        walk(ExperimentConfig(), "")
        keyed = Counter(key.field for key in CONFIG_KEYS)
        assert Counter(ruled) == keyed - Counter(["out"])
        assert set(keyed.values()) == {1}

    def test_every_settable_field_has_one_key(self):
        fields = []
        for f in dataclasses.fields(ExperimentConfig):
            value = getattr(ExperimentConfig(), f.name)
            if dataclasses.is_dataclass(value):
                # the nested seeds are derived from the master seed, never set
                fields += [f"{f.name}.{g.name}" for g in dataclasses.fields(value)
                           if g.name != "seed"]
            else:
                fields.append(f.name)
        assert Counter(key.field for key in CONFIG_KEYS) == Counter(fields)
        assert len({key.name for key in CONFIG_KEYS}) == len(CONFIG_KEYS)

    def test_every_float_key_has_a_range_here(self):
        default = ExperimentConfig()
        floats = {key.name for key in CONFIG_KEYS
                  if isinstance(key.get(default), float)
                  or isinstance(key.get(default), tuple) and isinstance(key.get(default)[0], float)}
        assert floats == set(FLOAT_RANGES)

    def test_non_default_values_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            gen=GenConfig(n=500, d=7, k=6, mean_labels_per_sample=2.5, feature_noise_sigma=0.9,
                          imbalance_exponent=0.5, correlation_strength=0.3, seed=0),
            etas=(0.1, 0.5), noise_mode="bernoulli", trusted_fraction=0.2, test_fraction=0.3,
            single_label_limit=25,
            asl=AslParams(gamma_plus=1.0, gamma_minus=2.0, margin=0.1, clamp_eps=1e-6),
            hidden=(8, 4), activation="relu",
            silver=TrainConfig(epochs=3, batch_size=16, lr=0.01, optimizer="sgd", init_scale=0.5),
            gold=TrainConfig(epochs=4, batch_size=32, lr=0.005, optimizer="sgd", init_scale=2.0),
            estimator_method="glc", estimation_set="silver", glc_readout="sigmoid",
            correction_form="raw", ablation_eta=0.2, seed=11, out="elsewhere")
        default = ExperimentConfig()
        assert [key.name for key in CONFIG_KEYS if key.get(cfg) == key.get(default)] == []
        path = tmp_path / "all.cfg"
        textio.write_lines(path, render_config(cfg))
        back = parse_config(path)
        assert render_config(back) == render_config(cfg)
        for key in CONFIG_KEYS:
            assert key.get(back) == key.get(cfg), key.name

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rejected_floats)
    def test_non_finite_and_out_of_range_floats_cite_the_line(self, tmp_path, key_value):
        key, value = key_value
        path = tmp_path / "bad.cfg"
        path.write_text(f"# one bad value\n{key} = {value!r}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: {re.escape(key)} "):
            parse_config(path)

    def test_validate_rejects_what_parsing_rejects(self):
        """Building a config object runs validate(), so the bad value never lands."""
        for build in (lambda: dataclasses.replace(ExperimentConfig(), trusted_fraction=math.nan),
                      lambda: dataclasses.replace(ExperimentConfig(),
                                                  gold=TrainConfig(lr=math.inf)),
                      lambda: dataclasses.replace(ExperimentConfig(),
                                                  asl=AslParams(margin=math.nan))):
            with pytest.raises(ValueError, match="must be in"):
                build()

    @pytest.mark.parametrize("field, value", [("mean_labels_per_sample", math.nan),
                                              ("feature_noise_sigma", math.nan),
                                              ("feature_noise_sigma", math.inf)])
    def test_gen_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(ExperimentConfig().gen, **{field: value})

    @pytest.mark.parametrize("field", ["n", "d", "k", "epochs", "batch_size",
                                       "single_label_limit", "seed", "hidden"])
    def test_integer_fields_reject_non_integers(self, field):
        build = {"n": lambda v: GenConfig(n=v, d=2, k=4),
                 "d": lambda v: GenConfig(n=10, d=v, k=4),
                 "k": lambda v: GenConfig(n=10, d=2, k=v),
                 "epochs": lambda v: TrainConfig(epochs=v),
                 "batch_size": lambda v: TrainConfig(batch_size=v),
                 "single_label_limit": lambda v: ExperimentConfig(single_label_limit=v),
                 "seed": lambda v: ExperimentConfig(seed=v),
                 "hidden": lambda v: ExperimentConfig(hidden=(4, v))}[field]
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got 10\.5$"):
            build(10.5)
        build(np.int64(3))  # numpy integers are integers

    def test_asl_params_reject_nan_focusing(self):
        with pytest.raises(ValueError, match="gamma_minus"):
            AslParams(gamma_minus=math.nan).validate()


class TestPrepareData:
    def test_split_sizes_and_purity(self):
        cfg = tiny_config()
        data = prepare_data(cfg)
        n_test_target = round(cfg.test_fraction * cfg.gen.n)
        # test split is stripped to multi-label samples afterwards
        assert data.test.n <= n_test_target
        assert np.all(data.test.cardinalities() >= 2)
        assert np.all(data.gold.cardinalities() >= 2)
        assert np.all(data.singles_pool.cardinalities() == 1)
        assert data.gold.n == round(cfg.trusted_fraction * (data.gold.n + data.silver_clean.n))

    def test_deterministic_given_master_seed(self):
        a = prepare_data(tiny_config(seed=5))
        b = prepare_data(tiny_config(seed=5))
        np.testing.assert_array_equal(a.gold.features, b.gold.features)
        np.testing.assert_array_equal(a.silver_clean.labels, b.silver_clean.labels)

    def test_limit_respected_in_pool(self):
        cfg = dataclasses.replace(tiny_config(), single_label_limit=3)
        data = prepare_data(cfg)
        assert np.all(data.singles_pool.labels.sum(axis=0) <= 3)


class TestRunPipeline:
    @pytest.mark.parametrize("method", ["none", "galc_slr", "glc", "true_matrix"])
    def test_all_methods_produce_artifacts(self, tmp_path, method):
        cfg = tiny_config()
        rec = run_pipeline(cfg, 0.3, tmp_path / method, method=method)
        assert (tmp_path / method / "metrics.csv").exists()
        assert (tmp_path / method / "silver_model.mlpm").exists()
        assert (tmp_path / method / "gold_model.mlpm").exists()
        assert (tmp_path / method / "true_matrix.csv").exists()
        assert (tmp_path / method / "resolved.cfg").exists()
        assert 0.0 <= rec.final.map <= 1.0
        if method in ("galc_slr", "glc"):
            assert (tmp_path / method / "chat_raw.csv").exists()
            assert (tmp_path / method / "chat_scaled.csv").exists()
            assert (tmp_path / method / "chat.csv").exists()
            assert rec.frobenius_to_true is not None
        if method == "none":
            assert rec.frobenius_to_true is None
        if method == "true_matrix":
            assert rec.frobenius_to_true == 0.0

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="estimator method must be one of"):
            run_pipeline(tiny_config(), 0.3, tmp_path / "x", method="bogus")
        assert not (tmp_path / "x").exists()

    def test_metrics_csv_schema(self, tmp_path):
        cfg = tiny_config()
        run_pipeline(cfg, 0.3, tmp_path / "r", method="none")
        lines = (tmp_path / "r" / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,split,map,cf1,of1,loss"
        assert len(lines) == 1 + cfg.gold.epochs
        assert lines[1].split(",")[1] == "test"

    def test_baseline_never_reads_single_label_pool(self, tmp_path, monkeypatch):
        import mlnl.estimator as est

        def boom(*a, **k):
            raise AssertionError("baseline touched the single-label pool")

        monkeypatch.setattr(est, "compute_regulators", boom)
        rec = run_pipeline(tiny_config(), 0.3, tmp_path / "r", method="none")
        assert rec.method == "none"

    def test_identity_true_matrix_matches_baseline_trajectory(self, tmp_path):
        """At eta=0 the true matrix is the identity: at the default config the
        true_matrix run reuses the `none` run's gold loop and writes its bytes."""
        cfg = ExperimentConfig()
        data = prepare_data(cfg)
        for method in ("none", "true_matrix"):
            run_pipeline(cfg, 0.0, tmp_path / method, method=method, data=data)
        assert len(data.trajectories) == 2  # one silver and one gold loop
        for name in ("metrics.csv", "gold_model.mlpm"):
            assert (tmp_path / "none" / name).read_bytes() == \
                (tmp_path / "true_matrix" / name).read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stage_errors_are_labeled(self, tmp_path):
        cfg = tiny_config()
        bad = dataclasses.replace(cfg, etas=(0.3,),
                                  gold=TrainConfig(epochs=3, batch_size=32, lr=1e308))
        with pytest.raises(RuntimeError, match="train-gold"):
            run_pipeline(bad, 0.3, tmp_path / "x", method="none")

    def test_a_failed_run_leaves_no_earlier_result(self, tmp_path, monkeypatch):
        """A run that fails at its estimate, in a directory that holds a
        finished run and the staged CLI's silver datasets, leaves its own
        resolved.cfg, the clean silver split that no stage writes, and no
        RUN_FILES file of either run: the noisy split is inject's output."""
        cfg = tiny_config()
        run_pipeline(cfg, 0.3, tmp_path, method="galc_slr")
        for name in ("silver_clean.mlnl", "silver_noisy.mlnl"):
            (tmp_path / name).write_text("a staged run's dataset\n")

        def fail(model, pool):
            raise ValueError("regulators unavailable")

        monkeypatch.setattr(estimator, "compute_regulators", fail)
        failing = dataclasses.replace(cfg, trusted_fraction=0.2)
        with pytest.raises(RuntimeError, match="pipeline stage 'estimate' failed"):
            run_pipeline(failing, 0.3, tmp_path, method="galc_slr")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "resolved.cfg", "silver_clean.mlnl"]
        assert (tmp_path / "resolved.cfg").read_text().splitlines() == render_config(failing)

    def test_correction_matrix_reloadable(self, tmp_path):
        cfg = tiny_config()
        run_pipeline(cfg, 0.3, tmp_path / "g", method="galc_slr")
        cm = read_matrix(tmp_path / "g" / "chat.csv")
        assert cm.k == cfg.gen.k

    @pytest.mark.parametrize("method", ["none", "galc_slr"])
    def test_estimate_removes_an_earlier_estimate(self, tmp_path, monkeypatch, method):
        # a none run, and a galc_slr run that fails, leave no chat* file behind
        for name in ("chat.csv", "chat_raw.csv", "chat_scaled.csv", "chat_info.txt"):
            (tmp_path / name).write_text("an earlier estimate\n")

        def fail(model, pool):
            raise ValueError("regulators unavailable")

        monkeypatch.setattr(estimator, "compute_regulators", fail)
        if method == "none":
            assert harness.estimate_correction(tiny_config(), tmp_path, method,
                                               None, None, None, None, None) == (None, None)
        else:
            with pytest.raises(ValueError, match="regulators unavailable"):
                harness.estimate_correction(tiny_config(), tmp_path, method,
                                            None, None, None, None, None)
        assert list(tmp_path.iterdir()) == []

    def test_estimate_rejects_an_unknown_method_before_removing_anything(self, tmp_path):
        (tmp_path / "chat.csv").write_text("an earlier estimate\n")
        with pytest.raises(ValueError, match="estimator method must be one of .*got 'bogus'"):
            harness.estimate_correction(tiny_config(), tmp_path, "bogus",
                                        None, None, None, None, None)
        assert [p.name for p in tmp_path.iterdir()] == ["chat.csv"]


@pytest.fixture
def plain_batches(monkeypatch):
    """A function giving the number of batches trained with the plain loss
    so far (a silver stage's, or the gold stage's of a `none` run or of a
    run whose matrix is the identity), in this process and in every worker
    it forks, spied on _Objective.loss, which every batch of a stack calls
    once: a batch counts once per plain cell."""
    calls = multiprocessing.Value("q", 0)  # shared memory, which forked workers inherit
    loss = model._Objective.loss

    def spy(self, *args, **kwargs):
        with calls.get_lock():
            calls.value += sum(m is None for m in self.matrices)
        return loss(self, *args, **kwargs)

    monkeypatch.setattr(model._Objective, "loss", spy)
    return lambda: calls.value


def silver_batches(cfg: ExperimentConfig, silver: Dataset) -> int:
    return cfg.silver.epochs * math.ceil(silver.n / cfg.silver.batch_size)


class TestSilverReuse:
    """Runs that share one SplitArtifacts, and the cells of one grid, run
    each distinct silver batch loop once and still write every file."""

    def test_runs_sharing_data_run_each_silver_loop_once(self, tmp_path, plain_batches):
        cfg = tiny_config()
        data = prepare_data(cfg)
        batches = silver_batches(cfg, data.silver_clean)
        for eta, method, loops in ((0.3, "galc_slr", 1), (0.3, "true_matrix", 1),
                                   (0.0, "galc_slr", 2)):
            run_pipeline(cfg, eta, tmp_path / f"{eta}_{method}", method=method, data=data)
            assert plain_batches() == loops * batches
        run_pipeline(cfg, 0.3, tmp_path / "fresh", method="true_matrix")
        assert tree_digest(tmp_path / "0.3_true_matrix") == tree_digest(tmp_path / "fresh")

    def test_fresh_data_runs_the_silver_loop_again(self, tmp_path, plain_batches):
        """No trajectory outlives its SplitArtifacts: model and harness keep
        no module-level cache, so a benchmark that prepares data for each
        iteration times every loop."""
        def state():
            return {(mod.__name__, name): repr(v) if isinstance(v, (dict, list, set)) else id(v)
                    for mod in (model, harness) for name, v in vars(mod).items()
                    if not name.startswith("__")}

        cfg = tiny_config()
        before = state()
        batches = silver_batches(cfg, prepare_data(cfg).silver_clean)
        for runs in (1, 2):
            run_pipeline(cfg, 0.3, tmp_path / str(runs), method="galc_slr")
            assert plain_batches() == runs * batches
        assert state() == before
        assert not [name for mod in (model, harness) for name, v in vars(mod).items()
                    if hasattr(v, "cache_info")]  # no functools cache either

    @pytest.mark.parametrize("axis,splits", [("limit", 1), ("trusted", 2)])
    def test_a_grid_runs_each_distinct_silver_loop_once(self, tmp_path, plain_batches, axis,
                                                        splits, monkeypatch):
        self.check_grid(tmp_path, plain_batches, axis, splits, monkeypatch, cpus=1)

    @pytest.mark.parametrize("axis,splits", [("limit", 1), ("trusted", 2)])
    def test_a_grid_runs_each_distinct_silver_loop_once_in_forked_workers(
            self, tmp_path, plain_batches, axis, splits, monkeypatch):
        """The axis at two noise ratios: one group per ratio and silver split."""
        self.check_grid(tmp_path, plain_batches, axis, splits, monkeypatch, cpus=2,
                        etas=(0.0, 0.3))

    @staticmethod
    def check_grid(tmp_path, plain_batches, axis, splits, monkeypatch, cpus, etas=None):
        monkeypatch.setattr(textio, "_usable_cpus", lambda: cpus)
        cfg = tiny_config(etas=(0.3,))
        cfg.ablation_eta = 0.3
        grid = harness.ABLATIONS[axis]
        batches = {}  # the silver split's bytes -> its batches per loop
        identity = 0  # the batches of the plain gold loops of true_matrix cells at eta 0
        for value in grid.values:
            sub = dataclasses.replace(cfg, **{grid.field: value})
            data = prepare_data(sub)
            silver = data.silver_clean
            batches[silver.features.tobytes() + silver.labels.tobytes()] = \
                silver_batches(sub, silver)
            if 0.0 in (etas or ()) and "true_matrix" in grid.methods:
                identity += sub.gold.epochs * math.ceil((data.gold.n + silver.n) /
                                                        sub.gold.batch_size)
        assert len(batches) == splits
        if etas is None:
            run_ablation(cfg, axis, tmp_path)
        else:
            ablation_at(cfg, axis, etas, tmp_path)
        assert plain_batches() == len(etas or (0.3,)) * sum(batches.values()) + identity


def ablation_at(cfg: ExperimentConfig, axis: str, etas, out):
    """Run an ablation axis's cells at each of `etas` as one grid, which has
    a group per noise ratio and silver split, each cell labelled with its
    noise ratio and axis label, as in `eta=0.3 L10`; returns the records."""
    grid = harness.ABLATIONS[axis]
    cells = []
    for value, group in zip(grid.values, grid.groups):
        sub = dataclasses.replace(cfg, **{grid.field: value})
        cells += [(sub, eta, m, f"eta{eta!r}_{group}_{m}", f"eta={eta!r} {group}")
                  for eta in etas for m in grid.methods]
    return [rec for _, rec in harness._run_grid(cfg, out, cells, ())]


class TestTrainingMatrix:
    def test_forms(self):
        import mlnl.estimator as est
        from mlnl.model import init_model
        from test_estimator import single_label_pool

        pool = single_label_pool(5, seed=30)
        m = init_model([5, 7, 6], "tanh", 1.0, seed=30)
        rep = est.estimate_galc_slr(m, pool, est.compute_regulators(m, pool))
        assert training_matrix(rep, "raw") is rep.raw
        assert training_matrix(rep, "scaled") is rep.scaled
        norm = training_matrix(rep, "normalized_raw")
        np.testing.assert_allclose(norm.matrix.sum(axis=1), 1.0, atol=1e-12)
        with pytest.raises(ValueError):
            training_matrix(rep, "magic")


class TestRunSweep:
    def test_counts_and_artifacts(self, tmp_path):
        cfg = tiny_config(etas=(0.0, 0.2, 0.4))
        records = run_sweep(cfg, tmp_path)
        assert len(records) == 9
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "method,eta,map,cf1,of1,frobenius_to_true"
        assert len(summary) == 10
        svgs = list(tmp_path.glob("*.svg"))
        assert len(svgs) >= 4

    def test_clean_sweep_removes_an_earlier_failures_log(self, tmp_path):
        (tmp_path / "failures.log").write_text("eta=0.0 method=galc_slr: an earlier failure\n")
        records = run_sweep(tiny_config(etas=(0.0,)), tmp_path)
        assert len(records) == len(harness.SWEEP_METHODS)
        assert not (tmp_path / "failures.log").exists()

    def test_failed_rerun_removes_the_earlier_plots(self, tmp_path, monkeypatch):
        cfg = tiny_config(etas=(0.0,))
        run_sweep(cfg, tmp_path)
        assert len(list(tmp_path.glob("sweep_*.svg"))) == 4

        def fail(*args, **kwargs):
            raise ValueError("no cell finishes")

        monkeypatch.setattr(harness, "run_pipeline", fail)
        assert run_sweep(cfg, tmp_path) == []
        assert (tmp_path / "summary.csv").read_text() == harness.SUMMARY_HEADER + "\n"
        assert not list(tmp_path.glob("*.svg"))

    def test_failed_preparation_leaves_no_earlier_outputs(self, tmp_path, monkeypatch):
        cfg = tiny_config(etas=(0.0,))
        run_sweep(cfg, tmp_path)
        (tmp_path / "failures.log").write_text("eta=0.0 method=none: an earlier failure\n")

        def fail(c):
            raise ValueError("no data")

        monkeypatch.setattr(harness, "prepare_data", fail)
        with pytest.raises(RuntimeError, match="pipeline stage 'prepare-data' failed: no data"):
            run_sweep(cfg, tmp_path)
        # only resolved.cfg is left; the cells' run directories are theirs to clean
        assert [p.name for p in tmp_path.iterdir() if p.is_file()] == ["resolved.cfg"]

    def test_replay_byte_identical_summary(self, tmp_path):
        cfg = tiny_config(etas=(0.0, 0.3))
        run_sweep(cfg, tmp_path / "a")
        run_sweep(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "summary.csv").read_bytes() == \
               (tmp_path / "b" / "summary.csv").read_bytes()
        # every file, plots included, pinned while the sweep still drew its
        # plots from its in-memory records; never re-pin
        assert tree_digest(tmp_path / "a") == \
            "c86859ebb74422078d8a73f0b1d95c516e4f1e0b3a254c597a1e20b21c6aa3ae"


    @pytest.mark.skipif(not all(dispatched_cpu_features().get(f) for f in AVX512_FEATURES),
                        reason=f"numpy does not dispatch {', '.join(AVX512_FEATURES)} here")
    def test_rank_metrics_hold_on_an_emulated_avx2_desk(self, tmp_path):
        """The sweep's summary.csv and the epoch, split, map, cf1 and of1
        columns of every metrics file are the same bytes without AVX-512;
        the loss column, checkpoints and matrices may round differently."""
        cfg = tmp_path / "tiny.cfg"
        textio.write_lines(cfg, render_config(tiny_config()))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {k: v for k, v in os.environ.items()
               if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        desks = {"native": env, "avx2": dict(env, OPENBLAS_CORETYPE="Haswell",
                                             NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_FEATURES))}
        for desk, desk_env in desks.items():
            done = subprocess.run([sys.executable, "-m", "mlnl", "--config", str(cfg),
                                   "--out", str(tmp_path / desk), "sweep"],
                                  env=desk_env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr

        def rank_bytes(root):
            files = {"summary.csv": (root / "summary.csv").read_bytes()}
            for path in sorted(root.glob("*/*metrics.csv")):
                files[path.relative_to(root).as_posix()] = [
                    line.split(b",")[:5] for line in path.read_bytes().splitlines()]
            return files

        native = rank_bytes(tmp_path / "native")
        assert sum(name.endswith("/metrics.csv") for name in native) == \
            len(tiny_config().etas) * len(harness.SWEEP_METHODS)
        assert rank_bytes(tmp_path / "avx2") == native


class TestPrefetch:
    """With 2 usable CPUs, forked workers run a grid's batch loops ahead and
    the grid's stages replay them from the memo, in this process."""

    def test_a_group_trains_its_gold_loops_as_one_stack(self, tmp_path, monkeypatch):
        """_prefetch swallows every exception, so a stack that failed would
        only cost speed: the group's gold loops would run one by one in the
        stages. Run inline, a sweep group of three cells makes one loss call
        per silver batch and one per gold batch, and its stages then find
        every loop in the memo."""
        cfg = tiny_config(etas=(0.3,))
        data = prepare_data(cfg)
        calls = []
        loss = model._Objective.loss
        monkeypatch.setattr(model._Objective, "loss",
                            lambda self, *a, **k: calls.append(len(self.matrices)) or
                            loss(self, *a, **k))
        memo = harness._prefetch([(cfg, 0.3, m, data) for m in harness.SWEEP_METHODS])
        gold_n = data.gold.n + data.silver_clean.n  # gold rows, then noisy silver rows
        gold_batches = cfg.gold.epochs * math.ceil(gold_n / cfg.gold.batch_size)
        assert len(memo) == 4
        assert Counter(calls) == {1: silver_batches(cfg, data.silver_clean), 3: gold_batches}
        calls.clear()
        data.trajectories = memo
        for method in harness.SWEEP_METHODS:
            run_pipeline(cfg, 0.3, tmp_path / method, method=method, data=data)
        assert calls == []

    @pytest.mark.parametrize("none_fails", [False, True], ids=["clean", "none-fails"])
    def test_the_wait_for_a_memo_goes_to_the_first_cell_to_finish(self, tmp_path,
                                                                  monkeypatch, none_fails):
        """Each group's wait for its memo, here 100 s, is added to the
        wall_seconds of the first of its cells to finish: `none`, or
        `galc_slr` when `none`'s gold stage fails."""
        def prefetched(runs, groups):
            for _ in groups:
                yield {}, 100.0

        monkeypatch.setattr(harness, "_prefetched", prefetched)
        if none_fails:
            train_gold = harness.train_gold

            def refuse_plain(cfg, out, gold, silver_noisy, correction, *rest):
                if correction is None:
                    raise ValueError("refused")
                return train_gold(cfg, out, gold, silver_noisy, correction, *rest)

            monkeypatch.setattr(harness, "train_gold", refuse_plain)
        etas = (0.0, 0.3)
        records = run_sweep(tiny_config(etas=etas), tmp_path)
        methods = ["galc_slr", "true_matrix"] if none_fails else list(harness.SWEEP_METHODS)
        assert [(r.eta, r.method) for r in records] == [(e, m) for e in etas for m in methods]
        assert [(r.eta, r.method) for r in records if r.wall_seconds >= 100.0] == \
            [(e, methods[0]) for e in etas]


def grid_cells(grid) -> tuple[str | None, list[tuple[str, str, str, int]]]:
    """The table that `grid`, an (axis, noise ratios) pair with "sweep" for
    an axis, writes (None for an ablation axis at two ratios, which
    ablation_at runs), and each of its cells' (run directory, label, method,
    group): groups number the runs of cells that share a noise ratio and a
    silver split, which only the trusted fraction changes, in cell order."""
    axis, etas = grid
    if axis == "sweep":
        table = "summary.csv"
        cells = [(f"eta{e!r}_{m}", f"eta={e!r}", m, (e, None))
                 for e in etas for m in harness.SWEEP_METHODS]
    else:
        ab = harness.ABLATIONS[axis]
        table = f"ablation_{axis}.csv" if len(etas) == 1 else None
        cells = [(ab.rundir.format(value=value, group=group, method=m) if table else
                  f"eta{e!r}_{group}_{m}", group if table else f"eta={e!r} {group}", m,
                  (e, value if ab.field == "trusted_fraction" else None))
                 for value, group in zip(ab.values, ab.groups) for e in etas for m in ab.methods]
    keys = list(dict.fromkeys(key for *_, key in cells))
    return table, [(rundir, label, m, keys.index(key)) for rundir, label, m, key in cells]


def run_grid(grid, out) -> None:
    """Run `grid` (see grid_cells) on a config small enough for a property's
    examples."""
    axis, etas = grid
    cfg = tiny_config(etas=etas if axis == "sweep" else (0.3,))
    cfg.gen = dataclasses.replace(cfg.gen, n=500)
    cfg.silver = cfg.gold = TrainConfig(epochs=2, batch_size=32, lr=2e-3)
    cfg.ablation_eta = etas[0]
    if axis == "sweep":
        run_sweep(cfg, out)
    elif len(etas) == 1:
        run_ablation(cfg, axis, out)
    else:
        ablation_at(cfg, axis, etas, out)


def tree_files(root) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def instrument(mp, root, failing_write=None) -> SimpleNamespace:
    """Record what this process, and no worker it forks, does while a grid
    runs under `root`: `events`, ("write", path relative to root) for each
    textio.write_lines call and (stage, run directory) for each
    harness._train_stage call, in order; `keys`, the trajectory key of each
    such stage's batch loop and `plain`, the stages whose loop has no
    correction matrix; `batches`, the _Objective.loss calls made in
    each such stage; `calls`, a Counter of the calls to
    noise.inject, the regulators, the GALC-SLR estimate and `forward`, and,
    as "ordered_map", of the items textio.ordered_map is handed. With
    `failing_write` w, the w-th write runs out of disk after one line."""
    seen = SimpleNamespace(events=[], keys={}, plain=set(), batches=Counter(), calls=Counter(),
                           stage=None)

    def here() -> bool:
        return not multiprocessing.current_process().daemon

    write_lines, train_stage = textio.write_lines, harness._train_stage
    loss, ordered_map = model._Objective.loss, textio.ordered_map

    def write(path, lines):
        if here():
            if sum(kind == "write" for kind, _ in seen.events) == failing_write:
                lines = out_of_space_after_one(lines, path)
            seen.events.append(("write", Path(path).relative_to(root).as_posix()))
        write_lines(path, lines)

    def stage(cfg, out, name, data, loss_mode, *rest):
        if here():
            seen.stage = (name, out.name)
            seen.events.append(seen.stage)
            cell = model._Cell.of(*harness._job(cfg, name, data, loss_mode))
            seen.keys[seen.stage] = model._trajectory_key(cell)
            if cell.m is None:
                seen.plain.add(seen.stage)
        return train_stage(cfg, out, name, data, loss_mode, *rest)

    def batch(self, *args, **kwargs):
        if here():
            seen.batches[seen.stage] += 1
        return loss(self, *args, **kwargs)

    def mapped(fn, items):
        seen.calls.update(ordered_map=len(items))
        return ordered_map(fn, items)

    def counted(name, fn):
        def call(*args, **kwargs):
            if here():
                seen.calls[name] += 1
            return fn(*args, **kwargs)
        return call

    mp.setattr(textio, "write_lines", write)
    mp.setattr(harness, "_train_stage", stage)
    mp.setattr(model._Objective, "loss", batch)
    mp.setattr(textio, "ordered_map", mapped)
    # every site the harness's stages reach these through
    for owner, attr, name in ((noise, "inject", "noise.inject"),
                              (estimator, "compute_regulators", "regulators"),
                              (estimator, "estimate_galc_slr", "estimate"),
                              (model, "forward", "forward"), (estimator, "forward", "forward")):
        mp.setattr(owner, attr, counted(name, getattr(owner, attr)))
    return seen


# Every grid that faulted_grids draws: a sweep at 1-3 of three noise
# ratios, or an ablation axis (the limit axis at one or two ratios).
GRIDS = (*(("sweep", etas) for etas in ((0.0,), (0.3,), (0.5,), (0.0, 0.3), (0.0, 0.5),
                                       (0.3, 0.5), (0.0, 0.3, 0.5))),
         ("trusted", (0.3,)), ("limit", (0.3,)), ("limit", (0.0, 0.3)))


@st.composite
def faulted_grids(draw):
    """One of GRIDS, a count of usable CPUs, one fault and whether the grid
    runs over an earlier clean run of itself. The grid is drawn whole from
    one list: a set of noise ratios reaches one sweep through many draws,
    which repeated examples. The fault is None, ("exit", g) for the worker
    of group g (mod the group count) dying before it sends its memo,
    ("diverge", m) for every gold loop of method m turning non-finite at its
    first batch (a gold loop with no correction matrix, as an identity
    reads, is `none`'s), ("estimate", "galc_slr")
    for estimator.compute_regulators raising, or ("write", w) for this
    process's w-th write (mod the serial run's count) running out of disk
    after one line."""
    grid = draw(st.sampled_from(GRIDS))
    cpus = draw(st.sampled_from((1, 2)))
    methods = sorted({m for _, _, m, _ in grid_cells(grid)[1]})
    faults = [st.none(), st.tuples(st.just("diverge"), st.sampled_from(methods)),
              st.just(("estimate", "galc_slr")), st.tuples(st.just("write"), st.integers(0, 99))]
    if cpus == 2:  # one CPU forks no worker
        faults.append(st.tuples(st.just("exit"), st.integers(0, 2)))
    return grid, cpus, draw(st.one_of(faults)), draw(st.booleans())


@pytest.fixture(scope="module")
def serial_grid(tmp_path_factory):
    """A function giving what a grid (see run_grid) run with one usable CPU
    and no fault does (see instrument), with its files as `files`; each grid
    runs once."""
    @functools.cache
    def run(grid) -> SimpleNamespace:
        out = tmp_path_factory.mktemp("serial")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(textio, "_usable_cpus", lambda: 1)
            seen = instrument(mp, out)
            run_grid(grid, out)
        seen.files = tree_files(out)
        assert seen.calls["noise.inject"] and seen.calls["regulators"] and seen.batches
        return seen
    return run


REASONS = {"estimate": re.escape("pipeline stage 'estimate' failed: regulators unavailable"),
           "diverge": re.escape("pipeline stage 'train-gold' failed: "
                                "non-finite loss at epoch 1, batch 1")}


class TestGridEquivalence:
    """However a grid's loops reach a cell (from a forked worker's memo,
    inline, in a stack, or inline again after a worker died), the cell gets
    the bytes of the same grid run serially with no fault, or, if it fails,
    keeps only its resolved.cfg, and this process trains only the loops
    that no worker ran for it."""

    @staticmethod
    def inject(mp, fault) -> None:
        """Patch in `fault` (see faulted_grids) but a write fault, which
        instrument makes."""
        kind, arg = fault or (None, None)
        if kind == "estimate":
            def unavailable(model, pool):
                raise ValueError("regulators unavailable")

            mp.setattr(estimator, "compute_regulators", unavailable)  # the workers' too
        if kind == "exit":
            ordered_map = textio.ordered_map

            def dying(fn, items):
                def run(group):
                    if group is items[arg % len(items)] and \
                            multiprocessing.current_process().daemon:
                        os._exit(1)
                    return fn(group)
                return ordered_map(run, items)

            mp.setattr(textio, "ordered_map", dying)
        if kind != "diverge":
            return
        estimates = []  # the galc_slr matrices made in this process
        gold_rows = set()  # the row counts of the gold sets made in this process
        methods = []  # the method of each cell of the loop being trained
        training_matrix, gold_set = harness.training_matrix, harness._gold_set
        trajectory, loss = model._trajectory, model._Objective.loss

        def recorded(report, form):
            matrix = training_matrix(report, form)
            estimates.append(matrix.matrix)
            return matrix

        def counted(gold, silver_noisy, correction):
            combined, mode = gold_set(gold, silver_noisy, correction)
            gold_rows.add(combined.n)
            return combined, mode

        def method(cell) -> str:
            """A gold loop without a matrix is `none`'s, whichever cell
            asked for it; a silver loop, which has fewer rows, is no method's."""
            if cell.m is None:
                return "none" if cell.x.shape[0] in gold_rows else "silver"
            return "galc_slr" if any(cell.m is e for e in estimates) else "true_matrix"

        def named(cells):
            methods[:] = map(method, cells)
            yield from trajectory(cells)

        def diverging(self, *args, **kwargs):
            losses = loss(self, *args, **kwargs)
            return [math.nan if m == arg else v for m, v in zip(methods, losses)]

        mp.setattr(harness, "training_matrix", recorded)
        mp.setattr(harness, "_gold_set", counted)
        mp.setattr(model, "_trajectory", named)
        mp.setattr(model._Objective, "loss", diverging)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=faulted_grids())
    @example(drawn=(("sweep", (0.0, 0.3)), 2, None, False))
    @example(drawn=(("trusted", (0.3,)), 2, None, False))
    @example(drawn=(("limit", (0.3,)), 2, None, False))
    @example(drawn=(("limit", (0.0, 0.3)), 2, None, False))
    @example(drawn=(("sweep", (0.0, 0.3)), 2, ("exit", 1), False))
    @example(drawn=(("sweep", (0.0, 0.3, 0.5)), 2, ("exit", 1), False))
    @example(drawn=(("trusted", (0.3,)), 2, ("exit", 0), False))
    @example(drawn=(("sweep", (0.0, 0.3)), 1, ("diverge", "galc_slr"), False))
    @example(drawn=(("sweep", (0.0, 0.3)), 2, ("diverge", "galc_slr"), False))
    @example(drawn=(("sweep", (0.0, 0.3)), 1, ("diverge", "none"), False))
    @example(drawn=(("sweep", (0.0, 0.3)), 2, ("diverge", "none"), False))
    @example(drawn=(("sweep", (0.0,)), 1, ("diverge", "true_matrix"), False))  # fails no cell
    @example(drawn=(("sweep", (0.3,)), 1, ("estimate", "galc_slr"), True))
    @example(drawn=(("sweep", (0.0, 0.3)), 2, ("estimate", "galc_slr"), True))
    @example(drawn=(("trusted", (0.3,)), 1, ("estimate", "galc_slr"), False))
    @example(drawn=(("trusted", (0.3,)), 2, ("estimate", "galc_slr"), True))
    @example(drawn=(("sweep", (0.0, 0.3)), 2, ("write", 7), True))   # a cell's resolved.cfg
    @example(drawn=(("sweep", (0.0, 0.3)), 1, ("write", 47), False))  # summary.csv
    @example(drawn=(("limit", (0.3,)), 1, ("write", 11), False))  # L50 shares a gold loop
    def test_each_cell_finishes_with_the_serial_bytes_or_keeps_only_its_config(
            self, tmp_path_factory, serial_grid, drawn):
        grid, cpus, fault, rerun = drawn
        kind, arg = fault or (None, None)
        serial = serial_grid(grid)
        clean = serial.files
        table, cells = grid_cells(grid)
        out = tmp_path_factory.mktemp("grid")
        cut_short = ("gold_model.mlpm", "metrics.csv", "silver_model.mlpm", "true_matrix.csv")
        before = dict(clean, **{f"{rundir}/{name}.partial": b"cut short\n"
                                for rundir, *_ in cells for name in cut_short}) if rerun else {}
        for name, data in before.items():
            (out / name).parent.mkdir(exist_ok=True)
            (out / name).write_bytes(data)
        at = [i for i, (what, _) in enumerate(serial.events) if what == "write"]
        w = arg % len(at) if kind == "write" else None  # the index of the failing write
        cut = len(serial.events) if w is None else at[w]
        failed_write = None if w is None else serial.events[cut][1]
        failed_cell = (failed_write or "").rpartition("/")[0]  # "" for the grid's own file
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(textio, "_usable_cpus", lambda: cpus)
            self.inject(mp, fault)
            seen = instrument(mp, out, w)
            if failed_write and not failed_cell:
                with pytest.raises(OSError, match=re.escape(str(out / failed_write))):
                    run_grid(grid, out)
            else:
                run_grid(grid, out)
        files = tree_files(out)
        if failed_write == "resolved.cfg":  # the grid's first write: nothing has changed
            assert files == before
            return
        # the method whose diverge fault fails a cell: `none` for a plain gold loop
        diverges = {rundir: "none" if ("gold", rundir) in serial.plain else m
                    for rundir, _, m, _ in cells}
        failing = {rundir for rundir, _, m, _ in cells if fault in (
            ("diverge", diverges[rundir]), ("estimate", m)) or rundir == failed_cell}
        assert not [name for name in files if name.endswith(".partial")]
        for rundir, *_ in cells:
            theirs = {name: data for name, data in clean.items() if name.startswith(f"{rundir}/")}
            config = f"{rundir}/resolved.cfg"
            if rundir in failing:  # without its own resolved.cfg: none, or the earlier run's
                theirs = {} if failed_write == config and not rerun else {config: clean[config]}
            assert {name: data for name, data in files.items()
                    if name.startswith(f"{rundir}/")} == theirs
        log = [line.split(": ", 1) for line in files.get("failures.log", b"").decode().splitlines()]
        assert [name for name, _ in log] == [f"{label} method={m}" for rundir, label, m, _ in cells
                                             if rundir in failing]
        reason = REASONS.get(kind, "")
        if failed_write:
            reason = "(pipeline stage '[a-z-]+' failed: )?" + re.escape(
                str(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(out / failed_write))))
        assert all(re.fullmatch(reason, why) for _, why in log)
        if table and failed_write != table:  # one row per finished cell, in cell order
            header, *rows = clean[table].decode().splitlines()
            assert files[table].decode().splitlines() == [
                header, *(row for row, (rundir, *_) in zip(rows, cells) if rundir not in failing)]
        if failing and grid[0] != "sweep":  # an ablation's bar chart needs every cell
            assert f"ablation_{grid[0]}.svg" not in files
        if not failing:
            assert files.items() <= clean.items() if failed_write else files == clean
        assert sum(seen.batches.values()) == self.batches_here(serial, cells, cpus, fault,
                                                               diverges, failed_cell, cut)
        groups = len({g for *_, g in cells})
        assert seen.calls.pop("ordered_map", 0) == (groups if cpus == 2 and groups > 1 else 0)
        if kind in (None, "exit"):  # the stages still make every call
            assert seen.calls == serial.calls

    @staticmethod
    def batches_here(serial, cells, cpus, fault, diverges, failed_cell, cut) -> int:
        """The batches that this process trains: with one CPU or one group,
        every loop that a cell reaches, once per memo, by the first cell of a
        group to reach it; else the loops of the groups from a dead worker's
        on, and the gold loops of a group that holds a diverging cell, whose
        stack stores nothing. A diverging loop trains one batch and stores
        nothing. A cell reaches only its silver loop when its estimate fails,
        and the loops of the serial run's (stage, run directory) events
        before its failed write. `diverges` gives the method whose diverge
        fault fails each cell's gold loop."""
        kind, arg = fault or (None, None)
        loops = {}  # the batches of each distinct loop, by trajectory key
        for stage, key in serial.keys.items():
            loops[key] = max(loops.get(key, 0), serial.batches[stage])

        def reaches(rundir, m, stage) -> bool:
            if fault == ("estimate", m):
                return stage == "silver"
            return rundir != failed_cell or (stage, rundir) in serial.events[:cut]

        groups = {}
        for rundir, _, m, g in cells:
            groups.setdefault(g, []).append((rundir, m))
        forks = cpus == 2 and len(groups) > 1
        batches = 0
        for g, members in groups.items():
            alone = not forks or (kind == "exit" and g >= arg % len(groups))
            diverging = any(fault == ("diverge", diverges[rundir]) for rundir, _ in members)
            memo = set()  # the keys of the loops the group's memo holds
            for (rundir, m), stage in itertools.product(members, ("silver", "gold")):
                key = serial.keys[stage, rundir]
                if not (alone or stage == "gold" and diverging) or key in memo or \
                        not reaches(rundir, m, stage):
                    continue
                if stage == "gold" and fault == ("diverge", diverges[rundir]):
                    batches += 1
                else:
                    batches += loops[key]
                    memo.add(key)
        return batches


@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    """Run an ablation axis once on the tiny config at eta 0.3, in a directory
    that holds the failures.log of an earlier run; returns (config, output
    directory, records, prepare_data calls)."""
    @functools.cache
    def run(axis):
        cfg = tiny_config(etas=(0.3,))
        cfg.ablation_eta = 0.3
        out = tmp_path_factory.mktemp(axis)
        (out / "failures.log").write_text("L10 method=galc_slr: an earlier failure\n")
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            prepare = harness.prepare_data
            mp.setattr(harness, "prepare_data", lambda c: calls.append(c) or prepare(c))
            records = run_ablation(cfg, axis, out)
        return cfg, out, records, len(calls)
    return run


# tree_digest of every file run_ablation writes (CSV, SVG, resolved.cfg and
# each run directory), taken from the per-axis branches that the axis table
# replaced; never re-pin.
ABLATION_DIGESTS = {
    "trusted": "c8dcaff130f645a093a1a838ff6949e8050e08cbf1eec18703d5b5ce72e8e917",
    "limit": "bf2fd8b2555a6f8b98fe6eac01b1acbe3ab54e22a54436db0aeaf02d2e4bbb7e",
}


class TestRunAblation:
    def test_trusted_axis_grid(self, ablation):
        _, out, records, _ = ablation("trusted")
        assert len(records) == 4
        assert (out / "ablation_trusted.svg").exists()
        rows = (out / "ablation_trusted.csv").read_text().splitlines()
        assert len(rows) == 5

    def test_limit_axis_grid(self, ablation):
        cfg, out, records, _ = ablation("limit")
        assert len(records) == 3
        labels = [r.split(",")[0] for r in
                  (out / "ablation_limit.csv").read_text().splitlines()[1:]]
        assert labels == ["L10", "L50", "unlimited"]
        for sub in ("limit_L10", "limit_L50", "limit_unlimited"):
            cm = read_matrix(out / sub / "chat.csv")
            assert cm.k == cfg.gen.k

    @pytest.mark.parametrize("axis", ["trusted", "limit"])
    def test_output_bytes_pinned(self, ablation, axis):
        _, out, _, _ = ablation(axis)
        assert tree_digest(out) == ABLATION_DIGESTS[axis]

    def test_each_variant_prepares_its_data_once(self, ablation):
        assert ablation("trusted")[3] == 2
        assert ablation("limit")[3] == 3

    def test_clean_ablation_removes_an_earlier_failures_log(self, ablation):
        _, out, _, _ = ablation("limit")
        assert not (out / "failures.log").exists()

    def test_failed_preparation_leaves_no_earlier_outputs(self, ablation, tmp_path,
                                                           monkeypatch):
        cfg, clean, _, _ = ablation("trusted")
        shutil.copytree(clean, tmp_path / "rerun")
        (tmp_path / "rerun" / "failures.log").write_text("tf=0.05 method=galc_slr: earlier\n")

        def fail(c):
            raise ValueError("no data")

        monkeypatch.setattr(harness, "prepare_data", fail)
        with pytest.raises(RuntimeError, match="pipeline stage 'prepare-data' failed: no data"):
            run_ablation(cfg, "trusted", tmp_path / "rerun")
        assert sorted(p.name for p in (tmp_path / "rerun").iterdir() if p.is_file()) == [
            "resolved.cfg"]

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="axis"):
            run_ablation(tiny_config(), "colors", tmp_path)
