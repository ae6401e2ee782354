import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mlnl import harness
from mlnl.datagen import GenConfig
from mlnl.harness import (CONFIG_KEYS, ExperimentConfig, parse_config, prepare_data,
                          render_config, run_ablation, run_pipeline, run_sweep,
                          training_matrix)
from mlnl.model import AslParams, TrainConfig
from mlnl.noise import read_matrix


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

    def test_eta_range_error_cites_interval(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("noise.eta = 1.5\n")
        with pytest.raises(ValueError, match=r"\[0,1\)"):
            parse_config(path)

    def test_unknown_key_cites_line(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("# comment\ngen.n = 100\nbogus.key = 3\n")
        with pytest.raises(ValueError, match=r":3: unknown key 'bogus.key'"):
            parse_config(path)

    def test_type_error_cites_line(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("gen.n = many\n")
        with pytest.raises(ValueError, match=":1:"):
            parse_config(path)

    def test_unlimited_limit(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("data.single_label_limit = unlimited\n")
        assert parse_config(path).single_label_limit is None

    def test_round_trips_through_echo(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "echo.cfg"
        path.write_text(render_config(cfg))
        back = parse_config(path)
        assert render_config(back) == render_config(cfg)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("\n# full line comment\n\ngen.k = 5\n")
        assert parse_config(path).gen.k == 5


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


class TestKeyTable:
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
        path.write_text(render_config(cfg))
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
        for bad in (dataclasses.replace(ExperimentConfig(), trusted_fraction=math.nan),
                    dataclasses.replace(ExperimentConfig(),
                                        gold=TrainConfig(lr=math.inf)),
                    dataclasses.replace(ExperimentConfig(),
                                        asl=AslParams(margin=math.nan))):
            with pytest.raises(ValueError, match="must be in"):
                bad.validate()

    @pytest.mark.parametrize("field, value", [("mean_labels_per_sample", math.nan),
                                              ("feature_noise_sigma", math.nan),
                                              ("feature_noise_sigma", math.inf)])
    def test_gen_config_rejects_non_finite(self, field, value):
        gen = dataclasses.replace(ExperimentConfig().gen, **{field: value})
        with pytest.raises(ValueError, match=field):
            gen.validate()

    def test_asl_params_reject_nan_focusing(self):
        with pytest.raises(ValueError, match="focusing"):
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
        # eta=0: the true matrix is the identity; corrected losses must equal
        # the plain baseline's bit for bit
        cfg = tiny_config()
        rec_t = run_pipeline(cfg, 0.0, tmp_path / "t", method="true_matrix")
        rec_n = run_pipeline(cfg, 0.0, tmp_path / "n", method="none")
        assert [h.loss for h in rec_t.history] == [h.loss for h in rec_n.history]
        assert rec_t.final.map == rec_n.final.map

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stage_errors_are_labeled(self, tmp_path):
        cfg = tiny_config()
        bad = dataclasses.replace(cfg, etas=(0.3,),
                                  gold=TrainConfig(epochs=3, batch_size=32, lr=1e308))
        with pytest.raises(RuntimeError, match="train-gold"):
            run_pipeline(bad, 0.3, tmp_path / "x", method="none")

    def test_correction_matrix_reloadable(self, tmp_path):
        cfg = tiny_config()
        run_pipeline(cfg, 0.3, tmp_path / "g", method="galc_slr")
        cm = read_matrix(tmp_path / "g" / "chat.csv")
        assert cm.k == cfg.gen.k


class TestTrainingMatrix:
    def test_forms(self):
        import mlnl.estimator as est
        from mlnl.model import init_model
        from tests.test_estimator import single_label_pool

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

    def test_replay_byte_identical_summary(self, tmp_path):
        cfg = tiny_config(etas=(0.0, 0.3))
        run_sweep(cfg, tmp_path / "a")
        run_sweep(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "summary.csv").read_bytes() == \
               (tmp_path / "b" / "summary.csv").read_bytes()


class TestRunAblation:
    def test_trusted_axis_grid(self, tmp_path):
        cfg = tiny_config(etas=(0.3,))
        cfg.ablation_eta = 0.3
        records = run_ablation(cfg, "trusted", tmp_path)
        assert len(records) == 4
        assert (tmp_path / "ablation_trusted.svg").exists()
        rows = (tmp_path / "ablation_trusted.csv").read_text().splitlines()
        assert len(rows) == 5

    def test_limit_axis_grid(self, tmp_path):
        cfg = tiny_config(etas=(0.3,))
        cfg.ablation_eta = 0.3
        records = run_ablation(cfg, "limit", tmp_path)
        assert len(records) == 3
        labels = [r.split(",")[0] for r in
                  (tmp_path / "ablation_limit.csv").read_text().splitlines()[1:]]
        assert labels == ["L10", "L50", "unlimited"]
        for sub in ("limit_L10", "limit_L50", "limit_unlimited"):
            cm = read_matrix(tmp_path / sub / "chat.csv")
            assert cm.k == cfg.gen.k

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="axis"):
            run_ablation(tiny_config(), "colors", tmp_path)
