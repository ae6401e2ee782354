"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Heavy end-to-end criteria use the package's default desk-scale experiment
configuration with pinned sizes and master seeds; expected margins for the
frozen seeds were measured during calibration and are asserted at the stated
tolerances, not re-tuned here.
"""

import math
import time

import numpy as np

from mlnl import harness
from mlnl.datagen import Dataset, GenConfig, SplitSpec, generate, split_gold_silver, strip_single_label
from mlnl.estimator import compare_matrices, compute_regulators, estimate_galc_slr, estimate_glc
from mlnl.harness import ExperimentConfig, run_pipeline, run_sweep
from mlnl.metrics import evaluate, f1_scores, mean_ap
from mlnl.model import (AslParams, CorrectedMode, TrainConfig, asl_loss, forward,
                        gradient_check, init_model, train)
from mlnl.noise import NoiseSpec, empirical_matrix, inject, symmetric_matrix
from mlnl.numerics import RandomStream


def report(criterion: str, detail: str):
    print(f"\n[acceptance] PASS {criterion}: {detail}")


def default_experiment(seed: int) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.seed = seed
    cfg.etas = (0.0, 0.4)
    assert cfg.gen.n == 12000 and cfg.gen.k == 8 and cfg.trusted_fraction == 0.10
    return cfg


class TestCriterion1NoiseMatrixFormula:
    def test_formula_and_row_sums(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(20):
            k = int(rng.integers(2, 50))
            eta = float(rng.uniform(0.0, 0.999))
            cm = symmetric_matrix(k, eta)
            off = eta / (k - 1)
            for i in range(k):
                row = cm.matrix[i]
                assert all(row[j] == off for j in range(k) if j != i)
                assert abs(row[i] - (1.0 - eta)) <= 2 ** -50  # diagonal within 1 ulp
                assert math.fsum(row.tolist()) == 1.0
        dt = time.perf_counter() - t0
        assert dt < 1.0
        report("criterion 1 (noise matrix formula)",
               f"20 random (K, eta) matched; row fsums exactly 1.0; {dt:.3f}s")


class TestCriterion2InjectionFidelity:
    def test_empirical_matrix_and_conservation(self):
        t0 = time.perf_counter()
        k, eta = 10, 0.4
        ds = generate(GenConfig(n=50000, d=4, k=k, mean_labels_per_sample=2.0, seed=202))
        total_positives = int(ds.labels.sum())
        assert total_positives >= 50000
        noisy, log = inject(ds, NoiseSpec(eta, seed=203))

        np.testing.assert_array_equal(ds.cardinalities(), noisy.cardinalities())

        state = ds.labels.copy()
        for i, src, dst in log.flips:
            assert state[i, src] == 1 and state[i, dst] == 0
            state[i, src] = 0
            state[i, dst] = 1
        np.testing.assert_array_equal(state, noisy.labels)

        emp, _ = empirical_matrix(ds, noisy)
        dev = float(np.abs(emp.matrix - symmetric_matrix(k, eta).matrix).max())
        assert dev < 0.02
        dt = time.perf_counter() - t0
        assert dt < 10.0
        report("criterion 2 (injection fidelity)",
               f"{total_positives} positives, max-abs deviation {dev:.4f} < 0.02, "
               f"cardinality conserved, no duplicate positives; {dt:.1f}s")


def _margin_safe(p, params, dist=5e-3):
    p = np.asarray(p)
    return (np.abs(p - params.margin).min() > dist
            and p.min() > 2 * params.clamp_eps and p.max() < 1 - 2 * params.clamp_eps)


class TestCriterion3GradientCorrectness:
    def test_bce_reduction_identity(self):
        rng = np.random.default_rng(301)
        params = AslParams(0.0, 0.0, 0.0, 1e-7)
        for _ in range(20):
            p = rng.uniform(0.01, 0.99, size=6)
            y = (rng.uniform(size=6) < 0.5).astype(float)
            bce = -float(np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)))
            assert abs(asl_loss(p, y, params) - bce) <= 1e-12

    def test_hundred_random_configurations(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(302)
        done = 0
        worst = 0.0
        while done < 100:
            d, h, k, b = 5, 6, 4, 8
            model = init_model([d, h, k], "tanh", 1.0, seed=int(rng.integers(1 << 30)))
            x = rng.normal(size=(b, d))
            y = (rng.uniform(size=(b, k)) < 0.4).astype(float)
            y[y.sum(axis=1) == 0, 0] = 1.0
            params = AslParams(float(rng.uniform(0, 3)), float(rng.uniform(0, 5)),
                               float(rng.uniform(0, 0.25)), 1e-7)
            p = forward(model, x).p_sig
            if done % 2 == 0:
                if not _margin_safe(p, params):
                    continue
                err = gradient_check(model, x, y, params, mode="asl")
            else:
                c = rng.uniform(0, 1, size=(k, k))
                c /= c.sum(axis=1, keepdims=True)
                if not _margin_safe(p @ c, params):
                    continue
                mask = rng.uniform(size=b) < 0.3
                err = gradient_check(model, x, y, params, mode=CorrectedMode(c, mask))
            assert err < 1e-4, f"config {done}: max relative error {err}"
            worst = max(worst, err)
            done += 1
        dt = time.perf_counter() - t0
        assert dt < 30.0
        report("criterion 3 (gradient correctness)",
               f"100 configs, worst relative error {worst:.2e} < 1e-4; "
               f"BCE identity within 1e-12; {dt:.1f}s")


class TestCriterion4MetricsOracles:
    @staticmethod
    def _ap_oracle(scores, rel):
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        hits, acc = 0, 0.0
        for rank, idx in enumerate(order, start=1):
            if rel[idx]:
                hits += 1
                acc += hits / rank
        return acc / hits

    @staticmethod
    def _f1_oracle(p, y, t):
        pred = p >= t
        k = y.shape[1]
        precs, recs = [], []
        for c in range(k):
            tp = int((pred[:, c] & (y[:, c] == 1)).sum())
            fp = int((pred[:, c] & (y[:, c] == 0)).sum())
            fn = int((~pred[:, c] & (y[:, c] == 1)).sum())
            precs.append(tp / (tp + fp) if tp + fp else 0.0)
            recs.append(tp / (tp + fn) if tp + fn else 0.0)
        cp, cr = float(np.mean(precs)), float(np.mean(recs))
        cf1 = 2 * cp * cr / (cp + cr) if cp + cr else 0.0
        tp = int((pred & (y == 1)).sum())
        fp = int((pred & (y == 0)).sum())
        fn = int((~pred & (y == 1)).sum())
        op = tp / (tp + fp) if tp + fp else 0.0
        orc = tp / (tp + fn) if tp + fn else 0.0
        of1 = 2 * op * orc / (op + orc) if op + orc else 0.0
        return cf1, of1

    def test_two_hundred_random_instances(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(404)
        for trial in range(200):
            n = int(rng.integers(2, 51))
            k = int(rng.integers(2, 9))
            scores = rng.uniform(size=(n, k))
            y = (rng.uniform(size=(n, k)) < 0.35).astype(np.uint8)
            y[y.sum(axis=1) == 0, 0] = 1
            got_map, per_class, excluded = mean_ap(scores, y)
            vals = []
            for c in range(k):
                if y[:, c].sum() == 0:
                    assert c in excluded
                    continue
                want = self._ap_oracle(list(scores[:, c]), list(y[:, c]))
                assert abs(per_class[c] - want) <= 1e-12
                vals.append(want)
            assert abs(got_map - np.mean(vals)) <= 1e-12
            got_cf1, got_of1 = f1_scores(scores, y)
            want_cf1, want_of1 = self._f1_oracle(scores, y, 0.5)
            assert abs(got_cf1 - want_cf1) <= 1e-12
            assert abs(got_of1 - want_of1) <= 1e-12

        y = (np.random.default_rng(405).uniform(size=(40, 6)) < 0.4).astype(np.uint8)
        y[y.sum(axis=1) == 0, 0] = 1
        rep = evaluate(y.astype(float), y)
        assert rep.map == 1.0 and rep.cf1 == 1.0 and rep.of1 == 1.0
        dt = time.perf_counter() - t0
        assert dt < 10.0
        report("criterion 4 (metrics oracle equivalence)",
               f"200 instances within 1e-12; perfect predictions give 1.0; {dt:.1f}s")


class TestCriterion5EstimatorDegeneracy:
    def test_single_label_regulator_cancellation(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(505)
        k, d = 8, 6
        feats = rng.normal(size=(160, d))
        labels = np.zeros((160, k), dtype=np.uint8)
        labels[np.arange(160), np.arange(160) % k] = 1
        pool = Dataset(feats, labels)
        model = init_model([d, 10, k], "tanh", 1.0, seed=506)
        regs = compute_regulators(model, pool)
        rep = estimate_galc_slr(model, pool, regs)
        sig = forward(model, feats).p_sig
        worst = 0.0
        for c in range(k):
            mean_sig = sig[labels[:, c] == 1].mean(axis=0)
            worst = max(worst, float(np.abs(rep.raw.matrix[c] - mean_sig).max()))
        assert worst <= 1e-12
        dt = time.perf_counter() - t0
        assert dt < 5.0
        report("criterion 5 (estimator degeneracy)",
               f"all-single-label raw estimate equals per-class mean sigmoid "
               f"(worst dev {worst:.2e}); {dt:.2f}s")


class TestCriterion6EstimatorQuality:
    def test_galc_beats_glc_on_imbalanced_correlated_data(self):
        """The frozen data and training settings were picked by a grid search
        over 32 points: mean labels {2.0, 2.2} x imbalance exponent {1.5, 2.5}
        x correlation strength {0.8, 1.0} x negative focusing {0, 4} x GLC
        readout {softmax, sigmoid}, each scored on seeds 1000-1004 (n=8000,
        25 epochs, trusted fraction 0.10, eta 0.4) by the Frobenius distance
        and diagonal gap of both raw estimates. The seeds here (5000 + 7s)
        are disjoint from those."""
        t0 = time.perf_counter()
        frob_wins = gap_wins = 0
        details = []
        for s in range(5):
            root = RandomStream(5000 + 7 * s)
            gen = GenConfig(n=8000, d=32, k=8, mean_labels_per_sample=2.0,
                            feature_noise_sigma=0.8, imbalance_exponent=2.5,
                            correlation_strength=0.8, seed=root.derive_seed("datagen"))
            full = generate(gen)
            multi, singles = strip_single_label(full)
            gold, silver = split_gold_silver(
                multi, SplitSpec(0.10, seed=root.derive_seed("split")))
            noisy, _ = inject(silver, NoiseSpec(0.4, seed=root.derive_seed("noise")))
            true_c = symmetric_matrix(8, 0.4)
            f0 = init_model([32, 64, 8], "tanh", 1.0, seed=root.derive_seed("init"))
            f, _ = train(f0, noisy, "asl",
                         TrainConfig(epochs=25, batch_size=64, lr=2e-3,
                                     seed=root.derive_seed("train")), AslParams())
            regs = compute_regulators(f, singles)
            rep_galc = estimate_galc_slr(f, gold, regs)
            rep_glc = estimate_glc(f, gold, readout="sigmoid")
            cg = compare_matrices(rep_galc.raw, true_c)
            cb = compare_matrices(rep_glc.raw, true_c)
            frob_wins += cg.frobenius_distance <= cb.frobenius_distance
            gap_wins += cg.diagonal_gap > cb.diagonal_gap
            details.append(f"seed{s}: frob {cg.frobenius_distance:.2f} vs "
                           f"{cb.frobenius_distance:.2f}, gap {cg.diagonal_gap:.2f} vs "
                           f"{cb.diagonal_gap:.2f}")
        dt = time.perf_counter() - t0
        assert frob_wins >= 4, details
        assert gap_wins >= 4, details
        assert dt < 600.0
        report("criterion 6 (estimator quality)",
               f"frobenius wins {frob_wins}/5, diagonal-gap wins {gap_wins}/5; {dt:.0f}s")


class TestCriterion7EndToEndRobustness:
    def test_correction_beats_baseline_and_tracks_true_matrix(self, tmp_path):
        t0 = time.perf_counter()
        cfg = default_experiment(seed=2026)
        data = harness.prepare_data(cfg)
        maps = {}
        for eta, methods in ((0.4, ("none", "galc_slr", "true_matrix")),
                             (0.0, ("none", "galc_slr"))):
            for method in methods:
                rec = run_pipeline(cfg, eta, tmp_path / f"e{eta}_{method}",
                                   method=method, data=data)
                maps[(eta, method)] = rec.final.map
        gap = maps[(0.4, "galc_slr")] - maps[(0.4, "none")]
        slack_to_true = maps[(0.4, "galc_slr")] - maps[(0.4, "true_matrix")]
        d0 = abs(maps[(0.0, "galc_slr")] - maps[(0.0, "none")])
        dt = time.perf_counter() - t0

        assert gap >= 0.05, f"gap over ASL baseline {100 * gap:.2f} points < 5"
        # one-sided: the estimated matrix may not cost more than 3 points
        # relative to training with the true matrix (it lands above it here)
        assert slack_to_true >= -0.03, \
            f"estimated correction trails true-matrix bound by {-100 * slack_to_true:.2f} points"
        assert d0 < 0.03, f"eta=0 difference {100 * d0:.2f} points >= 3"
        assert dt < 1200.0
        report("criterion 7 (end-to-end robustness)",
               f"gap {100 * gap:.1f} pts >= 5; vs true-matrix {100 * slack_to_true:+.1f} pts "
               f"(>= -3); eta=0 diff {100 * d0:.2f} pts < 3; {dt:.0f}s")


class TestCriterion8AblationMonotonicity:
    def test_single_label_budget_has_minor_impact(self, tmp_path):
        t0 = time.perf_counter()
        diffs = []
        for seed in (11, 22, 33):
            maps = {}
            for limit in (10, None):
                cfg = default_experiment(seed=seed)
                cfg.single_label_limit = limit
                rec = run_pipeline(cfg, 0.4, tmp_path / f"s{seed}_l{limit}",
                                   method="galc_slr")
                maps[limit] = rec.final.map
            diffs.append(abs(maps[10] - maps[None]))
        dt = time.perf_counter() - t0
        assert all(d < 0.05 for d in diffs), diffs
        assert dt < 1800.0
        report("criterion 8 (ablation monotonicity)",
               "L10 vs unlimited mAP deltas "
               + ", ".join(f"{100 * d:.2f}" for d in diffs) + " pts (< 5 each); "
               f"{dt:.0f}s")


class TestCriterion9Determinism:
    def test_sweep_summary_byte_identical(self, tmp_path):
        t0 = time.perf_counter()
        cfg = ExperimentConfig(
            gen=GenConfig(n=900, d=12, k=6, mean_labels_per_sample=2.2,
                          feature_noise_sigma=1.2, imbalance_exponent=1.0,
                          correlation_strength=0.6, seed=0),
            etas=(0.0, 0.3),
            trusted_fraction=0.12,
            silver=TrainConfig(epochs=3, batch_size=32, lr=2e-3),
            gold=TrainConfig(epochs=3, batch_size=32, lr=2e-3),
            hidden=(16,), seed=99)
        run_sweep(cfg, tmp_path / "a")
        run_sweep(cfg, tmp_path / "b")
        a = (tmp_path / "a" / "summary.csv").read_bytes()
        b = (tmp_path / "b" / "summary.csv").read_bytes()
        assert a == b
        dt = time.perf_counter() - t0
        report("criterion 9 (determinism)",
               f"sweep summary.csv byte-identical across replays; {dt:.0f}s")
