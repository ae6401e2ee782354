import hashlib

import numpy as np
import pytest

from mlnl.datagen import Dataset, GenConfig, SplitSpec, generate, split_gold_silver, strip_single_label
from mlnl.estimator import (compare_matrices, compute_regulators, estimate_galc_slr,
                            estimate_glc, write_report)
from mlnl.model import AslParams, MlpModel, TrainConfig, forward, init_model, train
from mlnl.noise import KIND_TRUE, CorruptionMatrix, NoiseSpec, inject, read_matrix, symmetric_matrix
from mlnl.numerics import logit


def single_label_pool(n_per_class, k=6, d=5, seed=0, skip=()):
    rng = np.random.default_rng(seed)
    rows = []
    labels = []
    for c in range(k):
        if c in skip:
            continue
        for _ in range(n_per_class):
            rows.append(rng.normal(size=d))
            onehot = np.zeros(k, dtype=np.uint8)
            onehot[c] = 1
            labels.append(onehot)
    return Dataset(np.array(rows), np.array(labels))


def uniform_softmax_model(d=5, k=6):
    # zero weights give uniform softmax and 0.5 sigmoid everywhere
    return MlpModel([np.zeros((4, d)), np.zeros((k, 4))], [np.zeros(4), np.zeros(k)], "tanh")


class TestComputeRegulators:
    def test_uniform_model_gives_uniform_rows(self):
        pool = single_label_pool(3)
        regs = compute_regulators(uniform_softmax_model(), pool)
        np.testing.assert_allclose(regs, np.full((6, 6), 1 / 6), atol=1e-15)

    def test_single_sample_class_is_exact(self):
        pool = single_label_pool(1, seed=3)
        m = init_model([5, 7, 6], "tanh", 1.0, seed=1)
        regs = compute_regulators(m, pool)
        batched = forward(m, pool.features).p_soft
        for c in range(6):
            idx = int(np.argmax(pool.labels[:, c]))
            # mean of one sample: bit-equal to that sample's batched prediction
            np.testing.assert_array_equal(regs[c], batched[idx])
            # and equal to the standalone forward up to BLAS kernel rounding
            np.testing.assert_allclose(regs[c],
                                       forward(m, pool.features[idx]).p_soft, atol=1e-14)

    def test_matches_loop_oracle(self):
        pool = single_label_pool(20, seed=4)
        m = init_model([5, 7, 6], "tanh", 1.0, seed=2)
        regs = compute_regulators(m, pool)
        soft = forward(m, pool.features).p_soft
        for c in range(6):
            members = [soft[i] for i in range(pool.n) if pool.labels[i, c]]
            np.testing.assert_allclose(regs[c], np.mean(members, axis=0), atol=1e-12)

    def test_rows_on_simplex(self):
        pool = single_label_pool(5, seed=5)
        regs = compute_regulators(init_model([5, 7, 6], "tanh", 1.0, seed=3), pool)
        np.testing.assert_allclose(regs.sum(axis=1), 1.0, atol=1e-12)

    def test_missing_class_falls_back_uniform(self):
        pool = single_label_pool(4, skip=(2,), seed=6)
        regs = compute_regulators(init_model([5, 7, 6], "tanh", 1.0, seed=4), pool)
        np.testing.assert_allclose(regs[2], np.full(6, 1 / 6))

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError, match="empty"):
            compute_regulators(uniform_softmax_model(),
                               Dataset(np.zeros((0, 5)), np.zeros((0, 6), dtype=np.uint8)))

    def test_rejects_multi_label_pool(self):
        labels = np.array([[1, 1, 0, 0, 0, 0]], dtype=np.uint8)
        with pytest.raises(ValueError, match="expected exactly 1"):
            compute_regulators(uniform_softmax_model(), Dataset(np.zeros((1, 5)), labels))


class TestEstimateGalcSlr:
    def test_single_label_degeneracy(self):
        # regulator terms cancel; raw estimate is the per-class mean sigmoid,
        # i.e. exactly the GLC recipe applied to the sigmoid readout
        pool = single_label_pool(15, seed=7)
        m = init_model([5, 7, 6], "tanh", 1.0, seed=5)
        regs = compute_regulators(m, pool)
        rep = estimate_galc_slr(m, pool, regs)
        sig = forward(m, pool.features).p_sig
        for c in range(6):
            members = [sig[i] for i in range(pool.n) if pool.labels[i, c]]
            np.testing.assert_allclose(rep.raw.matrix[c], np.mean(members, axis=0),
                                       atol=1e-12)
        glc_sig = estimate_glc(m, pool, readout="sigmoid")
        np.testing.assert_allclose(rep.raw.matrix, glc_sig.raw.matrix, atol=1e-12)

    def test_two_label_sample_contribution(self):
        m = init_model([5, 7, 6], "tanh", 1.0, seed=6)
        regs = compute_regulators(m, single_label_pool(10, seed=8), )
        x = np.random.default_rng(9).normal(size=(1, 5))
        labels = np.zeros((1, 6), dtype=np.uint8)
        labels[0, 1] = 1
        labels[0, 4] = 1
        rep = estimate_galc_slr(m, Dataset(x, labels), regs)
        s = forward(m, x[0]).p_sig
        np.testing.assert_allclose(rep.raw.matrix[1], s - regs[4] + regs[1],
                                   atol=1e-12)
        np.testing.assert_allclose(rep.raw.matrix[4], s - regs[1] + regs[4],
                                   atol=1e-12)

    def test_matches_literal_pseudocode_oracle(self):
        # brute-force re-implementation: per class, per sample, per co-label
        rng = np.random.default_rng(10)
        k = 5
        m = init_model([4, 6, k], "tanh", 1.0, seed=7)
        n = 40
        feats = rng.normal(size=(n, 4))
        labels = np.zeros((n, k), dtype=np.uint8)
        for i in range(n):
            c = int(rng.integers(1, 4))
            labels[i, rng.choice(k, size=c, replace=False)] = 1
        est_set = Dataset(feats, labels)
        regs = compute_regulators(m, single_label_pool(8, k=k, d=4, seed=11))

        rep = estimate_galc_slr(m, est_set, regs)

        sig = forward(m, feats).p_sig
        want = np.zeros((k, k))
        for c in range(k):
            count = 0
            for i in range(n):
                if not labels[i, c]:
                    continue
                count += 1
                regulators = np.zeros(k)
                n_other = 0
                for p in range(k):
                    if p != c and labels[i, p]:
                        n_other += 1
                        regulators += regs[p]
                want[c] += sig[i] - regulators
                want[c] += regs[c] * n_other
            want[c] /= count
        np.testing.assert_allclose(rep.raw.matrix, want, atol=1e-10)

    def test_scaled_strictly_inside_unit_interval(self):
        pool = single_label_pool(5, seed=12)
        m = init_model([5, 7, 6], "tanh", 1.0, seed=8)
        rep = estimate_galc_slr(m, pool, compute_regulators(m, pool))
        assert np.all(rep.scaled.matrix > 0) and np.all(rep.scaled.matrix < 1)

    def test_zero_sample_class_logit_uniform_fallback(self):
        m = init_model([5, 7, 6], "tanh", 1.0, seed=9)
        pool = single_label_pool(6, seed=13)
        regs = compute_regulators(m, pool)
        est = single_label_pool(3, skip=(4,), seed=14)
        rep = estimate_galc_slr(m, est, regs)
        assert 4 in rep.fallback_classes
        np.testing.assert_allclose(rep.raw.matrix[4], logit(np.full(6, 1 / 6)))
        np.testing.assert_allclose(rep.scaled.matrix[4], np.full(6, 1 / 6), atol=1e-12)

    def test_rejects_regulators_of_another_class_count(self):
        pool = single_label_pool(2)
        with pytest.raises(ValueError, match="regulator matrix does not match class count"):
            estimate_galc_slr(uniform_softmax_model(), pool, np.full((5, 5), 1 / 5))

    def test_deterministic(self):
        pool = single_label_pool(5, seed=15)
        m = init_model([5, 7, 6], "tanh", 1.0, seed=10)
        regs = compute_regulators(m, pool)
        a = estimate_galc_slr(m, pool, regs)
        b = estimate_galc_slr(m, pool, regs)
        np.testing.assert_array_equal(a.raw.matrix, b.raw.matrix)


class TestEstimateGlc:
    def test_equals_regulators_on_single_label_gold(self):
        pool = single_label_pool(9, seed=16)
        m = init_model([5, 7, 6], "tanh", 1.0, seed=11)
        regs = compute_regulators(m, pool)
        rep = estimate_glc(m, pool, readout="softmax")
        np.testing.assert_array_equal(rep.raw.matrix, regs)

    def test_sampling_oracle_convergence(self):
        # a predictor that outputs the true corruption row for each sample's
        # class makes the GLC estimate recover the matrix as samples grow
        k = 4
        c_true = symmetric_matrix(k, 0.3).matrix

        class RowModel:
            pass

        # emulate with exact per-class readout via a crafted dataset + the mean
        rng = np.random.default_rng(17)
        devs = []
        for n_per in (50, 2000):
            rows = []
            labels = []
            for c in range(k):
                for _ in range(n_per):
                    noisy_label = rng.choice(k, p=c_true[c] / c_true[c].sum())
                    onehot = np.zeros(k)
                    onehot[noisy_label] = 1.0
                    rows.append(onehot)
                    lab = np.zeros(k, dtype=np.uint8)
                    lab[c] = 1
                    labels.append(lab)
            # per-class mean of one-hot draws
            rows = np.array(rows)
            labels = np.array(labels)
            est = np.array([rows[labels[:, c] == 1].mean(axis=0) for c in range(k)])
            devs.append(float(np.abs(est - c_true).max()))
        assert devs[1] < devs[0] < 0.2

    def test_sigmoid_readout_differs(self):
        pool = single_label_pool(6, seed=18)
        m = init_model([5, 7, 6], "tanh", 1.0, seed=12)
        a = estimate_glc(m, pool, readout="softmax")
        b = estimate_glc(m, pool, readout="sigmoid")
        assert not np.allclose(a.raw.matrix, b.raw.matrix)

    def test_rejects_unknown_readout(self):
        with pytest.raises(ValueError):
            estimate_glc(uniform_softmax_model(), single_label_pool(2), readout="magic")


class TestCompareMatrices:
    def test_zero_distance_on_equal(self):
        cm = symmetric_matrix(5, 0.2)
        assert compare_matrices(cm, cm).frobenius_distance == 0.0

    def test_identity_vs_uniform_closed_form(self):
        ident = CorruptionMatrix(np.eye(4), KIND_TRUE)
        unif = CorruptionMatrix(np.full((4, 4), 0.25), KIND_TRUE)
        got = compare_matrices(ident, unif).frobenius_distance
        assert abs(got - np.sqrt(4 * 0.75 ** 2 + 12 * 0.25 ** 2)) <= 1e-12

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6))
        got = compare_matrices(CorruptionMatrix(a, "estimated_raw"),
                               CorruptionMatrix(b, "estimated_raw"))
        frob = 0.0
        diag = off = 0.0
        for i in range(6):
            for j in range(6):
                frob += (a[i, j] - b[i, j]) ** 2
                if i == j:
                    diag += a[i, j]
                else:
                    off += a[i, j]
        assert abs(got.frobenius_distance - np.sqrt(frob)) <= 1e-12
        assert abs(got.mean_diagonal - diag / 6) <= 1e-12
        assert abs(got.mean_offdiagonal - off / 30) <= 1e-12
        assert abs(got.diagonal_gap - (got.mean_diagonal - got.mean_offdiagonal)) <= 1e-15

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_matrices(symmetric_matrix(3, 0.1), symmetric_matrix(4, 0.1))


class TestWriteReport:
    def test_files_written_and_reloadable(self, tmp_path):
        pool = single_label_pool(4, seed=20)
        m = init_model([5, 7, 6], "tanh", 1.0, seed=13)
        rep = estimate_galc_slr(m, pool, compute_regulators(m, pool))
        write_report(rep, tmp_path / "chat")
        raw = read_matrix(tmp_path / "chat_raw.csv")
        scaled = read_matrix(tmp_path / "chat_scaled.csv")
        np.testing.assert_array_equal(raw.matrix, rep.raw.matrix)
        np.testing.assert_array_equal(scaled.matrix, rep.scaled.matrix)
        info = (tmp_path / "chat_info.txt").read_text()
        assert info.startswith("class,count,fallback")


class TestPipelineLevelEstimation:
    def test_estimates_track_truth_direction(self):
        # end-to-end sanity: the scaled estimate has a dominant diagonal once
        # the silver model has learned the noisy marginals
        cfg = GenConfig(n=3000, d=16, k=6, mean_labels_per_sample=2.2,
                        feature_noise_sigma=1.0, imbalance_exponent=0.8,
                        correlation_strength=0.5, seed=21)
        full = generate(cfg)
        multi, singles = strip_single_label(full)
        gold, silver = split_gold_silver(multi, SplitSpec(0.15, seed=4))
        noisy, _ = inject(silver, NoiseSpec(0.4, seed=5))
        f0 = init_model([16, 32, 6], "tanh", 1.0, seed=6)
        f, _ = train(f0, noisy, "asl",
                     TrainConfig(epochs=12, batch_size=64, lr=2e-3, seed=7), AslParams())
        regs = compute_regulators(f, singles)
        rep = estimate_galc_slr(f, gold, regs)
        cmp_true = compare_matrices(rep.raw, symmetric_matrix(6, 0.4))
        assert cmp_true.diagonal_gap > 0.2


class TestPinnedDigests:
    """SHA-256 of every array, count and fallback list the estimators return,
    taken from the per-estimator class loops before they shared one kernel.
    The pool lacks class 4 and the estimation set lacks class 1, so both
    fallback rows are covered. The regulators pin covers the matrix alone,
    taken while compute_regulators still wrapped it with counts."""

    DIGESTS = {
        "regulators": "b19a7aeee8e2ab4454f37c09fc7fce002905ebcad6c54c7fd9d2128e3a5476aa",
        "galc_slr": "abe055b58dd285afef7b876cde2d985208ced982b1afe49006b48995fcaf2cbd",
        "glc_softmax": "ce5b64519069fd95d5ea0ff470a022e98be42b18c13f58e2505fa4635fc43f33",
        "glc_sigmoid": "58eb84ae31ca6cf6f6c72c734a81416cfcc3045b4526b655cbcf812316defd6d",
    }

    @staticmethod
    def digest(*parts):
        h = hashlib.sha256()
        for part in parts:
            h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                     else repr(part).encode())
        return h.hexdigest()

    @pytest.fixture(scope="class")
    def reports(self):
        rng = np.random.default_rng(31)
        k = 6
        model = init_model([5, 9, k], "tanh", 1.0, seed=17)
        pool = single_label_pool(7, k=k, skip=(4,), seed=32)
        labels = np.zeros((150, k), dtype=np.uint8)
        present = [c for c in range(k) if c != 1]
        for row in labels:
            row[rng.choice(present, size=int(rng.integers(1, 4)), replace=False)] = 1
        est = Dataset(rng.normal(size=(150, 5)), labels)
        regs = compute_regulators(model, pool)
        return {
            "regulators": regs,
            "galc_slr": estimate_galc_slr(model, est, regs),
            "glc_softmax": estimate_glc(model, est, "softmax"),
            "glc_sigmoid": estimate_glc(model, est, "sigmoid"),
        }

    def test_fallbacks(self, reports):
        for name in ("galc_slr", "glc_softmax", "glc_sigmoid"):
            assert reports[name].fallback_classes == [1]

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_bytes_pinned(self, reports, name):
        rep = reports[name]
        if name == "regulators":
            got = self.digest(rep)
        else:
            got = self.digest(rep.raw.matrix, rep.raw.kind, rep.scaled.matrix, rep.scaled.kind,
                              rep.counts, rep.fallback_classes)
        assert got == self.DIGESTS[name]
