import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlnl import noise
from mlnl.datagen import Dataset, GenConfig, generate
from mlnl.noise import (KIND_RAW, KIND_TRUE, CorruptionMatrix, FlipLog, NoiseSpec,
                        empirical_matrix, inject, read_matrix, row_normalized,
                        symmetric_matrix, write_matrix)
from mlnl.numerics import RandomStream


def fsum_rows(m):
    return [math.fsum(row.tolist()) for row in m]


class TestSymmetricMatrix:
    def test_k3_eta04(self):
        cm = symmetric_matrix(3, 0.4)
        assert cm.matrix[0, 1] == 0.2 and cm.matrix[1, 0] == 0.2
        assert abs(cm.matrix[0, 0] - 0.6) <= 2 ** -50

    def test_eta_zero_is_identity(self):
        np.testing.assert_array_equal(symmetric_matrix(5, 0.0).matrix, np.eye(5))

    @settings(max_examples=50)
    @given(st.integers(min_value=2, max_value=40),
           st.floats(min_value=0.0, max_value=0.999))
    def test_row_sums_exactly_one(self, k, eta):
        cm = symmetric_matrix(k, eta)
        assert fsum_rows(cm.matrix) == [1.0] * k

    @settings(max_examples=50)
    @given(st.integers(min_value=2, max_value=40),
           st.floats(min_value=1e-6, max_value=0.999))
    def test_matches_formula(self, k, eta):
        cm = symmetric_matrix(k, eta)
        off = eta / (k - 1)
        for i in range(k):
            for j in range(k):
                if i != j:
                    assert cm.matrix[i, j] == off
                else:
                    # the diagonal absorbs the exact residual; at most 1 ulp off
                    assert abs(cm.matrix[i, j] - (1.0 - eta)) <= 2 ** -50

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            symmetric_matrix(1, 0.1)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            symmetric_matrix(4, 1.0)


def toy_clean(n=400, k=6, d=3, seed=0, card=2):
    rng = np.random.default_rng(seed)
    labels = np.zeros((n, k), dtype=np.uint8)
    for i in range(n):
        labels[i, rng.choice(k, size=card, replace=False)] = 1
    return Dataset(rng.normal(size=(n, d)), labels)


class TestInject:
    def test_eta_zero_is_noop(self):
        ds = toy_clean()
        noisy, log = inject(ds, NoiseSpec(0.0, seed=1))
        assert len(log) == 0
        np.testing.assert_array_equal(noisy.labels, ds.labels)
        assert noisy.tag == "noisy"

    def test_cardinality_conserved(self):
        ds = toy_clean(seed=3)
        noisy, _ = inject(ds, NoiseSpec(0.5, seed=4))
        np.testing.assert_array_equal(ds.cardinalities(), noisy.cardinalities())

    def test_flip_count_is_rounded_fraction(self):
        # an empty dataset takes the general path in both modes
        for n, mode in ((500, "exact_count"), (0, "exact_count"), (0, "bernoulli")):
            ds = toy_clean(n=n, seed=5)
            total = int(ds.labels.sum())
            noisy, log = inject(ds, NoiseSpec(0.3, seed=6, mode=mode))
            assert len(log) == round(0.3 * total)
            assert noisy.n == n and noisy.tag == "noisy"

    def test_no_duplicate_positive_ever(self):
        ds = toy_clean(n=300, k=5, seed=7, card=3)
        noisy, log = inject(ds, NoiseSpec(0.6, seed=8))
        state = ds.labels.copy()
        for i, src, dst in log.flips:
            assert state[i, src] == 1, "source was not positive"
            assert state[i, dst] == 0, "target was already positive"
            state[i, src] = 0
            state[i, dst] = 1
        np.testing.assert_array_equal(state, noisy.labels)

    def test_deterministic(self):
        ds = toy_clean(seed=9)
        a, la = inject(ds, NoiseSpec(0.4, seed=10))
        b, lb = inject(ds, NoiseSpec(0.4, seed=10))
        np.testing.assert_array_equal(a.labels, b.labels)
        assert la.flips == lb.flips

    def test_rejects_full_rows(self):
        labels = np.ones((2, 3), dtype=np.uint8)
        ds = Dataset(np.zeros((2, 2)), labels)
        with pytest.raises(ValueError, match="sample 0"):
            inject(ds, NoiseSpec(0.5, seed=1))

    def test_rejects_noisy_input(self):
        ds = toy_clean()
        noisy, _ = inject(ds, NoiseSpec(0.1, seed=2))
        with pytest.raises(ValueError, match="clean"):
            inject(noisy, NoiseSpec(0.1, seed=3))

    def test_forced_targets(self):
        # K=3, labels {0,1}: the first flip must land on 2; the second then
        # sees original + current cover all K, drops the original-label
        # exclusion and must land on 0. eta < 1 rounds to all 100 positives.
        n = 50
        labels = np.zeros((n, 3), dtype=np.uint8)
        labels[:, :2] = 1
        _, log = inject(Dataset(np.zeros((n, 2)), labels), NoiseSpec(0.999, seed=13))
        assert log.flips == [f for i in range(n) for f in ((i, 0, 2), (i, 1, 0))]

    def test_targets_avoid_current_and_original_labels(self):
        ds = toy_clean(n=300, k=5, seed=14, card=3)
        _, log = inject(ds, NoiseSpec(0.8, seed=15))
        state = ds.labels.copy()
        restored = 0
        for i, src, dst in log.flips:
            assert state[i, dst] == 0, "target is currently positive"
            if ds.labels[i, dst]:
                assert (ds.labels[i] | state[i]).all(), "flipped-away label restored"
                restored += 1
            state[i, src] = 0
            state[i, dst] = 1
        assert restored > 0  # the dropped exclusion was exercised

    def test_targets_uniform_over_legal_labels(self):
        # K=6, labels {0,1}: a sample's first flip has the 4 legal targets
        # 2..5; chi^2 critical value for df=3 at p=0.001 is 16.27
        n = 20000
        labels = np.zeros((n, 6), dtype=np.uint8)
        labels[:, :2] = 1
        _, log = inject(Dataset(np.zeros((n, 2)), labels), NoiseSpec(0.5, seed=16))
        first = {}
        for i, _, dst in log.flips:
            first.setdefault(i, dst)
        counts = np.bincount(list(first.values()), minlength=6)
        assert counts[:2].sum() == 0
        expected = len(first) / 4
        chi2 = float(((counts[2:] - expected) ** 2 / expected).sum())
        assert chi2 < 16.27

    def test_bernoulli_mode_flip_rate(self):
        ds = toy_clean(n=3000, seed=11)
        total = int(ds.labels.sum())
        _, log = inject(ds, NoiseSpec(0.4, seed=12, mode="bernoulli"))
        assert abs(len(log) / total - 0.4) < 0.03


def reference_inject(ds, spec):
    """The per-flip loop `inject` replaced, verbatim: a frozenset of the
    current and the original labels per flip, targets by scalar draws."""
    k = ds.num_classes
    labels = ds.labels.copy()
    log = FlipLog()
    positions = np.argwhere(ds.labels == 1)
    total = positions.shape[0]
    stream = RandomStream(spec.seed).derive("noise-inject")
    if spec.mode == "exact_count":
        chosen = np.sort(stream.choice(total, int(round(spec.eta * total))))
    else:
        chosen = np.flatnonzero(stream.uniform(total) < spec.eta)
    target_stream = stream.derive("targets")
    originals = {}
    for pos_idx in chosen:
        i, src = int(positions[pos_idx, 0]), int(positions[pos_idx, 1])
        if i not in originals:
            originals[i] = frozenset(np.flatnonzero(ds.labels[i]).tolist())
        current = frozenset(np.flatnonzero(labels[i]).tolist())
        excluded = current | originals[i]
        if len(excluded) >= k:
            excluded = current
        dst = target_stream.randint_below(k)
        while dst in excluded:
            dst = target_stream.randint_below(k)
        labels[i, src] = 0
        labels[i, dst] = 1
        log.flips.append((i, src, dst))
    return labels, log


_K8 = GenConfig(n=3000, d=3, k=8, mean_labels_per_sample=2.4, imbalance_exponent=1.0,
                correlation_strength=0.7, seed=31)
INJECT_CASES = {
    **{f"k8-eta{eta}": (_K8, NoiseSpec(eta, seed=41)) for eta in (0.0, 0.2, 0.4, 0.6)},
    "k20-rho1-eta0.6": (GenConfig(n=4000, d=3, k=20, mean_labels_per_sample=4.0,
                                  correlation_strength=1.0, seed=32), NoiseSpec(0.6, seed=42)),
    "k8-bernoulli-eta0.4": (_K8, NoiseSpec(0.4, seed=43, mode="bernoulli")),
    # 1281 of the 3197 flips land on an original label: the exclusion is dropped
    "k3-eta0.8": (GenConfig(n=2000, d=3, k=3, mean_labels_per_sample=2.0,
                            correlation_strength=1.0, seed=33), NoiseSpec(0.8, seed=44)),
}
# (flips as int64 sha256, noisy labels sha256), computed with `reference_inject`'s
# loop inside `inject` before it was rewritten; never re-pin them.
INJECT_DIGESTS = {
    "k8-eta0.0": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                  "26ef78d797f5b1935b739a50ebd808e59a9ae2dbba50ac9070753108840384b8"),
    "k8-eta0.2": ("53e21f1b5e310d68e51e33afc0ae2db3b225922734ed1e19d1980a02a4248f2f",
                  "280c8ab23b922218f26dc084da8e8b03673dde0f71caa3b63c76b6912feb5326"),
    "k8-eta0.4": ("c04f4082ca11e481692cbd15d01789ef2f26eb1672ca4ed4f93558108b6115ae",
                  "6c22fc2b4c985478479e3e6dba53af52ee61f705f71b241a0c10e9666ca01bcf"),
    "k8-eta0.6": ("c107d1007c88e15cb7a4a518e6600e9d8a6a4621986a403cf49202e8ff141841",
                  "4e77a31f15053cdca1f0ad3cba51ad54d88e1f0f053766e9604ad9b3d7284d2c"),
    "k20-rho1-eta0.6": ("fd72e798391c5d4de54b4e730fbdaab11c124edd5cc3048ce991a9c02b01e14d",
                        "c38719f4915a2ce199a916b61a078c94ace773928d4c9b0cb0270175d4c9155d"),
    "k8-bernoulli-eta0.4": ("071be7237e35c3ab572b0e07f26e191a33cd863d1006bd669170f04c0f1a502b",
                            "9539984f906109fe772d8713fc8af9d0951d30d7ed9c77b166a60331b47494a9"),
    "k3-eta0.8": ("2e2ca163d5010321c811597f47f3c180233992e1d85150fe12ab507cd62793fb",
                  "56d6d994bcee7dafc8f56894f67da8f20fe0a25ec33a80055699d5c3551698e6"),
}


class TestInjectPinned:
    @pytest.mark.parametrize("name", sorted(INJECT_CASES))
    def test_flips_and_labels_pinned(self, name):
        gen_cfg, spec = INJECT_CASES[name]
        noisy, log = inject(generate(gen_cfg), spec)
        digests = (hashlib.sha256(np.asarray(log.flips, dtype=np.int64).tobytes()).hexdigest(),
                   hashlib.sha256(noisy.labels.tobytes()).hexdigest())
        assert digests == INJECT_DIGESTS[name]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 9), st.integers(0, 40), st.integers(0, 2**32),
           st.floats(0.0, 0.95), st.sampled_from(["exact_count", "bernoulli"]))
    def test_matches_the_reference_loop(self, k, n, seed, eta, mode):
        rng = np.random.default_rng(seed)
        labels = np.zeros((n, k), dtype=np.uint8)
        for i in range(n):
            labels[i, rng.choice(k, size=int(rng.integers(1, k)), replace=False)] = 1
        ds = Dataset(np.zeros((n, 1)), labels)
        spec = NoiseSpec(eta, seed=seed, mode=mode)
        noisy, log = inject(ds, spec)
        ref_labels, ref_log = reference_inject(ds, spec)
        assert log.flips == ref_log.flips
        np.testing.assert_array_equal(noisy.labels, ref_labels)


class TestEmpiricalMatrix:
    def test_identity_when_unchanged(self):
        ds = toy_clean(seed=1)
        emp, missing = empirical_matrix(ds, Dataset(ds.features, ds.labels, tag="noisy"))
        np.testing.assert_array_equal(emp.matrix, np.eye(6))
        assert missing == []

    def test_single_flip_direct_count(self):
        clean = Dataset(np.zeros((1, 2)), np.array([[1, 0, 0]], dtype=np.uint8))
        noisy = Dataset(np.zeros((1, 2)), np.array([[0, 0, 1]], dtype=np.uint8), tag="noisy")
        emp, missing = empirical_matrix(clean, noisy)
        np.testing.assert_array_equal(emp.matrix[0], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(emp.matrix[1], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(emp.matrix[2], [0.0, 0.0, 1.0])
        assert missing == [1, 2]

    def test_rows_sum_exactly_one(self):
        ds = toy_clean(n=800, seed=13, card=3)
        noisy, _ = inject(ds, NoiseSpec(0.5, seed=14))
        emp, _ = empirical_matrix(ds, noisy)
        assert fsum_rows(emp.matrix) == [1.0] * 6

    def test_law_of_large_numbers(self):
        target = symmetric_matrix(8, 0.4).matrix
        devs = []
        for n in (2000, 40000):
            ds = generate(GenConfig(n=n, d=2, k=8, mean_labels_per_sample=2.0, seed=15))
            noisy, _ = inject(ds, NoiseSpec(0.4, seed=16))
            emp, _ = empirical_matrix(ds, noisy)
            devs.append(float(np.abs(emp.matrix - target).max()))
        assert devs[1] < devs[0]
        assert devs[1] < 0.02


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        cm = symmetric_matrix(5, 0.3)
        path = tmp_path / "c.csv"
        write_matrix(cm, path)
        back = read_matrix(path)
        np.testing.assert_array_equal(back.matrix, cm.matrix)
        assert back.kind == KIND_TRUE and back.eta == 0.3

    def test_raw_kind_round_trip(self, tmp_path):
        m = np.array([[1.5, -0.2], [0.0, 2.0]])
        path = tmp_path / "r.csv"
        write_matrix(CorruptionMatrix(m, KIND_RAW), path)
        back = read_matrix(path)
        np.testing.assert_array_equal(back.matrix, m)
        assert back.kind == KIND_RAW

    def test_headerless_defaults_to_raw(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("0.5,0.5\n0.25,0.75\n")
        assert read_matrix(path).kind == KIND_RAW


def reference_stochastic_rows(m, fallback=None):
    """The per-row loop that `_stochastic_rows` replaced: without `fallback`
    the diagonal absorbs the exact residual; with it, each row is divided by
    its own sum, or replaced by the fallback row, and its largest entry
    absorbs the residual."""
    out = m.copy()
    for i in range(m.shape[0]):
        pivot = i
        if fallback is not None:
            total = m[i].sum()
            out[i] = fallback[i] if total <= 0 else m[i] / total
            pivot = int(np.argmax(out[i]))
        others = [Fraction(v) for j, v in enumerate(out[i].tolist()) if j != pivot]
        out[i, pivot] = float(1 - sum(others, Fraction(0)))
    return out


class TestStochasticRows:
    @pytest.mark.parametrize("k", [2, 7, 8, 9, 33, 130])
    def test_same_bytes_as_the_per_row_loop(self, k):
        # numpy sums a row of K >= 8 pairwise in blocks of 8, and splits K > 128
        rng = np.random.default_rng(k)
        m = rng.normal(size=(k, k)) * 10.0 ** rng.integers(-6, 7, size=(k, 1))
        positive = rng.random(k) < 0.5
        m[positive] = np.abs(m[positive])  # mixed-sign rows may sum to <= 0
        m[0] = 0.0
        for fallback in (np.eye(k), np.full((k, k), 1.0 / k)):
            got = noise._stochastic_rows(m, fallback)
            assert got.tobytes() == reference_stochastic_rows(m, fallback).tobytes()
        sym = np.full((k, k), 0.3 / (k - 1))
        np.fill_diagonal(sym, 0.7)
        assert noise._stochastic_rows(sym.copy()).tobytes() == \
            reference_stochastic_rows(sym).tobytes()


class TestRowNormalized:
    def test_rows_sum_to_one(self):
        m = np.array([[2.0, 1.0, 1.0], [0.5, 0.25, 0.25], [3.0, 0.0, 0.0]])
        out = row_normalized(CorruptionMatrix(m, KIND_RAW))
        assert fsum_rows(out.matrix) == [1.0] * 3

    def test_nonpositive_row_falls_back_to_uniform(self):
        m = np.array([[1.0, 1.0], [-1.0, -1.0]])
        out = row_normalized(CorruptionMatrix(m, KIND_RAW))
        np.testing.assert_allclose(out.matrix[1], [0.5, 0.5])
