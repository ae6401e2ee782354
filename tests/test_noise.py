import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlnl.datagen import Dataset, GenConfig, generate
from mlnl.noise import (KIND_RAW, KIND_TRUE, CorruptionMatrix, NoiseSpec,
                        empirical_matrix, inject, read_matrix, row_normalized,
                        symmetric_matrix, write_matrix)


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
        ds = toy_clean(n=500, seed=5)
        total = int(ds.labels.sum())
        _, log = inject(ds, NoiseSpec(0.3, seed=6))
        assert len(log) == round(0.3 * total)

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

    def test_bernoulli_mode_flip_rate(self):
        ds = toy_clean(n=3000, seed=11)
        total = int(ds.labels.sum())
        _, log = inject(ds, NoiseSpec(0.4, seed=12, mode="bernoulli"))
        assert abs(len(log) / total - 0.4) < 0.03


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

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("0.5,0.5\n")
        with pytest.raises(ValueError, match="square"):
            read_matrix(path)

    def test_ragged_row_cites_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("# kind=estimated_raw K=2\n0.5,0.5\n0.25\n")
        with pytest.raises(ValueError, match=r"ragged\.csv:3: expected 2 values, got 1"):
            read_matrix(path)

    def test_row_sum_error_cites_line(self, tmp_path):
        path = tmp_path / "sum.csv"
        path.write_text("# kind=true_row_stochastic K=3\n1.0,0.0,0.0\n\n0.5,0.25,0.25\n"
                        "0.5,0.5,0.25\n")
        with pytest.raises(ValueError, match=r"sum\.csv:5: row 2 does not sum to 1"):
            read_matrix(path)

    @pytest.mark.parametrize("kind,bad", [("true_row_stochastic", "1.5"),
                                          ("estimated_scaled", "0.0"),
                                          ("estimated_raw", "nan")])
    def test_range_error_cites_first_offending_line(self, tmp_path, kind, bad):
        path = tmp_path / "range.csv"
        path.write_text(f"# kind={kind} K=3\n0.5,0.25,0.25\n0.25,{bad},0.25\n{bad},0.25,0.25\n")
        with pytest.raises(ValueError, match=r"range\.csv:3: (corruption|row-stochastic|sigmoid)"):
            read_matrix(path)


class TestRowNormalized:
    def test_rows_sum_to_one(self):
        m = np.array([[2.0, 1.0, 1.0], [0.5, 0.25, 0.25], [3.0, 0.0, 0.0]])
        out = row_normalized(CorruptionMatrix(m, KIND_RAW))
        assert fsum_rows(out.matrix) == [1.0] * 3

    def test_nonpositive_row_falls_back_to_uniform(self):
        m = np.array([[1.0, 1.0], [-1.0, -1.0]])
        out = row_normalized(CorruptionMatrix(m, KIND_RAW))
        np.testing.assert_allclose(out.matrix[1], [0.5, 0.5])
