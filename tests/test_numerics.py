import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlnl.numerics import RandomStream, digest, sigmoid, softmax


class TestSigmoid:
    def test_symmetry_at_zero(self):
        assert sigmoid(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.3, 2.0, 50.0])
    def test_reflection_identity(self, x):
        assert abs(sigmoid(-x) - (1.0 - sigmoid(x))) <= 1e-15

    def test_large_argument_against_high_precision(self):
        import mpmath

        mpmath.mp.dps = 60
        v = sigmoid(40.0)
        ref = float(1 / (1 + mpmath.e ** mpmath.mpf(-40)))
        assert v == ref
        assert 1.0 - 1e-15 < v <= 1.0
        assert np.isfinite(v)

    def test_no_overflow_up_to_700(self):
        assert np.isfinite(sigmoid(700.0))
        assert np.isfinite(sigmoid(-700.0))
        assert sigmoid(-700.0) > 0.0

    @given(st.floats(min_value=-300, max_value=300))
    def test_complement_property(self, x):
        assert abs(sigmoid(x) + sigmoid(-x) - 1.0) <= 1e-15


class TestSoftmax:
    def test_uniform_on_zeros(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)

    @pytest.mark.parametrize("c", [-5.0, 0.0, 123.4])
    def test_analytic_two_entry(self, c):
        out = softmax(np.array([c, c + np.log(2.0)]))
        np.testing.assert_allclose(out, [1 / 3, 2 / 3], atol=1e-14)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=8)
        direct = np.exp(v - v.max())
        direct /= direct.sum()
        np.testing.assert_allclose(softmax(v), direct, atol=1e-12)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
    def test_on_simplex(self, vals):
        out = softmax(np.array(vals))
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out >= 0)

    def test_shift_invariance(self):
        v = np.array([0.2, -1.0, 3.0, 0.0])
        np.testing.assert_allclose(softmax(v), softmax(v + 17.5), atol=1e-12)


class TestRandomStream:
    def test_replay_bit_exact(self):
        a = RandomStream(123456789)
        b = RandomStream(123456789)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]
        np.testing.assert_array_equal(a.uniform(50), b.uniform(50))

    def test_block_matches_scalar_draws(self):
        a = RandomStream(9)
        b = RandomStream(9)
        assert a.u64_block(17).tolist() == [b.next_u64() for _ in range(17)]

    def test_distinct_seeds_differ(self):
        assert RandomStream(1).u64_block(4).tolist() != RandomStream(2).u64_block(4).tolist()

    def test_derive_ignores_draw_position(self):
        a = RandomStream(5)
        b = RandomStream(5)
        a.uniform(1000)
        assert a.derive_seed("x") == b.derive_seed("x")
        assert a.derive_seed("x") != a.derive_seed("y")

    def test_uniform_in_unit_interval(self):
        u = RandomStream(3).uniform(100000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_normal_moments(self):
        x = RandomStream(4).normal(200000)
        assert abs(x.mean()) < 0.02
        assert abs(x.std() - 1.0) < 0.02

    def test_permutation_is_permutation(self):
        p = RandomStream(11).permutation(1000)
        assert sorted(p.tolist()) == list(range(1000))

    def test_choice_without_replacement(self):
        c = RandomStream(12).choice(50, 20)
        assert len(set(c.tolist())) == 20


class TestDigest:
    def test_equal_bytes_of_another_dtype_or_shape_differ(self):
        a = np.arange(6, dtype=np.int64)
        base = digest("h", a)
        assert digest("h", np.arange(6, dtype=np.int64)) == base
        assert digest("h", a.view(np.float64)) != base
        assert digest("h", a.reshape(2, 3)) != base
        assert digest("h", a[:2], a[2:]) != digest("h", a[:3], a[3:])

    def test_another_head_differs(self):
        a = np.zeros(3)
        assert digest(("h", 1), a) != digest(("h", 2), a)
        assert digest((), a) != digest((), a, a)

    def test_a_none_is_skipped(self):
        a, b = np.ones(2), np.zeros((2, 2), dtype=bool)
        assert digest("h", a, None, b) == digest("h", a, b)

    def test_a_strided_view_hashes_as_its_copy(self):
        a = np.arange(12.0).reshape(3, 4)
        assert digest("h", a[:, ::2]) == digest("h", a[:, ::2].copy())


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_seed_portability_hypothesis(seed):
    assert RandomStream(seed).u64_block(3).tolist() == RandomStream(seed).u64_block(3).tolist()
