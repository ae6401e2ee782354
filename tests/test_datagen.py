import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlnl.datagen import (MAX_CLASSES, Dataset, GenConfig, SplitSpec, _base_weights,
                          _cardinality_pmf, _cardinality_support, _row_means, _sample_labels,
                          _solve_cardinality_rate, build_single_label_pool, datasets_equal,
                          generate, read_dataset, split_gold_silver, strip_single_label,
                          write_dataset)
from mlnl.numerics import RandomStream


def small_dataset(n=20, k=5, d=3, seed=0, cards=None):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d))
    labels = np.zeros((n, k), dtype=np.uint8)
    for i in range(n):
        c = cards[i] if cards is not None else int(rng.integers(1, k))
        labels[i, rng.choice(k, size=c, replace=False)] = 1
    return Dataset(feats, labels)


class TestDatasetInvariants:
    def test_rejects_empty_label_rows(self):
        feats = np.zeros((2, 3))
        labels = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        with pytest.raises(ValueError, match="no positive label"):
            Dataset(feats, labels)

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[np.inf]]), np.array([[1]], dtype=np.uint8))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.ones((2, 4), dtype=np.uint8))


class TestCardinalityRate:
    """Every mean GenConfig allows is at least 2, and a rate near 0 gives a
    mean near 1, so the bisection over (0, 800) only tries positive rates. A
    mean the truncated support cannot reach drives the rate to 800."""

    @pytest.mark.parametrize("k, mean", [
        (k, mean) for k in (2, 3, 8, 20, 50, 1000)
        for mean in sorted({2.0, 2.4, (2 + k) / 2, float(k)}) if mean <= k])
    def test_rate_is_positive_and_capped(self, k, mean):
        lam = _solve_cardinality_rate(mean, k)
        pmf = _cardinality_pmf(lam, k)
        assert 0.0 < lam <= 800.0
        assert abs(pmf.sum() - 1.0) <= 1e-12
        got = float(np.arange(1, _cardinality_support(k) + 1) @ pmf)
        if lam < 800.0:
            assert abs(got - mean) <= 1e-9
        else:
            assert got < mean

    @pytest.mark.parametrize("k, mean", [(2, 2.0), (3, 2.0), (3, 2.5), (8, 8.0), (1000, 1000.0)])
    def test_unreachable_mean_reaches_the_cap(self, k, mean):
        assert _solve_cardinality_rate(mean, k) == 800.0


class TestGenerate:
    def test_mean_cardinality_near_target(self):
        ds = generate(GenConfig(n=5000, d=8, k=8, mean_labels_per_sample=2.9, seed=1))
        mean = ds.cardinalities().mean()
        assert 2.6 <= mean <= 3.2

    def test_uniform_frequencies_without_imbalance(self):
        ds = generate(GenConfig(n=8000, d=4, k=8, mean_labels_per_sample=2.5,
                                imbalance_exponent=0.0, correlation_strength=0.0, seed=3))
        counts = ds.labels.sum(axis=0).astype(float)
        # each sample hits class c with prob card/8; 3-sigma Poisson-binomial bounds
        cards = ds.cardinalities().astype(float)
        mean = float((cards / 8).sum())
        sigma = float(np.sqrt(((cards / 8) * (1 - cards / 8)).sum()))
        assert np.all(np.abs(counts - mean) <= 3.0 * sigma)

    def test_bit_identical_replay(self):
        cfg = GenConfig(n=400, d=6, k=6, mean_labels_per_sample=2.2, seed=42,
                        imbalance_exponent=1.5, correlation_strength=0.9)
        assert datasets_equal(generate(cfg), generate(cfg))

    def test_rejects_mean_above_k(self):
        with pytest.raises(ValueError, match="exceeds class count"):
            generate(GenConfig(n=10, d=2, k=3, mean_labels_per_sample=4.0)).n

    def test_rejects_class_weight_underflow(self):
        # 20^-400 underflows to 0: that class could only be reached by clamping
        with pytest.raises(ValueError, match="underflows the weight of class"):
            generate(GenConfig(n=10, d=2, k=20, mean_labels_per_sample=3.0,
                               imbalance_exponent=400.0))
        GenConfig(n=10, d=2, k=20, mean_labels_per_sample=3.0, imbalance_exponent=200.0).validate()

    def test_imbalance_orders_frequencies(self):
        ds = generate(GenConfig(n=6000, d=4, k=8, mean_labels_per_sample=2.0,
                                imbalance_exponent=2.0, seed=5))
        counts = ds.labels.sum(axis=0)
        assert counts[0] > counts[4] > counts[7]

    def test_every_sample_keeps_a_negative(self):
        ds = generate(GenConfig(n=3000, d=4, k=8, mean_labels_per_sample=2.9, seed=9))
        assert ds.cardinalities().max() < 8


def reference_labels(cards, base_w, aff, rho, stream):
    """Per-sample, per-label loop that `_sample_labels` computes in rounds."""
    n, k = len(cards), len(base_w)
    labels = np.zeros((n, k), dtype=np.uint8)
    for i in range(n):
        chosen = []
        for _ in range(int(cards[i])):
            w = base_w.copy()
            if chosen:
                w[chosen] = 0.0
                if rho > 0.0:
                    a = aff[chosen].mean(axis=0)
                    a[chosen] = 0.0
                    mean_a = a[w > 0.0].mean()
                    rel = a / mean_a if mean_a > 0 else np.ones_like(a)
                    w = w * ((1.0 - rho) + rho * rel)
            u = stream.uniform(1)[0] * w.sum()
            chosen.append(min(int(np.searchsorted(np.cumsum(w), u, side="right")), k - 1))
        labels[i, chosen] = 1
    return labels


class TestSampleLabelsOracle:
    def test_row_means_keep_per_row_summation_order(self):
        # a zero-filled row sum groups numpy's pairwise sum differently and
        # misses these bits on about a third of the rows
        rng = np.random.default_rng(0)
        a = rng.uniform(size=(500, 20)) ** 4
        valid = rng.uniform(size=(500, 20)) < 0.7
        valid[:, 0] = True
        want = np.array([row[keep].mean() for row, keep in zip(a, valid)])
        assert _row_means(a, valid).tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=2 ** 32),
           st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.floats(min_value=0.0, max_value=3.0),
           st.booleans())
    def test_rounds_match_per_sample_loop(self, k, seed, rho, exponent, flat_affinity):
        rng = np.random.default_rng(seed)
        cards = rng.integers(1, (k - 1 if k >= 3 else k) + 1, size=150)
        aff = np.zeros((k, k))
        if not flat_affinity:  # all-zero affinity takes the rel = 1 branch
            aff[np.triu_indices(k, 1)] = rng.uniform(size=k * (k - 1) // 2) ** 4
            aff = aff + aff.T
        base_w = _base_weights(k, exponent)
        got = _sample_labels(cards, base_w, aff, rho, RandomStream(seed))
        want = reference_labels(cards, base_w, aff, rho, RandomStream(seed))
        np.testing.assert_array_equal(got, want)


class TestStripSingleLabel:
    def test_all_multi_gives_empty_singles(self):
        ds = small_dataset(cards=[3] * 20)
        multi, singles = strip_single_label(ds)
        assert multi.n == 20 and singles.n == 0

    def test_all_singles_gives_empty_multi(self):
        ds = small_dataset(cards=[1] * 20)
        multi, singles = strip_single_label(ds)
        assert multi.n == 0 and singles.n == 20

    def test_partition_matches_popcount_oracle(self):
        ds = small_dataset(n=10, seed=4)
        multi, singles = strip_single_label(ds)
        assert multi.n + singles.n == 10
        pops = ds.labels.sum(axis=1)
        assert multi.n == int((pops >= 2).sum())
        assert singles.n == int((pops == 1).sum())
        assert np.all(multi.cardinalities() >= 2)
        assert np.all(singles.cardinalities() == 1)

    def test_order_preserved(self):
        ds = small_dataset(n=30, seed=8)
        multi, _ = strip_single_label(ds)
        src = ds.features[ds.cardinalities() >= 2]
        np.testing.assert_array_equal(multi.features, src)


class TestSplitGoldSilver:
    def test_round_count(self):
        ds = small_dataset(n=1000, seed=1)
        gold, silver = split_gold_silver(ds, SplitSpec(0.10, seed=2))
        assert gold.n == 100 and silver.n == 900

    def test_matches_reported_five_percent_count(self):
        # 5% of 65268 samples rounds to a gold set of 3263
        n = 65268
        labels = np.zeros((n, 2), dtype=np.uint8)
        labels[:, 0] = 1
        ds = Dataset(np.zeros((n, 1)), labels)
        gold, silver = split_gold_silver(ds, SplitSpec(0.05, seed=8))
        assert gold.n == 3263
        assert silver.n == n - 3263

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.02, max_value=0.9), st.integers(min_value=0, max_value=2 ** 32))
    def test_union_and_disjointness(self, frac, seed):
        ds = small_dataset(n=200, seed=3)
        gold, silver = split_gold_silver(ds, SplitSpec(frac, seed=seed))
        assert gold.n + silver.n == 200
        joined = np.concatenate([gold.features, silver.features])
        assert np.array_equal(np.sort(joined, axis=0), np.sort(ds.features, axis=0))

    def test_empty_silver_split_refused(self):
        ds = small_dataset(n=400, seed=4)
        with pytest.raises(ValueError, match=r"^trusted_fraction 0\.999 leaves no silver "
                                             r"samples of 400$"):
            split_gold_silver(ds, SplitSpec(0.999, seed=1))

    def test_empty_gold_split_allowed(self):
        gold, silver = split_gold_silver(small_dataset(n=40, seed=5), SplitSpec(0.01, seed=1))
        assert gold.n == 0 and silver.n == 40


class TestSingleLabelPool:
    def test_class_with_fewer_keeps_all(self):
        labels = np.zeros((4, 3), dtype=np.uint8)
        labels[:, 0] = 1
        with pytest.warns(UserWarning, match="classes without single-label samples"):
            pool = build_single_label_pool(Dataset(np.zeros((4, 2)), labels), 10, seed=1)
        assert pool.n == 4

    def test_limit_caps_per_class(self):
        ds = small_dataset(n=60, k=4, cards=[1] * 60, seed=5)
        pool = build_single_label_pool(ds, 5, seed=2)
        assert np.all(pool.labels.sum(axis=0) <= 5)
        assert pool.n <= 5 * 4

    def test_unlimited_is_identity(self):
        ds = small_dataset(n=25, k=4, cards=[1] * 25, seed=6)
        pool = build_single_label_pool(ds, None, seed=3)
        assert datasets_equal(pool, ds)

    def test_rejects_multi_label_input(self):
        ds = small_dataset(cards=[2] * 20)
        with pytest.raises(ValueError, match="positives"):
            build_single_label_pool(ds, 5)

    def test_strip_then_pool_composition(self):
        ds = generate(GenConfig(n=2000, d=4, k=6, mean_labels_per_sample=2.2, seed=31))
        _, singles = strip_single_label(ds)
        pool = build_single_label_pool(singles, 20, seed=32)
        assert np.all(pool.cardinalities() == 1)


class TestDatasetFile:
    def test_round_trip_exact(self, tmp_path):
        ds = generate(GenConfig(n=50, d=5, k=4, mean_labels_per_sample=2.0, seed=12))
        path = tmp_path / "ds.mlnl"
        write_dataset(ds, path)
        assert datasets_equal(read_dataset(path), ds)

    def test_noisy_tag_survives_round_trip(self, tmp_path):
        ds = small_dataset(n=5, seed=2)
        noisy = Dataset(ds.features, ds.labels, tag="noisy")
        path = tmp_path / "n.mlnl"
        write_dataset(noisy, path)
        assert read_dataset(path).tag == "noisy"

    def test_wellformed_header_parses(self, tmp_path):
        text = ("# a comment\n"
                "MLNL v1 3 2 4\n"
                "0.5 1.0 | 0 2\n"
                "1.5 -2.0 | 1\n"
                "0.0 0.25 | 3\n")
        path = tmp_path / "ok.mlnl"
        path.write_text(text)
        ds = read_dataset(path)
        assert ds.n == 3 and ds.num_features == 2 and ds.num_classes == 4
        assert ds.labels[0].tolist() == [1, 0, 1, 0]

    def test_class_count_limit_is_shared_by_config_and_file(self, tmp_path):
        assert GenConfig(n=10, d=2, k=MAX_CLASSES).k == MAX_CLASSES
        with pytest.raises(ValueError, match=rf"^k must be at most {MAX_CLASSES}, "
                                             rf"got {MAX_CLASSES + 1}$"):
            GenConfig(n=10, d=2, k=MAX_CLASSES + 1)
        path = tmp_path / "widest.mlnl"
        path.write_text(f"MLNL v1 1 1 {MAX_CLASSES}\n0 | {MAX_CLASSES - 1}\n")
        assert read_dataset(path).num_classes == MAX_CLASSES
        # 104 bytes whose header asks for 6 label rows of 2000000 classes
        path = tmp_path / "wide.mlnl"
        path.write_text("MLNL v1 6 1 2000000\n" + "0 | 0 1999999\n" * 6)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: class count 2000000 "
                                             rf"exceeds the limit of {MAX_CLASSES}$"):
            read_dataset(path)

    def test_wide_header_is_refused_before_allocating(self, tmp_path):
        """The read runs in a child process that reports how far it raised its
        own peak RSS; labels sized by this header would take over 140 MB."""
        path = tmp_path / "wide.mlnl"
        path.write_text("MLNL v1 6 1 20000000\n" + "0 | 0 19999999\n" * 6)
        child = textwrap.dedent("""
            import resource, sys
            from mlnl.datagen import read_dataset
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                read_dataset(sys.argv[1])
            except ValueError as e:
                print(e)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", child, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        error, growth = done.stdout.splitlines()
        assert "exceeds the limit" in error
        unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is KiB on Linux
        assert int(growth) * unit < 16 * 2**20

    def test_header_that_fits_the_file_exactly_is_read(self, tmp_path):
        # the shortest row of d features is 2d+1 bytes: no valid file is refused
        path = tmp_path / "tight.mlnl"
        path.write_bytes(b"MLNL v1 2 3 1\n0 0 0|0\n0 0 0|0")
        assert read_dataset(path).features.shape == (2, 3)
