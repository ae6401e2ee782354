import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlnl.metrics import MetricsReport, average_precision, evaluate, f1_scores, mean_ap


def ap_bruteforce(scores, relevance):
    """Direct-definition oracle: sort desc (ties by index), mean precision@hit."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    hits, total = 0, 0.0
    for rank, idx in enumerate(order, start=1):
        if relevance[idx]:
            hits += 1
            total += hits / rank
    return total / hits


def ap_stable_reference(scores, rel):
    """Average precision ranked by a stable argsort of -scores, the order the
    fast path must reproduce."""
    order = np.argsort(-scores, kind="stable")
    hits = rel[order]
    cum_hits = np.cumsum(hits)
    ranks = np.arange(1, len(scores) + 1)
    precisions = cum_hits[hits] / ranks[hits]
    return float(precisions.sum() / int(rel.sum()))


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0]) == 1.0

    def test_one_relevant_ranked_second(self):
        assert average_precision([0.9, 0.1], [0, 1]) == 0.5

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 21))
            scores = rng.normal(size=n)
            rel = (rng.uniform(size=n) < 0.4).astype(int)
            if rel.sum() == 0:
                rel[int(rng.integers(0, n))] = 1
            got = average_precision(scores, rel)
            want = ap_bruteforce(list(scores), list(rel))
            assert abs(got - want) <= 1e-12

    def test_rejects_no_relevant(self):
        with pytest.raises(ValueError):
            average_precision([0.5, 0.2], [0, 0])

    def test_tie_break_by_lower_index(self):
        # indices 0 and 1 share a score; index 0 is ranked first
        assert average_precision([0.5, 0.5], [1, 0]) == 1.0
        assert average_precision([0.5, 0.5], [0, 1]) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.nan, np.inf]),
                              st.booleans()), min_size=1, max_size=60),
           st.integers(min_value=0, max_value=3))
    def test_equals_stable_argsort_reference(self, items, extra_distinct):
        # few distinct values (ties, signed zeros, NaN): the default-sort fast
        # path must fall back to exactly the stable order
        scores = np.array([t[0] for t in items], dtype=float)
        scores[:extra_distinct] += np.arange(1, extra_distinct + 1)[:len(scores)] * 1e-3
        rel = np.array([t[1] for t in items], dtype=bool)
        if not rel.any():
            rel[-1] = True
        assert repr(average_precision(scores, rel)) == repr(ap_stable_reference(scores, rel))

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.integers(min_value=-1000, max_value=1000),
                              st.booleans()), min_size=2, max_size=25))
    def test_monotone_transform_invariance(self, items):
        # coarse score grid keeps values distinct under the affine transform
        scores = np.array([t[0] for t in items], dtype=float) / 100.0
        scores += np.arange(len(scores)) * 1e-6  # deterministic tie breaking
        rel = np.array([t[1] for t in items], dtype=int)
        if rel.sum() == 0:
            rel[0] = 1
        a = average_precision(scores, rel)
        b = average_precision(3.0 * scores + 7.0, rel)
        assert abs(a - b) <= 1e-12


class TestMeanAp:
    def test_perfect_scores(self):
        y = np.eye(4, dtype=np.uint8)
        m, per_class, excluded = mean_ap(y.astype(float), y)
        assert m == 1.0 and excluded == []

    def test_antiperfect_closed_form(self):
        # score = 1 - label: all R positives ranked last among N items;
        # AP = (1/R) * sum_{i=1..R} i / (N - R + i)
        rng = np.random.default_rng(2)
        y = (rng.uniform(size=(12, 3)) < 0.4).astype(np.uint8)
        y[y.sum(axis=1) == 0, 0] = 1
        scores = 1.0 - y.astype(float)
        m, per_class, _ = mean_ap(scores, y)
        n = y.shape[0]
        for c in range(3):
            r = int(y[:, c].sum())
            if r == 0:
                continue
            want = sum(i / (n - r + i) for i in range(1, r + 1)) / r
            assert abs(per_class[c] - want) <= 1e-12

    def test_equals_per_class_loop(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=(30, 5))
        y = (rng.uniform(size=(30, 5)) < 0.3).astype(np.uint8)
        y[y.sum(axis=1) == 0, 0] = 1
        m, per_class, excluded = mean_ap(scores, y)
        vals = []
        for c in range(5):
            if y[:, c].sum() == 0:
                assert c in excluded
                continue
            ap = average_precision(scores[:, c], y[:, c])
            assert abs(per_class[c] - ap) <= 1e-15
            vals.append(ap)
        assert abs(m - np.mean(vals)) <= 1e-12

    def test_empty_class_excluded(self):
        y = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        m, per_class, excluded = mean_ap(np.random.default_rng(0).uniform(size=(2, 2)), y)
        assert excluded == [1]
        assert np.isnan(per_class[1])

    def test_rejects_all_empty(self):
        with pytest.raises(ValueError):
            mean_ap(np.zeros((2, 2)), np.zeros((2, 2), dtype=np.uint8))

    def test_per_class_rescaling_invariance(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=(30, 4))
        y = (rng.uniform(size=(30, 4)) < 0.4).astype(np.uint8)
        y[y.sum(axis=1) == 0, 0] = 1
        rescaled = scores * np.array([2.0, 0.5, 10.0, 1.0]) + np.array([0, 3, -1, 7])
        a, _, _ = mean_ap(scores, y)
        b, _, _ = mean_ap(rescaled, y)
        assert abs(a - b) <= 1e-12


class TestF1Scores:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(1)
        y = (rng.uniform(size=(20, 4)) < 0.5).astype(np.uint8)
        y[y.sum(axis=1) == 0, 0] = 1
        cf1, of1 = f1_scores(y.astype(float), y, 0.5)
        assert cf1 == 1.0 and of1 == 1.0

    def test_all_negative_gives_zero(self):
        y = np.ones((10, 3), dtype=np.uint8)
        cf1, of1 = f1_scores(np.zeros((10, 3)), y, 0.5)
        assert of1 == 0.0 and cf1 == 0.0

    def test_confusion_count_oracle(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(size=(50, 8))
        y = (rng.uniform(size=(50, 8)) < 0.35).astype(np.uint8)
        cf1, of1 = f1_scores(p, y, 0.5)

        pred = p >= 0.5
        precs, recs = [], []
        for c in range(8):
            tp = int((pred[:, c] & (y[:, c] == 1)).sum())
            fp = int((pred[:, c] & (y[:, c] == 0)).sum())
            fn = int((~pred[:, c] & (y[:, c] == 1)).sum())
            precs.append(tp / (tp + fp) if tp + fp else 0.0)
            recs.append(tp / (tp + fn) if tp + fn else 0.0)
        cp, cr = np.mean(precs), np.mean(recs)
        want_cf1 = 2 * cp * cr / (cp + cr) if cp + cr else 0.0
        tp = int((pred & (y == 1)).sum())
        fp = int((pred & (y == 0)).sum())
        fn = int((~pred & (y == 1)).sum())
        op = tp / (tp + fp) if tp + fp else 0.0
        orc = tp / (tp + fn) if tp + fn else 0.0
        want_of1 = 2 * op * orc / (op + orc) if op + orc else 0.0
        assert abs(cf1 - want_cf1) <= 1e-12
        assert abs(of1 - want_of1) <= 1e-12

    def test_per_class_f1_mean_flag(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(size=(40, 5))
        y = (rng.uniform(size=(40, 5)) < 0.4).astype(np.uint8)
        a, _ = f1_scores(p, y, 0.5, per_class_f1_mean=False)
        b, _ = f1_scores(p, y, 0.5, per_class_f1_mean=True)
        assert a != b  # different conventions on generic data

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            f1_scores(np.zeros((2, 2)), np.zeros((2, 2)), 1.5)


class TestEvaluate:
    def test_report_fields_in_unit_interval(self):
        rng = np.random.default_rng(9)
        scores = rng.uniform(size=(40, 6))
        y = (rng.uniform(size=(40, 6)) < 0.3).astype(np.uint8)
        y[y.sum(axis=1) == 0, 0] = 1
        rep = evaluate(scores, y)
        assert isinstance(rep, MetricsReport)
        assert 0.0 <= rep.map <= 1.0
        assert 0.0 <= rep.cf1 <= 1.0
        assert 0.0 <= rep.of1 <= 1.0
        assert rep.threshold == 0.5

    def test_sample_shuffle_invariance(self):
        rng = np.random.default_rng(10)
        scores = rng.normal(size=(25, 4))  # continuous: ties have measure zero
        y = (rng.uniform(size=(25, 4)) < 0.4).astype(np.uint8)
        y[y.sum(axis=1) == 0, 0] = 1
        rep1 = evaluate(scores, y)
        perm = rng.permutation(25)
        rep2 = evaluate(scores[perm], y[perm])
        assert abs(rep1.map - rep2.map) <= 1e-12
        assert abs(rep1.cf1 - rep2.cf1) <= 1e-12
        assert abs(rep1.of1 - rep2.of1) <= 1e-12
