"""Multi-label evaluation: per-class average precision, mAP, CF1, OF1.

AP is the non-interpolated definition with deterministic tie-breaking (equal
scores rank by lower original index first). CF1 combines macro-averaged
precision and recall harmonically; OF1 pools counts over all classes. Classes
with no positive ground truth are excluded from mAP and reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MetricsReport:
    map: float
    cf1: float
    of1: float
    per_class_ap: np.ndarray  # NaN for classes without positives


def average_precision(scores, relevance) -> float:
    """Non-interpolated AP of one ranking; requires >= 1 relevant item."""
    scores = np.asarray(scores, dtype=np.float64)
    rel = np.asarray(relevance).astype(bool)
    if scores.shape != rel.shape or scores.ndim != 1:
        raise ValueError("scores and relevance must be 1-D and same length")
    r = int(rel.sum())
    if r == 0:
        raise ValueError("average_precision is undefined without relevant items")
    keys = -scores
    order = np.argsort(keys)
    ranked = keys[order]
    if not (ranked[1:] > ranked[:-1]).all():
        # ties or NaN: only the stable order breaks them by original index
        order = np.argsort(keys, kind="stable")
    hits = rel[order]
    cum_hits = np.cumsum(hits)
    ranks = np.arange(1, len(scores) + 1)
    precisions = cum_hits[hits] / ranks[hits]
    return float(precisions.sum() / r)


def mean_ap(score_matrix, labels) -> tuple[float, np.ndarray, list[int]]:
    """mAP over classes with >= 1 positive; returns (map, per-class AP, excluded)."""
    scores = np.asarray(score_matrix, dtype=np.float64)
    y = np.asarray(labels)
    if scores.shape != y.shape or scores.ndim != 2:
        raise ValueError("score matrix and labels must be 2-D and same shape")
    k = scores.shape[1]
    per_class = np.full(k, np.nan)
    excluded = []
    for c in range(k):
        if y[:, c].sum() == 0:
            excluded.append(c)
            continue
        per_class[c] = average_precision(scores[:, c], y[:, c])
    if len(excluded) == k:
        raise ValueError("no class has a positive label")
    return float(np.nanmean(per_class)), per_class, excluded


def f1_scores(pred_probs, labels) -> tuple[float, float]:
    """CF1 and OF1 at threshold 0.5 (prediction positive iff p >= 0.5).

    CF1 is the harmonic mean of macro-averaged precision and recall;
    zero-denominator classes contribute 0 to the macro means.
    """
    p = np.asarray(pred_probs, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    if p.shape != y.shape or p.ndim != 2:
        raise ValueError("predictions and labels must be 2-D and same shape")
    pred = p >= 0.5
    tp = (pred & y).sum(axis=0).astype(np.float64)
    fp = (pred & ~y).sum(axis=0).astype(np.float64)
    fn = (~pred & y).sum(axis=0).astype(np.float64)

    with np.errstate(invalid="ignore", divide="ignore"):
        prec = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        rec = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
    cp, cr = float(prec.mean()), float(rec.mean())
    cf1 = 2 * cp * cr / (cp + cr) if cp + cr > 0 else 0.0

    otp, ofp, ofn = tp.sum(), fp.sum(), fn.sum()
    op = otp / (otp + ofp) if otp + ofp > 0 else 0.0
    orc = otp / (otp + ofn) if otp + ofn > 0 else 0.0
    of1 = 2 * op * orc / (op + orc) if op + orc > 0 else 0.0
    return cf1, float(of1)


def evaluate(score_matrix, labels) -> MetricsReport:
    """Full multi-label report from probability scores and binary labels; F1 at 0.5."""
    m, per_class, _ = mean_ap(score_matrix, labels)
    cf1, of1 = f1_scores(score_matrix, labels)
    return MetricsReport(map=m, cf1=cf1, of1=of1, per_class_ap=per_class)
