"""Corruption-matrix estimators.

GALC-SLR estimation: per-class regulator rows are the mean softmax prediction
of the silver classifier over clean single-label samples of that class. For
each class k, over estimation samples containing k, the sigmoid prediction is
corrected by subtracting the regulator rows of the co-present labels and
adding back that many copies of k's own regulator row, then averaged. The
accumulated matrix is the raw estimate; element-wise sigmoid of it is the
scaled estimate. On an all-single-label estimation set the regulator terms
vanish and the raw estimate degenerates to the per-class mean sigmoid
prediction (the GLC recipe on the sigmoid readout).

GLC baseline: row k is the mean readout (softmax by default) over trusted
samples whose label k is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import textio
from .datagen import Dataset
from .model import MlpModel, forward
from .noise import KIND_RAW, KIND_SCALED, CorruptionMatrix, write_matrix
from .numerics import logit, sigmoid


@dataclass(eq=False)
class EstimationReport:
    raw: CorruptionMatrix
    scaled: CorruptionMatrix
    counts: np.ndarray
    fallback_classes: list[int]


def _class_sums(labels: np.ndarray, *values: np.ndarray):
    """Sum each of `values` over the samples carrying each label.

    Returns one (K, ...) array of sums per value, the (K,) sample counts, and
    the classes without samples, whose sums stay zero.
    """
    k = labels.shape[1]
    sums = [np.zeros((k,) + v.shape[1:]) for v in values]
    counts = np.zeros(k, dtype=np.int64)
    for c in range(k):
        mask = labels[:, c] == 1
        counts[c] = mask.sum()
        for total, v in zip(sums, values):
            total[c] = v[mask].sum(axis=0)
    return sums, counts, np.flatnonzero(counts == 0).tolist()


def _class_means(sums: np.ndarray, counts: np.ndarray, fallback) -> np.ndarray:
    """Row c of `sums` divided by counts[c]; rows of empty classes are `fallback`."""
    means = np.full_like(sums, fallback)
    np.divide(sums, counts[:, None], out=means, where=counts[:, None] > 0)
    return means


def _report(raw: np.ndarray, counts: np.ndarray, fallback: list[int]) -> EstimationReport:
    return EstimationReport(
        raw=CorruptionMatrix(raw, KIND_RAW),
        scaled=CorruptionMatrix(sigmoid(raw), KIND_SCALED),
        counts=counts, fallback_classes=fallback)


def compute_regulators(model: MlpModel, pool: Dataset) -> np.ndarray:
    """The (K, K) regulator matrix: row c is the mean softmax prediction over
    the clean single-label pool's samples of class c, uniform if it has none."""
    if pool.n == 0:
        raise ValueError("single-label pool is empty")
    cards = pool.cardinalities()
    if not np.all(cards == 1):
        bad = int(np.argmax(cards != 1))
        raise ValueError(f"pool sample {bad} has {cards[bad]} positives; expected exactly 1")
    (sums,), counts, _ = _class_sums(pool.labels, forward(model, pool.features).p_soft)
    return _class_means(sums, counts, 1.0 / pool.num_classes)


def estimate_galc_slr(model: MlpModel, estimation_set: Dataset,
                      reg: np.ndarray) -> EstimationReport:
    """Regulator-corrected corruption estimate over a multi-label estimation
    set; `reg` is the (K, K) matrix of compute_regulators."""
    if estimation_set.n == 0:
        raise ValueError("estimation set is empty")
    k = estimation_set.num_classes
    if reg.shape != (k, k):
        raise ValueError("regulator matrix does not match class count")
    sig = forward(model, estimation_set.features).p_sig
    y = estimation_set.labels.astype(np.float64)
    # For samples with class c positive:
    #   sum_i [ sig_i - (y_i @ reg - reg_c) + (card_i - 1) * reg_c ]
    # y_i @ reg is the sum of the regulator rows of sample i's labels.
    (sig_sums, reg_sums, extra), counts, fallback = _class_sums(
        estimation_set.labels, sig, y @ reg, y.sum(axis=1) - 1.0)
    n = counts[:, None]
    acc = sig_sums - (reg_sums - n * reg) + extra[:, None] * reg
    raw = _class_means(acc, counts, logit(np.full(k, 1.0 / k)))
    return _report(raw, counts, fallback)


GLC_READOUTS = ("softmax", "sigmoid")


def estimate_glc(model: MlpModel, gold: Dataset,
                 readout: str = "softmax") -> EstimationReport:
    """GLC baseline: per-class mean prediction over trusted samples."""
    if gold.n == 0:
        raise ValueError("gold set is empty")
    if readout not in GLC_READOUTS:
        raise ValueError(f"unknown readout {readout!r}")
    out = forward(model, gold.features)
    (sums,), counts, fallback = _class_sums(
        gold.labels, out.p_soft if readout == "softmax" else out.p_sig)
    return _report(_class_means(sums, counts, 1.0 / gold.num_classes), counts, fallback)


@dataclass(frozen=True)
class MatrixComparison:
    frobenius_distance: float
    mean_diagonal: float
    mean_offdiagonal: float
    diagonal_gap: float


def compare_matrices(a: CorruptionMatrix, b: CorruptionMatrix) -> MatrixComparison:
    """Distance of `a` from reference `b`, plus diagonal-contrast stats of `a`."""
    if a.k != b.k:
        raise ValueError(f"matrix sizes differ: {a.k} vs {b.k}")
    diff = a.matrix - b.matrix
    frob = float(np.sqrt(np.sum(diff * diff)))
    k = a.k
    diag = float(np.trace(a.matrix) / k)
    off = float((a.matrix.sum() - np.trace(a.matrix)) / (k * (k - 1))) if k > 1 else 0.0
    return MatrixComparison(frobenius_distance=frob, mean_diagonal=diag,
                            mean_offdiagonal=off, diagonal_gap=diag - off)


def write_report(report: EstimationReport, prefix) -> None:
    """Write `<prefix>_raw.csv`, `<prefix>_scaled.csv`, `<prefix>_info.txt`."""
    write_matrix(report.raw, f"{prefix}_raw.csv")
    write_matrix(report.scaled, f"{prefix}_scaled.csv")
    textio.write_lines(f"{prefix}_info.txt", ["class,count,fallback", *(
        f"{c},{int(report.counts[c])},{'yes' if c in report.fallback_classes else 'no'}"
        for c in range(report.raw.k))])
