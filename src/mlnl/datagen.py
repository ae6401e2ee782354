"""Synthetic multi-label dataset generation, gold/silver splitting, and dataset file IO.

Labels are drawn from a correlated process: class base frequencies follow a
power law (k+1)^-imbalance_exponent, and once a label is chosen, subsequent
labels for the same sample are re-weighted by a seeded co-occurrence affinity
graph. Features are the sum of the active classes' prototype vectors plus
Gaussian noise, so the label set is recoverable from features only up to the
noise scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import RandomStream

FILE_MAGIC = "MLNL"
FILE_VERSION = "v1"
_WRITE_CHUNK_ROWS = 4096  # dataset text is formatted and written this many rows at a time


@dataclass(eq=False)
class Dataset:
    """N samples of d features with K-class binary label vectors."""

    features: np.ndarray  # (N, d) float64
    labels: np.ndarray    # (N, K) uint8, each row has >= 1 positive
    tag: str = "clean"    # "clean" or "noisy"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise ValueError("features and labels must be 2-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if self.tag not in ("clean", "noisy"):
            raise ValueError(f"unknown tag {self.tag!r}")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if self.labels.size and not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be binary")
        if self.labels.size and np.any(self.labels.sum(axis=1) == 0):
            bad = int(np.argmin(self.labels.sum(axis=1)))
            raise ValueError(f"sample {bad} has no positive label")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return self.labels.shape[1]

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx].copy(), self.labels[idx].copy(), self.tag)

    def cardinalities(self) -> np.ndarray:
        return self.labels.sum(axis=1).astype(np.int64)


def datasets_equal(a: Dataset, b: Dataset, check_tag: bool = True) -> bool:
    if check_tag and a.tag != b.tag:
        return False
    return (a.features.shape == b.features.shape
            and a.labels.shape == b.labels.shape
            and np.array_equal(a.features, b.features)
            and np.array_equal(a.labels, b.labels))


@dataclass(frozen=True)
class GenConfig:
    """Controls for the synthetic generator."""

    n: int
    d: int
    k: int
    mean_labels_per_sample: float = 2.4
    feature_noise_sigma: float = 0.8
    imbalance_exponent: float = 0.0
    correlation_strength: float = 0.0
    seed: int = 0

    def validate(self):
        if min(self.n, self.d, self.k) <= 0:
            raise ValueError("n, d, k must be positive")
        # written so that NaN fails every comparison and is rejected
        if not self.mean_labels_per_sample >= 2.0:
            raise ValueError("mean_labels_per_sample must be >= 2")
        if self.mean_labels_per_sample > self.k:
            raise ValueError(
                f"mean_labels_per_sample {self.mean_labels_per_sample} exceeds class count {self.k}")
        if not 0.0 < self.feature_noise_sigma < math.inf:
            raise ValueError("feature_noise_sigma must be finite and > 0")
        if not self.imbalance_exponent >= 0:
            raise ValueError("imbalance_exponent must be >= 0")
        zero = np.flatnonzero(~(_base_weights(self.k, self.imbalance_exponent) > 0.0))
        if zero.size:
            raise ValueError(f"imbalance_exponent {self.imbalance_exponent!r} underflows the "
                             f"weight of class {int(zero[0])} to 0")
        if not 0.0 <= self.correlation_strength <= 1.0:
            raise ValueError("correlation_strength must be in [0, 1]")


@dataclass(frozen=True)
class SplitSpec:
    """Gold/silver split parameters."""

    trusted_fraction: float
    seed: int = 0

    def validate(self):
        if not 0.0 < self.trusted_fraction < 1.0:
            raise ValueError("trusted_fraction must be in (0, 1)")


def _cardinality_support(k: int) -> int:
    # keep >=1 negative label per sample so noise injection always has a target
    return k - 1 if k >= 3 else k


def _cardinality_pmf(lam: float, k: int) -> np.ndarray:
    """pmf over cardinalities {1..cmax} of 1 + Poisson(lam), truncated."""
    cmax = _cardinality_support(k)
    logw = np.array([(c - 1) * math.log(lam) - math.lgamma(c) if lam > 0 else (0.0 if c == 1 else -np.inf)
                     for c in range(1, cmax + 1)])
    w = np.exp(logw - logw.max())
    return w / w.sum()


def _solve_cardinality_rate(target_mean: float, k: int) -> float:
    """Bisect the Poisson rate so the truncated cardinality mean hits target_mean."""
    cards = np.arange(1, _cardinality_support(k) + 1)
    lo, hi = 0.0, 800.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        mean = float(cards @ _cardinality_pmf(mid, k)) if mid > 0 else 1.0
        if mean < target_mean:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _base_weights(k: int, imbalance_exponent: float) -> np.ndarray:
    """Power-law class weights (c+1)^-imbalance_exponent, normalised to sum 1."""
    w = np.arange(1, k + 1, dtype=np.float64) ** (-imbalance_exponent)
    return w / w.sum()


def _row_means(a: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Per-row mean of the entries of `a` where `valid`, each summed as
    ``a[i][valid[i]].mean()`` sums it: rows are grouped by their count of valid
    entries and compacted into contiguous rows, which keeps numpy's pairwise
    summation order."""
    counts = valid.sum(axis=1)
    means = np.empty(a.shape[0])
    for c in np.unique(counts):
        rows = counts == c
        means[rows] = a[rows][valid[rows]].reshape(-1, c).mean(axis=1)
    return means


def _sample_labels(cards: np.ndarray, base_w: np.ndarray, aff: np.ndarray, rho: float,
                   stream: RandomStream) -> np.ndarray:
    """Draw `cards[i]` distinct labels for every sample i, in rounds.

    Round j picks the j-th label of every sample with more than j labels: the
    base weights with the chosen classes zeroed and, for rho > 0, re-weighted
    by the chosen classes' mean affinity relative to its mean over the
    unchosen classes, then inverted at a uniform draw. Sample i's j-th uniform
    is draw ``offsets[i] + j`` of the stream, and each float operation keeps
    the order of a per-sample loop (affinity rows summed in the order chosen,
    then divided by j; cumulative weights counted against the draw), so a
    sample's labels do not depend on which other samples share its rounds.
    """
    n, k = cards.shape[0], base_w.shape[0]
    uniforms = stream.uniform(int(cards.sum()))
    offsets = np.cumsum(cards) - cards
    labels = np.zeros((n, k), dtype=np.uint8)
    aff_sum = np.zeros((n, k))
    for j in range(int(cards.max(initial=0))):
        rows = np.flatnonzero(cards > j)
        chosen = labels[rows].astype(bool)
        w = np.where(chosen, 0.0, base_w)
        if j and rho > 0.0:
            a = np.where(chosen, 0.0, aff_sum[rows] / j)
            mean_a = _row_means(a, w > 0.0)
            rel = np.ones_like(a)
            pos = mean_a > 0.0
            rel[pos] = a[pos] / mean_a[pos, None]
            w = w * ((1.0 - rho) + rho * rel)
        u = uniforms[offsets[rows] + j] * w.sum(axis=1)
        c = np.minimum((np.cumsum(w, axis=1) <= u[:, None]).sum(axis=1), k - 1)
        labels[rows, c] = 1
        aff_sum[rows] += aff[c]
    return labels


def generate(config: GenConfig) -> Dataset:
    """Generate a clean synthetic dataset; a pure function of the config."""
    config.validate()
    root = RandomStream(config.seed)
    k, d, n = config.k, config.d, config.n

    prototypes = root.derive("prototypes").normal(k * d).reshape(k, d)

    # symmetric co-occurrence affinity in [0, 1], sharpened so that at high
    # correlation_strength each class has a few dominant partners
    aff_stream = root.derive("affinity")
    aff = np.zeros((k, k))
    iu = np.triu_indices(k, 1)
    aff[iu] = aff_stream.uniform(len(iu[0])) ** 4
    aff = aff + aff.T

    lam = _solve_cardinality_rate(config.mean_labels_per_sample, k)
    pmf = _cardinality_pmf(lam, k)
    cdf = np.cumsum(pmf)
    card_stream = root.derive("cardinality")
    cards = 1 + np.searchsorted(cdf, card_stream.uniform(n), side="right")
    cards = np.minimum(cards, _cardinality_support(k))

    base_w = _base_weights(k, config.imbalance_exponent)
    labels = _sample_labels(cards, base_w, aff, config.correlation_strength,
                            root.derive("labels"))

    noise = root.derive("features").normal(n * d).reshape(n, d)
    features = labels.astype(np.float64) @ prototypes + config.feature_noise_sigma * noise
    return Dataset(features, labels, tag="clean")


def strip_single_label(ds: Dataset) -> tuple[Dataset, Dataset]:
    """Partition into (samples with >= 2 positives, samples with exactly 1)."""
    if ds.tag != "clean":
        raise ValueError("strip_single_label expects a clean dataset")
    cards = ds.cardinalities()
    multi_idx = np.flatnonzero(cards >= 2)
    single_idx = np.flatnonzero(cards == 1)
    return ds.take(multi_idx), ds.take(single_idx)


def split_gold_silver(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Uniform seeded split into a trusted gold set and the silver remainder."""
    if ds.tag != "clean":
        raise ValueError("split_gold_silver expects a clean dataset")
    spec.validate()
    n_gold = int(round(spec.trusted_fraction * ds.n))
    stream = RandomStream(spec.seed).derive("gold-split")
    perm = stream.permutation(ds.n)
    gold_idx = np.sort(perm[:n_gold])
    silver_idx = np.sort(perm[n_gold:])
    return ds.take(gold_idx), ds.take(silver_idx)


def build_single_label_pool(singles: Dataset, limit_per_class: int | None,
                            seed: int = 0) -> Dataset:
    """Cap the single-label pool at `limit_per_class` samples per class.

    A seeded shuffle decides which samples survive the cap; classes with fewer
    keep all of them. Classes with zero single-label samples produce a warning
    (their regulator rows will fall back to uniform downstream). `None` means
    unlimited and returns the pool unchanged.
    """
    cards = singles.cardinalities()
    if singles.n and not np.all(cards == 1):
        bad = int(np.argmax(cards != 1))
        raise ValueError(f"sample {bad} in the single-label pool has {cards[bad]} positives")
    k = singles.num_classes
    per_class = singles.labels.sum(axis=0)
    empty = [c for c in range(k) if per_class[c] == 0]
    if empty:
        warnings.warn(f"classes without single-label samples: {empty}", stacklevel=2)
    if limit_per_class is None:
        return singles
    stream = RandomStream(seed).derive("single-pool")
    perm = stream.permutation(singles.n)
    shuffled_classes = singles.labels[perm].argmax(axis=1)
    keep: list[int] = []
    for c in range(k):
        members = perm[shuffled_classes == c]
        keep.extend(members[:limit_per_class].tolist())
    return singles.take(np.array(sorted(keep), dtype=np.int64))


def write_dataset(ds: Dataset, path) -> None:
    """Write the text dataset format: `# tag=<tag>`, the header
    `MLNL v1 <N> <d> <K>`, then one line per sample with its d features as
    `%.17g` separated by single spaces, ` | `, and its positive label indices
    in ascending order separated by single spaces."""
    row_format = " ".join(["%.17g"] * ds.num_features) + " | %s\n"
    k = ds.num_classes
    label_rows = ds.labels.tobytes()
    label_text: dict[bytes, str] = {}  # each distinct label row is formatted once
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# tag={ds.tag}\n{FILE_MAGIC} {FILE_VERSION} {ds.n} {ds.num_features} {k}\n")
        for start in range(0, ds.n, _WRITE_CHUNK_ROWS):
            lines = []
            for i, feats in enumerate(ds.features[start:start + _WRITE_CHUNK_ROWS].tolist(), start):
                key = label_rows[i * k:(i + 1) * k]
                text = label_text.get(key)
                if text is None:
                    text = label_text[key] = " ".join(str(j) for j, on in enumerate(key) if on)
                lines.append(row_format % (*feats, text))
            fh.write("".join(lines))


def _parse_label_indices(label_part: str, k: int, where: str) -> list[int]:
    """Strictly ascending label indices in [0, k); errors cite `where`."""
    label_tokens = label_part.split()
    if not label_tokens:
        raise ValueError(f"{where}: sample has no positive labels")
    indices: list[int] = []
    prev = -1
    for t in label_tokens:
        try:
            j = int(t)
        except ValueError:
            raise ValueError(f"{where}: unparsable label index {t!r}") from None
        if j <= prev:
            raise ValueError(f"{where}: label indices must be strictly ascending")
        if j < 0 or j >= k:
            raise ValueError(f"{where}: label index {j} out of range [0, {k})")
        indices.append(j)
        prev = j
    return indices


def read_dataset(path) -> Dataset:
    """Read the text dataset format; errors cite the offending line number."""
    with open(path, "r", encoding="utf-8") as fh:
        # numbered as str.splitlines numbers the whole text
        lines = enumerate((s for physical in fh for s in physical.splitlines()), start=1)
        tag = "clean"
        lineno = 0
        header = None
        for lineno, line in lines:
            s = line.strip()
            if not s:
                continue
            if s.startswith("#"):
                body = s[1:].strip()
                if body.startswith("tag="):
                    tag = body[4:].strip()
                continue
            header = s
            break
        if header is None:
            raise ValueError(f"{path}: no header line found")
        parts = header.split()
        if len(parts) != 5 or parts[0] != FILE_MAGIC or parts[1] != FILE_VERSION:
            raise ValueError(f"{path}:{lineno}: malformed header {header!r}")
        try:
            n, d, k = int(parts[2]), int(parts[3]), int(parts[4])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: header counts must be integers") from None
        if min(n, d, k) < 0 or d == 0 or k == 0:
            raise ValueError(f"{path}:{lineno}: invalid header dimensions")

        features = np.empty((n, d), dtype=np.float64)
        pattern_ids: dict[str, int] = {}  # each distinct label text is checked once
        patterns: list[list[int]] = []
        pattern_of_row: list[int] = []
        line_of_row: list[int] = []
        row = 0
        for lno, line in lines:
            s = line.strip()
            if not s:
                continue
            if s.startswith("#"):
                raise ValueError(f"{path}:{lno}: comments are only allowed before the header")
            if row >= n:
                raise ValueError(f"{path}:{lno}: more than {n} data rows")
            if "|" not in s:
                raise ValueError(f"{path}:{lno}: missing '|' separator")
            feat_part, label_part = s.split("|", 1)
            feat_tokens = feat_part.split()
            if len(feat_tokens) != d:
                raise ValueError(f"{path}:{lno}: expected {d} features, got {len(feat_tokens)}")
            try:
                features[row] = list(map(float, feat_tokens))
            except ValueError:
                raise ValueError(f"{path}:{lno}: unparsable feature value") from None
            pid = pattern_ids.get(label_part)
            if pid is None:
                patterns.append(_parse_label_indices(label_part, k, f"{path}:{lno}"))
                pid = pattern_ids[label_part] = len(patterns) - 1
            pattern_of_row.append(pid)
            line_of_row.append(lno)
            row += 1
    if row != n:
        raise ValueError(f"{path}: expected {n} data rows, found {row}")
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}:{line_of_row[int(np.argmin(finite))]}: features must be finite")
    pattern_labels = np.zeros((len(patterns), k), dtype=np.uint8)
    for pid, indices in enumerate(patterns):
        pattern_labels[pid, indices] = 1
    labels = pattern_labels[np.array(pattern_of_row, dtype=np.intp)]
    return Dataset(features, labels, tag=tag)
