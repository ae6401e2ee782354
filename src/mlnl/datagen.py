"""Synthetic multi-label dataset generation, gold/silver splitting, and dataset file IO.

Labels are drawn from a correlated process: class base frequencies follow a
power law (k+1)^-imbalance_exponent, and once a label is chosen, subsequent
labels for the same sample are re-weighted by a seeded co-occurrence affinity
graph. Features are the sum of the active classes' prototype vectors plus
Gaussian noise, so the label set is recoverable from features only up to the
noise scale.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import textio
from .numerics import Interval, RandomStream, Settings, integer, rule

FILE_MAGIC = "MLNL"
FILE_VERSION = "v1"
TAGS = ("clean", "noisy")
_WRITE_CHUNK_ROWS = 1024  # dataset rows are formatted this many at a time
_READ_RANGE_BYTES = 1 << 20  # a dataset is parsed in byte ranges of at least this size
MAX_CLASSES = 1000  # bounds a config's or a dataset header's K; the largest K in use is 20
MAX_SAMPLES = 1_000_000  # bounds a config's n; the largest n in use is 30000


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
        if self.tag not in TAGS:
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


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    return (a.tag == b.tag
            and a.features.shape == b.features.shape
            and a.labels.shape == b.labels.shape
            and np.array_equal(a.features, b.features)
            and np.array_equal(a.labels, b.labels))


def _count_up_to(limit: int):
    """The rule that a value is an integer in [1, limit]."""
    return integer(lambda v: Interval(1)(v) or (
        None if v <= limit else f"must be at most {limit}, got {v}"))


@dataclass(frozen=True)
class GenConfig(Settings):
    """Controls for the synthetic generator."""

    n: int = rule(_count_up_to(MAX_SAMPLES))
    d: int = rule(integer(Interval(1)))
    k: int = rule(_count_up_to(MAX_CLASSES))
    mean_labels_per_sample: float = rule(Interval(2.0), default=2.4)
    feature_noise_sigma: float = rule(Interval(0.0, lo_open=True), default=0.8)
    imbalance_exponent: float = rule(Interval(0.0), default=0.0)
    correlation_strength: float = rule(Interval(0.0, 1.0, hi_open=False), default=0.0)
    seed: int = 0

    def validate(self):
        super().validate()
        if self.mean_labels_per_sample > self.k:
            raise ValueError(
                f"mean_labels_per_sample {self.mean_labels_per_sample} exceeds class count {self.k}")
        zero = np.flatnonzero(~(_base_weights(self.k, self.imbalance_exponent) > 0.0))
        if zero.size:
            raise ValueError(f"imbalance_exponent {self.imbalance_exponent!r} underflows the "
                             f"weight of class {int(zero[0])} to 0")


TRUSTED_FRACTION = Interval(0.0, 1.0, lo_open=True)


@dataclass(frozen=True)
class SplitSpec(Settings):
    """Gold/silver split parameters."""

    trusted_fraction: float = rule(TRUSTED_FRACTION)
    seed: int = 0


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
    """Uniform seeded split into a trusted gold set and the silver remainder.
    The silver set may not be empty; the gold set may, since the `true_matrix`
    and `none` methods never read it."""
    if ds.tag != "clean":
        raise ValueError("split_gold_silver expects a clean dataset")
    n_gold = int(round(spec.trusted_fraction * ds.n))
    if n_gold == ds.n:
        raise ValueError(f"trusted_fraction {spec.trusted_fraction!r} leaves no silver "
                         f"samples of {ds.n}")
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
    in ascending order separated by single spaces. Chunks of rows are
    formatted on every usable core; the bytes do not depend on how many."""
    row_format = " ".join(["%.17g"] * ds.num_features) + " | %s"
    k = ds.num_classes
    label_rows = ds.labels.tobytes()
    label_text: dict[bytes, str] = {}  # each distinct label row is formatted once

    def _format_rows(start: int) -> str:
        rows = []
        for i, feats in enumerate(ds.features[start:start + _WRITE_CHUNK_ROWS].tolist(), start):
            key = label_rows[i * k:(i + 1) * k]
            text = label_text.get(key)
            if text is None:
                text = label_text[key] = " ".join(str(j) for j, on in enumerate(key) if on)
            rows.append(row_format % (*feats, text))
        return "\n".join(rows)

    header = [f"# tag={ds.tag}", f"{FILE_MAGIC} {FILE_VERSION} {ds.n} {ds.num_features} {k}"]
    chunks = textio.ordered_map(_format_rows, range(0, ds.n, _WRITE_CHUNK_ROWS))
    with contextlib.closing(chunks):
        textio.write_lines(path, itertools.chain(header, chunks))


def _parse_label_indices(label_part: str, k: int) -> list[int]:
    """Strictly ascending label indices in [0, k)."""
    try:
        indices = list(map(int, label_part.split()))
    except ValueError:
        raise ValueError(f"unparsable label indices {label_part.strip()!r}") from None
    if not indices:
        raise ValueError("sample has no positive labels")
    if indices != sorted(set(indices)):
        raise ValueError("label indices must be strictly ascending")
    for j in (indices[0], indices[-1]):
        if not 0 <= j < k:
            raise ValueError(f"label index {j} out of range [0, {k})")
    return indices


def _data_ranges(path, size: int, header_line: int) -> list[tuple[int, int, int]]:
    """(start, end, lines to skip) of byte ranges that cover the file, each of
    at least _READ_RANGE_BYTES but the last and each cut just after a `\\n`.
    The first starts at byte 0 and skips the lines up to the header, which lie
    within the file's first `header_line` physical lines."""
    cuts = [0]
    with open(path, "rb") as fh:
        for _ in range(header_line):
            fh.readline()
        target = max(fh.tell(), _READ_RANGE_BYTES)
        while target < size:
            fh.seek(target - 1)
            fh.readline()
            if fh.tell() >= size:
                break
            cuts.append(fh.tell())
            target = cuts[-1] + _READ_RANGE_BYTES
    cuts.append(size)
    return [(start, end, header_line if start == 0 else 0)
            for start, end in zip(cuts, cuts[1:])]


def read_dataset(path) -> Dataset:
    """Read the text dataset format; a malformed file raises ValueError at
    `path:line`. Byte ranges of the data are parsed on every usable core."""
    lines = textio.numbered_lines(path)
    tag = "clean"
    lineno = None  # the line being judged; None judges the whole file
    try:
        for lineno, header in lines:
            if not header.startswith("#"):
                break
            body = header[1:].strip()
            if body.startswith("tag="):
                tag = body[4:].strip()
                if tag not in TAGS:
                    raise ValueError(f"unknown tag {tag!r}")
        else:
            lineno = None
            raise ValueError("no header line found")
        lines.close()
        header_line = lineno
        parts = header.split()
        if len(parts) != 5 or parts[0] != FILE_MAGIC or parts[1] != FILE_VERSION:
            raise ValueError(f"malformed header {header!r}")
        try:
            n, d, k = map(int, parts[2:])
        except ValueError:
            raise ValueError("header counts must be integers") from None
        if min(n, d, k) < 0 or d == 0 or k == 0:
            raise ValueError("invalid header dimensions")
        if k > MAX_CLASSES:
            raise ValueError(f"class count {k} exceeds the limit of {MAX_CLASSES}")
        size = os.path.getsize(path)  # a data row takes at least 2d+1 bytes: "0 ... 0|0"
        if n * (2 * d + 1) > size:
            raise ValueError(f"{n} rows of {d} features cannot fit in a file of {size} bytes")
        features = np.empty((n, d), dtype=np.float64)
        label_blocks = []
        row = first = 0  # the rows and lines of the ranges before this one
        non_finite = None  # the line of the first row with a non-finite feature

        def parse(bounds):
            return _parse_range(path, bounds, n, d, k)

        lineno = None
        ranges = textio.ordered_map(parse, _data_ranges(path, size, header_line))
        with contextlib.closing(ranges):
            for block, labels, rows, bad, count, problem in ranges:
                if row + len(rows) > n:
                    lineno = first + rows[n - row]
                    raise ValueError(f"more than {n} data rows")
                if problem is not None:
                    lineno = first + problem[0]
                    raise ValueError(problem[1])
                features[row:row + len(rows)] = block
                label_blocks.append(labels)
                if non_finite is None and bad is not None:
                    non_finite = first + bad
                row += len(rows)
                first += count
        if row != n:
            raise ValueError(f"expected {n} data rows, found {row}")
        if non_finite is not None:
            lineno = non_finite
            raise ValueError("features must be finite")
        return Dataset(features, np.concatenate(label_blocks), tag=tag)
    except (ValueError, MemoryError) as e:
        raise textio.located(path, lineno, e) from None


def _parse_range(path, bounds: tuple[int, int, int], n: int, d: int, k: int):
    """The data rows of the byte range `bounds` = (start, end, lines to skip),
    numbered from its start, parsed until its first problem or its (n+1)-th row:
    (features, uint8 labels, line of each row, line of the first non-finite
    row or None, lines read, (line, message) of the first problem or None). A
    row that fails to parse has a line but no features or labels."""
    start, end, skip = bounds
    block = np.empty((min(n, (end - start) // (2 * d + 1)), d), dtype=np.float64)
    picked, rows = [], []  # each parsed row's label indices, and each row's line
    indices_of: dict[str, list[int]] = {}  # each distinct label text is parsed once
    lineno, problem = 0, None
    try:
        for lineno, s in textio.numbered_lines(path, start, end, blank=True):
            if lineno <= skip or not s:
                continue
            if s.startswith("#"):
                raise ValueError("comments are only allowed before the header")
            rows.append(lineno)
            if len(rows) > n:
                break
            feat_part, bar, label_part = s.partition("|")
            if not bar:
                raise ValueError("missing '|' separator")
            block[len(picked)] = textio.float_row(feat_part, d, "features")
            indices = indices_of.get(label_part)
            if indices is None:
                indices = indices_of[label_part] = _parse_label_indices(label_part, k)
            picked.append(indices)
    except textio.TextFileError as e:  # a line that is not UTF-8
        problem = e.line, e.reason
    except ValueError as e:
        problem = lineno, str(e)
    block = block[:len(picked)]
    labels = np.zeros((len(picked), k), dtype=np.uint8)
    labels[np.repeat(np.arange(len(picked)), np.fromiter(map(len, picked), np.intp)),
           np.fromiter(itertools.chain.from_iterable(picked), np.intp)] = 1
    finite = np.isfinite(block).all(axis=1)
    bad = None if finite.all() else rows[int(np.argmin(finite))]
    return block, labels, rows, bad, lineno, problem
