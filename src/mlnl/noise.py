"""Label-noise machinery: true corruption matrices, symmetric flip injection
with rejection resampling, and empirical corruption measurement.

Row-sum exactness convention: a row "sums to exactly 1" when math.fsum of its
entries equals 1.0. Every constructor achieves this through `_stochastic_rows`,
which lets one pivot entry per row absorb the exact normalization residual
(computed in rational arithmetic), moving that entry by at most one ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import textio
from .datagen import Dataset
from .numerics import Interval, RandomStream, Settings, one_of, rule

KIND_TRUE = "true_row_stochastic"
KIND_RAW = "estimated_raw"
KIND_SCALED = "estimated_scaled"
_KINDS = (KIND_TRUE, KIND_RAW, KIND_SCALED)
_MASK_BYTES = 1 << 22


def _invalid_row(m: np.ndarray, kind: str) -> tuple[int, str] | None:
    """(row, reason) for the first row of the square `m` that breaks the entry
    rules of `kind`, checking finiteness, then range, then row sums; else None."""
    bad = ~np.isfinite(m).all(axis=1)
    if bad.any():
        return int(np.argmax(bad)), "corruption matrix entries must be finite"
    if kind == KIND_TRUE:
        bad = ((m < 0) | (m > 1)).any(axis=1)
        if bad.any():
            return int(np.argmax(bad)), "row-stochastic matrix entries must lie in [0, 1]"
        for i in range(m.shape[0]):
            if abs(math.fsum(m[i].tolist()) - 1.0) > 1e-12:
                return i, f"row {i} does not sum to 1"
    elif kind == KIND_SCALED:
        bad = ((m <= 0) | (m >= 1)).any(axis=1)
        if bad.any():
            return int(np.argmax(bad)), "sigmoid-scaled entries must lie strictly in (0, 1)"
    return None


@dataclass(eq=False)
class CorruptionMatrix:
    """K x K table of per-class label flip probabilities (or estimates thereof)."""

    matrix: np.ndarray
    kind: str
    eta: float | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("corruption matrix must be square")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        problem = _invalid_row(self.matrix, self.kind)
        if problem is not None:
            raise ValueError(problem[1])

    @property
    def k(self) -> int:
        return self.matrix.shape[0]


ETA_RANGE = Interval(0.0, 1.0)
NOISE_MODES = ("exact_count", "bernoulli")  # bernoulli: per-positive independent flips


@dataclass(frozen=True)
class NoiseSpec(Settings):
    """Noise ratio and seed for injection."""

    eta: float = rule(ETA_RANGE)
    seed: int = 0
    mode: str = rule(one_of(NOISE_MODES), default="exact_count")


@dataclass
class FlipLog:
    """Record of applied flips as (sample index, from-label, to-label)."""

    flips: list[tuple[int, int, int]] = field(default_factory=list)

    def __len__(self):
        return len(self.flips)


def _stochastic_rows(m: np.ndarray, fallback=None) -> np.ndarray:
    """`m` with each row's pivot entry set so that math.fsum of the row is
    exactly 1.0. Without `fallback` the pivot is the diagonal (and `m` is
    changed in place); with it, each row is first divided by its sum, or
    replaced by `fallback`'s row when that sum is not positive, and the pivot
    is the row's largest entry."""
    if fallback is None:
        pivots = range(m.shape[0])
    else:
        sums = m.sum(axis=1, keepdims=True)
        fall = sums <= 0
        m = np.where(fall, fallback, m / np.where(fall, 1.0, sums))
        pivots = m.argmax(axis=1).tolist()
    for i, (row, pivot) in enumerate(zip(m.tolist(), pivots)):
        m[i, pivot] = float(1 - sum(map(Fraction, row[:pivot] + row[pivot + 1:])))
    return m


def symmetric_matrix(k: int, eta: float) -> CorruptionMatrix:
    """True corruption matrix of symmetric noise: diag 1-eta, off-diag eta/(K-1)."""
    if k < 2:
        raise ValueError("symmetric_matrix requires K >= 2")
    NoiseSpec(eta)  # its rule rejects an eta outside ETA_RANGE
    m = np.full((k, k), eta / (k - 1), dtype=np.float64)
    np.fill_diagonal(m, 1.0 - eta)
    return CorruptionMatrix(_stochastic_rows(m), KIND_TRUE, eta=eta)


def inject(ds: Dataset, spec: NoiseSpec) -> tuple[Dataset, FlipLog]:
    """Flip a fraction eta of positive label instances to uniformly chosen absent labels.

    Flips are applied sequentially in (sample, label) order; each flip unsets
    its source label and sets a target drawn by rejection among the labels
    neither currently positive nor in the sample's original label set, so a
    duplicate positive is never produced and a flipped-away label is not
    silently restored (which would bias the measured corruption towards the
    diagonal). When original + current positives cover every class, the
    original-label exclusion is dropped for that draw. Cardinality is
    conserved per sample.
    """
    if ds.tag != "clean":
        raise ValueError("inject expects a clean dataset")
    k = ds.num_classes
    full = np.flatnonzero(ds.cardinalities() == k)
    if full.size:
        raise ValueError(f"sample {int(full[0])} has all {k} labels positive; no legal flip target")

    labels = ds.labels.copy()
    log = FlipLog()
    noisy = Dataset(ds.features, labels, tag="noisy")
    positions = np.argwhere(ds.labels == 1)  # sample-major, label ascending
    total = positions.shape[0]
    stream = RandomStream(spec.seed).derive("noise-inject")
    if spec.mode == "exact_count":
        m = int(round(spec.eta * total))
        chosen = stream.choice(total, m)
        chosen = np.sort(chosen)
    else:
        mask = stream.uniform(total) < spec.eta
        chosen = np.flatnonzero(mask)

    target_stream = stream.derive("targets")
    # every sample's original labels as a plain-int bitmask: bit j is label j
    width = (k + 7) // 8
    packed = np.packbits(ds.labels, axis=1, bitorder="little").tobytes()
    originals = [int.from_bytes(packed[o:o + width], "little")
                 for o in range(0, len(packed), width)]
    everything = (1 << k) - 1
    current: dict[int, int] = {}  # the masks of the samples flipped so far
    rows, srcs = positions[chosen].T.tolist()
    for i, src in zip(rows, srcs):
        mask = current.get(i, originals[i])
        excluded = mask | originals[i]
        if excluded == everything:
            excluded = mask
        # cardinality is kept and no sample is full, so some target is legal
        dst = target_stream.randint_below(k)
        while excluded >> dst & 1:
            dst = target_stream.randint_below(k)
        current[i] = mask ^ (1 << src) ^ (1 << dst)
        log.flips.append((i, src, dst))
    # A flip's source is an original label that no earlier flip touched, so no
    # flip takes away an earlier flip's target: all of them apply at once.
    i, src, dst = np.array(log.flips, dtype=np.intp).reshape(-1, 3).T
    labels[i, src] = 0
    labels[i, dst] = 1
    return noisy, log


def empirical_matrix(clean: Dataset, noisy: Dataset) -> tuple[CorruptionMatrix, list[int]]:
    """Measure the corruption matrix by counting kept/moved positives.

    Row i is the frequency, over clean-positive instances of label i, of the
    label staying at i versus moving to j; a departure with several candidate
    arrivals in the same sample splits its mass evenly among them. Classes
    with zero clean positives get a one-hot diagonal row and are returned in
    the flagged list.
    """
    if clean.labels.shape != noisy.labels.shape:
        raise ValueError("clean and noisy datasets must be shape-paired")
    k = clean.num_classes
    c = clean.labels.astype(np.int8)
    z = noisy.labels.astype(np.int8)
    counts = np.zeros((k, k), dtype=np.float64)
    kept = (c & z).sum(axis=0).astype(np.float64)
    counts[np.arange(k), np.arange(k)] = kept

    departures = (c == 1) & (z == 0)
    arrivals = (z == 1) & (c == 0)
    touched = np.flatnonzero(departures.any(axis=1) & arrivals.any(axis=1))
    share = 1.0 / arrivals[touched].sum(axis=1)
    # (sample, departed, arrived) triples in sample order; np.add.at adds them
    # in that order, so each cell sums its shares sample by sample. Samples go
    # in blocks so the departures x arrivals mask stays near _MASK_BYTES.
    step = max(1, _MASK_BYTES // (k * k))
    for lo in range(0, touched.size, step):
        block = touched[lo:lo + step]
        i, s, a = np.nonzero(departures[block, :, None] & arrivals[block, None, :])
        np.add.at(counts, (s, a), share[lo + i])

    # a class without clean positives has an all-zero count row
    missing = np.flatnonzero(clean.labels.sum(axis=0) == 0).tolist()
    return CorruptionMatrix(_stochastic_rows(counts, np.eye(k)), KIND_TRUE), missing


def row_normalized(cm: CorruptionMatrix) -> CorruptionMatrix:
    """Rescale rows to sum to 1 (exactly, per the fsum convention).

    Rows with non-positive sums fall back to uniform. The result is tagged
    row-stochastic only if all entries land in [0, 1]; otherwise it stays raw.
    """
    m = _stochastic_rows(cm.matrix, 1.0 / cm.k)
    kind = KIND_TRUE if (np.all(m >= 0) and np.all(m <= 1)) else KIND_RAW
    return CorruptionMatrix(m, kind, eta=cm.eta)


def write_matrix(cm: CorruptionMatrix, path) -> None:
    """CSV form: K rows of K floats, first comment line carrying kind/K/eta."""
    header = f"# kind={cm.kind} K={cm.k}"
    if cm.eta is not None:
        header += f" eta={cm.eta!r}"
    textio.write_lines(path, [header, *(",".join(repr(float(v)) for v in row)
                                        for row in cm.matrix)])


def read_matrix(path) -> CorruptionMatrix:
    """Read the CSV form, whose first non-blank line may be the `#` header; a
    malformed file raises ValueError at `path:line`."""
    kind, k, eta = KIND_RAW, None, None
    rows, row_lines = [], []
    lineno = header_line = None  # the line being judged; None judges the whole file
    try:
        for i, (lineno, text) in enumerate(textio.numbered_lines(path)):
            if i == 0 and text.startswith("#"):
                fields = dict(token.partition("=")[::2] for token in text[1:].split())
                kind = fields.get("kind", KIND_RAW)
                if kind not in _KINDS:
                    raise ValueError(f"unknown kind {kind!r}")
                k = textio.parse_number("K", fields["K"], int) if "K" in fields else None
                # NoiseSpec's rule rejects an eta outside ETA_RANGE
                eta = (NoiseSpec(textio.parse_number("eta", fields["eta"])).eta
                       if "eta" in fields else None)
                header_line = lineno
                continue
            rows.append(textio.float_row(text, len(rows[0]) if rows else None, sep=","))
            row_lines.append(lineno)
        lineno = None
        if not rows:
            raise ValueError("no data rows")
        m = np.asarray(rows, dtype=np.float64)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix is not square ({m.shape})")
        if k is not None and k != m.shape[0]:
            lineno = header_line
            raise ValueError(f"header says K={k}, but the matrix has {m.shape[0]} rows")
        problem = _invalid_row(m, kind)
        if problem is not None:
            lineno = row_lines[problem[0]]
            raise ValueError(problem[1])
        return CorruptionMatrix(m, kind, eta=eta)
    except ValueError as e:
        raise textio.located(path, lineno, e) from None
