"""Label-noise machinery: true corruption matrices, symmetric flip injection
with rejection resampling, and empirical corruption measurement.

Row-sum exactness convention: a row "sums to exactly 1" when math.fsum of its
entries equals 1.0. Constructors achieve this by letting the diagonal absorb
the exact normalization residual (computed in rational arithmetic), which
moves the diagonal by at most one ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .datagen import Dataset
from .numerics import RandomStream, draw_uniform_index

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


@dataclass(frozen=True)
class NoiseSpec:
    """Noise ratio and seed for injection."""

    eta: float
    seed: int = 0
    mode: str = "exact_count"  # or "bernoulli" (per-positive independent flips)

    def validate(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("eta must be in [0, 1)")
        if self.mode not in ("exact_count", "bernoulli"):
            raise ValueError(f"unknown noise mode {self.mode!r}")


@dataclass
class FlipLog:
    """Record of applied flips as (sample index, from-label, to-label)."""

    flips: list[tuple[int, int, int]] = field(default_factory=list)

    def __len__(self):
        return len(self.flips)


def _exact_residual_row(row: np.ndarray, pivot: int) -> None:
    """Adjust row[pivot] in place so math.fsum(row) == 1.0 exactly."""
    others = [Fraction(v) for j, v in enumerate(row.tolist()) if j != pivot]
    row[pivot] = float(1 - sum(others, Fraction(0)))


def symmetric_matrix(k: int, eta: float) -> CorruptionMatrix:
    """True corruption matrix of symmetric noise: diag 1-eta, off-diag eta/(K-1)."""
    if k < 2:
        raise ValueError("symmetric_matrix requires K >= 2")
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must be in [0, 1)")
    off = eta / (k - 1)
    m = np.full((k, k), off, dtype=np.float64)
    np.fill_diagonal(m, 1.0 - eta)
    for i in range(k):
        _exact_residual_row(m[i], i)
    return CorruptionMatrix(m, KIND_TRUE, eta=eta)


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
    spec.validate()
    k = ds.num_classes
    full = np.flatnonzero(ds.cardinalities() == k)
    if full.size:
        raise ValueError(f"sample {int(full[0])} has all {k} labels positive; no legal flip target")

    labels = ds.labels.copy()
    log = FlipLog()
    noisy = Dataset(ds.features, labels, tag="noisy")
    if ds.n == 0:
        return noisy, log

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
    originals: dict[int, frozenset[int]] = {}
    for pos_idx in chosen:
        i, src = int(positions[pos_idx, 0]), int(positions[pos_idx, 1])
        if i not in originals:
            originals[i] = frozenset(np.flatnonzero(ds.labels[i]).tolist())
        current = frozenset(np.flatnonzero(labels[i]).tolist())
        excluded = current | originals[i]
        if len(excluded) >= k:
            excluded = current
        try:
            dst = draw_uniform_index(target_stream, k, excluded)
        except ValueError:
            raise ValueError(f"sample {i} has no legal flip target") from None
        labels[i, src] = 0
        labels[i, dst] = 1
        log.flips.append((i, src, dst))
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

    missing = [i for i in range(k) if clean.labels[:, i].sum() == 0]
    rows = np.zeros_like(counts)
    for i in range(k):
        if i in missing:
            rows[i, i] = 1.0
            continue
        total = counts[i].sum()
        if total <= 0:
            rows[i, i] = 1.0
            continue
        rows[i] = counts[i] / total
        _exact_residual_row(rows[i], int(np.argmax(rows[i])))
    return CorruptionMatrix(rows, KIND_TRUE), missing


def row_normalized(cm: CorruptionMatrix) -> CorruptionMatrix:
    """Rescale rows to sum to 1 (exactly, per the fsum convention).

    Rows with non-positive sums fall back to uniform. The result is tagged
    row-stochastic only if all entries land in [0, 1]; otherwise it stays raw.
    """
    m = cm.matrix.copy()
    k = cm.k
    for i in range(k):
        s = m[i].sum()
        if s <= 0:
            m[i] = 1.0 / k
        else:
            m[i] = m[i] / s
        _exact_residual_row(m[i], int(np.argmax(m[i])))
    kind = KIND_TRUE if (np.all(m >= 0) and np.all(m <= 1)) else KIND_RAW
    return CorruptionMatrix(m, kind, eta=cm.eta)


def write_matrix(cm: CorruptionMatrix, path) -> None:
    """CSV form: K rows of K floats, first comment line carrying kind/K/eta."""
    header = f"# kind={cm.kind} K={cm.k}"
    if cm.eta is not None:
        header += f" eta={cm.eta!r}"
    lines = [header]
    for i in range(cm.k):
        lines.append(",".join(repr(float(v)) for v in cm.matrix[i]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix(path) -> CorruptionMatrix:
    """Read the CSV form; malformed files raise ValueError citing `path:line`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(lno, ln.strip()) for lno, ln in enumerate(fh.read().splitlines(), start=1)
                 if ln.strip()]
    kind = KIND_RAW
    eta = None
    if lines and lines[0][1].startswith("#"):
        head_lno, head = lines.pop(0)
        for token in head[1:].split():
            if token.startswith("kind="):
                kind = token[5:]
            elif token.startswith("eta="):
                try:
                    eta = float(token[4:])
                except ValueError:
                    raise ValueError(f"{path}:{head_lno}: unparsable eta {token[4:]!r}") from None
    rows = []
    for lno, line in lines:
        try:
            rows.append([float(t) for t in line.split(",")])
        except ValueError:
            raise ValueError(f"{path}:{lno}: unparsable matrix row") from None
        if len(rows[-1]) != len(rows[0]):
            raise ValueError(f"{path}:{lno}: expected {len(rows[0])} values, got {len(rows[-1])}")
    m = np.asarray(rows, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{path}: matrix is not square ({m.shape})")
    if kind in _KINDS:
        problem = _invalid_row(m, kind)
        if problem is not None:
            raise ValueError(f"{path}:{lines[problem[0]][0]}: {problem[1]}")
    try:
        return CorruptionMatrix(m, kind, eta=eta)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
