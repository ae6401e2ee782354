"""Deterministic numerical kernel: seeded random streams and stable elementary functions.

The random generator is a counter-based splitmix64 (Steele/Lea/Flood finalizer):
output ``i`` of a stream with key ``s`` is ``mix64(s + (i+1)*GOLDEN)`` in 64-bit
modular arithmetic. The generator is owned by this repo rather than delegated to
the platform default so that seeds are portable and every run is bit-replayable.
Bulk draws are vectorized over the counter, so block draws and repeated scalar
draws produce the same sequence.

Reductions everywhere in this package go through numpy, whose pairwise
summation is a fixed deterministic tree: replays are bit-stable.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DERIVE_SALT = 0xD6E8FEB86659FD93

_INV_2_53 = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class RandomStream:
    """Seeded deterministic random stream.

    Identical seeds give identical draw sequences. Sub-streams produced by
    :meth:`derive` depend only on the seed and the label, never on how many
    draws were taken, so stages of a pipeline cannot perturb one another.
    A stream is single-owner: do not draw from one concurrently.
    """

    __slots__ = ("_key", "_count")

    def __init__(self, seed: int):
        self._key = int(seed) & _MASK
        self._count = 0

    @property
    def seed(self) -> int:
        return self._key

    def next_u64(self) -> int:
        self._count += 1
        return mix64((self._key + self._count * _GOLDEN) & _MASK)

    def u64_block(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            return _mix64_vec(np.uint64(self._key) + idx * np.uint64(_GOLDEN))

    def uniform(self, n: int | None = None):
        """Uniform float64 in [0, 1): top 53 bits of the raw output."""
        if n is None:
            return (self.next_u64() >> 11) * _INV_2_53
        return (self.u64_block(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller; always consumes 2*ceil(n/2) draws."""
        half = (n + 1) // 2
        u1 = ((self.u64_block(half) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (self.u64_block(half) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]

    def randint_below(self, n: int) -> int:
        """Unbiased uniform integer in [0, n) via rejection on the raw stream."""
        if n <= 0:
            raise ValueError("randint_below requires n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic uniform permutation of range(n) (sort by random key)."""
        keys = self.u64_block(n)
        return np.argsort(keys, kind="stable")

    def choice(self, n: int, k: int) -> np.ndarray:
        """k indices drawn from range(n) without replacement."""
        if k > n:
            raise ValueError(f"cannot draw {k} from {n} without replacement")
        return self.permutation(n)[:k]

    def derive_seed(self, label: str) -> int:
        """Child seed for `label`; a pure function of (seed, label)."""
        h = mix64(self._key ^ _DERIVE_SALT)
        for b in label.encode("utf-8"):
            h = mix64(h ^ b)
        return h

    def derive(self, label: str) -> "RandomStream":
        return RandomStream(self.derive_seed(label))


def sigmoid(x):
    """Numerically stable logistic function, safe for |x| up to ~700."""
    x = np.asarray(x, dtype=np.float64)
    # 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x)) otherwise (NaN too);
    # min(x, -x) rather than -|x| keeps the sign bit of a NaN input
    e = np.exp(np.minimum(x, np.negative(x)))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    if out.ndim == 0:
        return float(out)
    return out


def logit(p):
    """Inverse of sigmoid."""
    p = np.asarray(p, dtype=np.float64)
    out = np.log(p) - np.log1p(-p)
    if out.ndim == 0:
        return float(out)
    return out


def softmax(v, axis: int = -1):
    """Probability vector via max-subtracted exponentials along `axis`."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - np.max(v, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def draw_uniform_index(stream: RandomStream, n: int, excluded) -> int:
    """Uniform index in range(n) outside `excluded`, by rejection resampling.

    Raises ValueError when `excluded` covers all of range(n).
    """
    excluded = frozenset(excluded)
    if sum(1 for e in excluded if 0 <= e < n) >= n:
        raise ValueError(f"excluded set covers all {n} indices")
    while True:
        r = stream.randint_below(n)
        if r not in excluded:
            return r
