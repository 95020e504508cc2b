"""Seedable, portable pseudo-random primitives shared by generators and solvers.

Everything is deterministic given the seed and stable across platforms: the
generator is SplitMix64 and all sampling is driven only by ``randrange``, so
no standard-library or third-party RNG stream is ever consumed.
"""

from __future__ import annotations

from collections.abc import Iterable

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 generator: 64-bit state, platform independent, cheap to fork."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        threshold = ((1 << 64) // n) * n
        while True:
            r = self.next_u64()
            if r < threshold:
                return r % n


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed for stream ``index``.

    Independent runs (sampling repetitions, benchmark trials) each get their
    own stream derived from (seed, index), so results do not depend on
    execution order.
    """
    g = SplitMix64(seed)
    return (g.next_u64() ^ ((index + 1) * _GOLDEN)) & _MASK64


def shuffled(items: Iterable[int], rng: SplitMix64) -> list[int]:
    """Full Fisher-Yates shuffle; returns a new list."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def sample_distinct(m: int, k: int, rng: SplitMix64) -> list[int]:
    """Uniform k-subset of {0, ..., m-1} via partial Fisher-Yates."""
    if not 0 <= k <= m:
        raise ValueError(f"cannot sample {k} distinct values out of {m}")
    pool = list(range(m))
    for i in range(k):
        j = i + rng.randrange(m - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]
