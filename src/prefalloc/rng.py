"""Seedable, portable pseudo-random primitives shared by generators and solvers.

Everything is deterministic given the seed and stable across platforms: the
generator is SplitMix64 and all sampling is driven only by ``randrange`` or
by its rejection rule, so no standard-library or third-party RNG stream is
ever consumed.
"""

from __future__ import annotations

import sys
from array import array

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _packed(words: array) -> int:
    """The integer whose little-endian 64-bit words are ``words`` (swapped
    in place on a big-endian host)."""
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words, "little")


def _acceptance_limit(bound: int) -> int:
    """``randrange(bound)`` keeps a draw below this multiple of ``bound``
    and skips the others, so every residue is equally likely."""
    return ((1 << 64) // bound) * bound


class SplitMix64:
    """SplitMix64 generator: 64-bit state, platform independent, cheap to fork."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def block(self, count: int) -> array:
        """The next ``count`` outputs of :meth:`next_u64` as an ``array('Q')``;
        the state advances by exactly ``count`` steps, as that many calls do.

        Output ``i`` mixes ``state + i * gamma``, so all of them are mixed at
        once: one integer holds each of those states in its own 128-bit lane.
        A lane's 64 bits times a 64-bit constant stay inside the lane, so no
        product carries into the next; a right shift pulls bits in from the
        next lane, so the lanes are masked back to 64 bits after each one.
        """
        if count < 0:
            raise ValueError("block size must be non-negative")
        lanes = _packed(array("Q", (_MASK64, 0)) * count)
        index = array("Q", bytes(16 * count))
        index[::2] = array("Q", range(1, count + 1))
        start = _packed(array("Q", (self._state, 0)) * count)
        z = (start + _GOLDEN * _packed(index)) & lanes
        z = ((z ^ ((z >> 30) & lanes)) * _MIX1) & lanes
        z = ((z ^ ((z >> 27) & lanes)) * _MIX2) & lanes
        z ^= (z >> 31) & lanes
        words = array("Q", z.to_bytes(16 * count, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        self._state = (self._state + count * _GOLDEN) & _MASK64
        return words[::2]

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        threshold = _acceptance_limit(n)
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


def sample_distinct(m: int, k: int, rng: SplitMix64) -> list[int]:
    """Uniform k-subset of {0, ..., m-1} via partial Fisher-Yates, in O(k):
    ``moved`` holds only the pool slots a swap has changed."""
    if not 0 <= k <= m:
        raise ValueError(f"cannot sample {k} distinct values out of {m}")
    moved = {}
    out = []
    for i in range(k):
        j = i + rng.randrange(m - i)
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return out
