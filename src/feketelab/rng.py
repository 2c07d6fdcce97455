"""Deterministic random streams for experiments.

All randomness in the package flows through one seeded generator so that
runs are reproducible byte for byte and streams can be re-derived from the
documented algorithm: xoshiro256** (an xorshift-family generator), with the
four words of state expanded from the 64-bit seed by splitmix64.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Rng:
    """xoshiro256** stream seeded via splitmix64 expansion of a u64 seed."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        s = self.seed
        self._s = []
        for _ in range(4):
            s, word = _splitmix64(s)
            self._s.append(word)
        self._gauss_cache = None

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def normal(self) -> float:
        """Standard normal via Box-Muller, one cached mate per pair."""
        if self._gauss_cache is not None:
            g, self._gauss_cache = self._gauss_cache, None
            return g
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._gauss_cache = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normals(self, n: int) -> list[float]:
        return [self.normal() for _ in range(n)]

    def ball(self, dim: int) -> list[float]:
        """Uniform point in the open unit ball of R^dim."""
        direction = self.sphere(dim)
        r = self.uniform() ** (1.0 / dim)
        return [r * x for x in direction]

    def sphere(self, dim: int) -> list[float]:
        """Uniform direction on the unit sphere of R^dim."""
        v = self.normals(dim)
        norm = math.sqrt(sum(x * x for x in v))
        while norm == 0.0:
            v = self.normals(dim)
            norm = math.sqrt(sum(x * x for x in v))
        return [x / norm for x in v]
