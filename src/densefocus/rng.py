"""Deterministic random streams built on SplitMix64.

Every stochastic choice in the library flows through this module so that
equal seeds reproduce equal bits on the same numpy build and CPU features;
elsewhere the SIMD-dispatched ``np.exp``/``np.log`` may round differently.
Streams are forked by name (``derive``): consumers never share state.

``randoms(n)`` and ``normals(n)`` give the next ``n`` draws of ``random()``
and of ``normal()`` (standard normals) as one float64 array, with the same
bits and leaving the stream where ``n`` scalar calls would.  The SplitMix64
steps run on numpy ``uint64`` arrays (wrapping adds and multiplies, shifts);
the Box-Muller ``log`` and ``cos`` stay the scalar ``math`` calls, one per
element, because numpy's SIMD ``np.log``/``np.cos`` may round differently.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix(z):
    """SplitMix64's output mix of one state (int) or many (uint64 array)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def _box_muller(u1: float, u2: float) -> float:
    """Standard normal from two uniforms (cosine branch, u1 = 0 nudged up)."""
    if u1 == 0.0:
        u1 = 2.0**-53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


class Rng:
    """SplitMix64 generator with uniform/normal/integer helpers."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randoms(self, n: int) -> np.ndarray:
        """The next ``n`` draws of :meth:`random` as one float64 array."""
        if n < 0:
            raise ValueError("randoms: n < 0")
        states = np.arange(1, n + 1, dtype=np.uint64)
        states *= _GOLDEN
        states += self._state
        self._state = (self._state + n * _GOLDEN) & _MASK
        return (_mix(states) >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive (modulo draw; the bias is
        negligible for the desk-scale ranges used here)."""
        if hi < lo:
            raise ValueError("randint: hi < lo")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """One Box-Muller draw per call (cosine branch only, no caching)."""
        return mu + sigma * _box_muller(self.random(), self.random())

    def normals(self, n: int) -> np.ndarray:
        """The next ``n`` draws of :meth:`normal` (standard normals) as one
        float64 array."""
        u = self.randoms(2 * n).tolist()
        return np.fromiter(map(_box_muller, u[0::2], u[1::2]), np.float64, n)

    def derive(self, name: str) -> "Rng":
        """Fork an independent child stream keyed by ``name``.

        The child seed mixes this stream's seed material with a hash of the
        name, so bundles can hand out one stream per parameter tensor.
        """
        return Rng(_mix(self._state ^ fnv1a64(name.encode("utf-8"))))
