"""Deterministic pseudo-random primitives.

Every stochastic choice in the toolkit (dataset shuffling, parameter
initialization, epoch shuffles) runs on this splitmix-style 64-bit
generator so that results are reproducible bit-for-bit across runs and
platforms, independent of any library RNG.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 generator (Steele et al. finalizer constants)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def next_below(self, n: int) -> int:
        """Uniform-ish integer in [0, n) by modulo reduction.

        The modulo bias is negligible for n << 2**64 and keeps the
        reduction rule trivial to reproduce in any language.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def next_float(self) -> float:
        """float64 in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, high index down to 1."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def uniform_floats(self, n: int) -> np.ndarray:
        """Vectorized batch equal to n sequential next_float() calls.

        splitmix64 is counter-based (state_k = state_0 + k*gamma), so a
        batch can be produced with array arithmetic; the generator state
        advances exactly as if next_float() had been called n times.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return np.empty(0, dtype=np.float64)
        # in place, through one scratch array: three n-element temporaries
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = int(z[-1])
        shifted = np.empty_like(z)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            z ^= np.right_shift(z, np.uint64(shift), out=shifted)
            z *= np.uint64(mix)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
        z >>= np.uint64(11)
        out = z.astype(np.float64)
        out *= 2.0 ** -53
        return out
