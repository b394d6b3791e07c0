"""Deterministic pseudo-random helpers for workloads and tests.

Everything in the benchmark harness must be reproducible run-to-run, so no
module ever touches the global :mod:`random` state; generators are always
constructed from explicit seeds via this module.
"""

from __future__ import annotations

import random

__all__ = ["make_rng", "random_bytes", "random_word", "SplitMix64"]


def make_rng(seed: int) -> random.Random:
    """A private :class:`random.Random` seeded deterministically."""
    return random.Random(seed)


def random_bytes(seed: int, count: int) -> bytes:
    """``count`` reproducible pseudo-random bytes for workload payloads."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return make_rng(seed).randbytes(count)


def random_word(seed: int, width: int) -> int:
    """One reproducible ``width``-bit word."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return make_rng(seed).getrandbits(width)


class SplitMix64:
    """Tiny, fast, statistically solid 64-bit mixer.

    Used where many independent streams are needed cheaply (e.g. one
    stream per net in the placement annealer) without the construction
    cost of :class:`random.Random`.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next(self) -> int:
        """Next 64-bit output."""
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next() % bound

    def uniform(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self.next() / (1 << 64)
