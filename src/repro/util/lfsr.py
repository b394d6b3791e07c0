"""Linear feedback shift registers.

The paper's random-number-generator module is "designed using Linear
Feedback Shift Register (LFSR) with primitive feedback polynomial to
ensure a maximal-length sequence" (section 3.6).  This module provides the
software golden model: a Fibonacci LFSR, a table of primitive taps for the
widths the parametric architecture supports, and a leap-forward matrix
stepper that advances the register a whole word per call the way the
hardware produces a whole 16-bit vector per key pair.

All registers shift toward the LSB and feed back into the MSB, so after
``width`` single-bit steps the register content is a completely fresh
word; :meth:`Lfsr.next_word` relies on that.
"""

from __future__ import annotations

from functools import lru_cache

from repro.util.bits import mask, parity

__all__ = ["PRIMITIVE_TAPS", "Lfsr", "LeapLfsr", "max_period",
           "fibonacci_mask"]

# Primitive polynomial taps (1-indexed bit positions, MSB first) for every
# register width the parametric hiding vector supports.  Source: standard
# primitive-trinomial/pentanomial tables (Xilinx XAPP 052 convention).
# ``x^16 + x^14 + x^13 + x^11 + 1`` is the classic 16-bit choice and the
# default hiding-vector generator of this reproduction.
PRIMITIVE_TAPS: dict[int, tuple[int, ...]] = {
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 14, 13, 11),
    17: (17, 14),
    18: (18, 11),
    19: (19, 6, 2, 1),
    20: (20, 17),
    24: (24, 23, 22, 17),
    32: (32, 22, 2, 1),
    64: (64, 63, 61, 60),
}


def fibonacci_mask(taps: tuple[int, ...], width: int) -> int:
    """Feedback mask for the right-shifting Fibonacci form.

    With the register shifting toward the LSB, polynomial term ``x^t``
    reads the bit that entered ``t`` shifts ago, i.e. bit ``width - t``
    (the classic ``lfsr >> 0 ^ lfsr >> 2 ^ ...`` formulation).
    """
    feedback = 0
    for tap in taps:
        if not 1 <= tap <= width:
            raise ValueError(f"tap {tap} out of range for width {width}")
        feedback |= 1 << (width - tap)
    return feedback


def max_period(width: int) -> int:
    """Period of a maximal-length ``width``-bit LFSR: ``2**width - 1``."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return (1 << width) - 1


class Lfsr:
    """Fibonacci LFSR: XOR of the tapped bits shifts into the MSB.

    Parameters
    ----------
    width:
        Register width in bits.
    seed:
        Initial state; must be non-zero (the all-zero state is the single
        fixed point of the recurrence and would freeze the generator).
    taps:
        1-indexed tap positions; defaults to the primitive taps for
        ``width`` from :data:`PRIMITIVE_TAPS`.
    """

    def __init__(self, width: int = 16, seed: int = 0xACE1, taps: tuple[int, ...] | None = None):
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        if taps is None:
            if width not in PRIMITIVE_TAPS:
                raise ValueError(
                    f"no default primitive taps for width {width}; pass taps explicitly"
                )
            taps = PRIMITIVE_TAPS[width]
        self.width = width
        self.taps = tuple(sorted(taps, reverse=True))
        self._feedback_mask = fibonacci_mask(taps, width)
        seed &= mask(width)
        if seed == 0:
            raise ValueError("seed must be non-zero for an LFSR")
        self.state = seed

    def step(self) -> int:
        """Advance one bit; return the bit shifted out of the LSB."""
        out = self.state & 1
        fb = parity(self.state & self._feedback_mask)
        self.state = (self.state >> 1) | (fb << (self.width - 1))
        return out

    def next_word(self) -> int:
        """Advance ``width`` bits and return the fresh register content.

        This models the hardware behaviour of producing one whole hiding
        vector per key pair: by the time the encryption module samples V,
        the register has shifted a full word.
        """
        for _ in range(self.width):
            self.step()
        return self.state

    def next_bits(self, count: int) -> list[int]:
        """Return the next ``count`` output bits (LSB stream)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.step() for _ in range(count)]

    def peek(self) -> int:
        """Current register content without advancing."""
        return self.state

    def copy(self) -> "Lfsr":
        """Independent clone with identical state (used by decryptors)."""
        clone = Lfsr(self.width, seed=1, taps=self.taps)
        clone.state = self.state
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Lfsr(width={self.width}, state={self.state:#06x}, taps={self.taps})"


@lru_cache(maxsize=None)
def _leap_tables(width: int, taps: tuple[int, ...]
                 ) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Byte-indexed XOR tables that jump an LFSR ``width`` steps at once.

    The Fibonacci recurrence is linear over GF(2), so the state after
    ``width`` single-bit steps is a constant matrix applied to the state.
    The matrix is *sampled from the reference* :class:`Lfsr` — one basis
    probe per register bit — which is what makes :class:`LeapLfsr`
    equivalent by construction rather than by re-derivation.  The basis
    columns are then folded into one 256-entry table per state byte, so a
    whole fresh word costs ``ceil(width / 8)`` lookups and XORs.

    Returns ``((shift, table), ...)``; the next state is the XOR over all
    chunks of ``table[(state >> shift) & (len(table) - 1)]``.
    """
    basis = []
    for j in range(width):
        probe = Lfsr(width, seed=1 << j, taps=taps)
        probe.next_word()
        basis.append(probe.state)
    chunks = []
    for low in range(0, width, 8):
        size = min(8, width - low)
        table = [0] * (1 << size)
        for value in range(1, 1 << size):
            lsb = value & -value
            table[value] = table[value ^ lsb] ^ basis[low + lsb.bit_length() - 1]
        chunks.append((low, tuple(table)))
    return tuple(chunks)


class LeapLfsr:
    """Leap-forward stepper emitting exactly :meth:`Lfsr.next_word`'s sequence.

    This is the hiding-vector generator of the fast engine
    (:mod:`repro.core.fastpath`): instead of ``width`` single-bit steps
    per vector it applies the precomputed ``width``-step transition
    matrix as a handful of table lookups (see :func:`_leap_tables`).
    It deliberately has no ``step`` method — it moves in whole words.
    """

    def __init__(self, width: int = 16, seed: int = 0xACE1,
                 taps: tuple[int, ...] | None = None):
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        if taps is None:
            if width not in PRIMITIVE_TAPS:
                raise ValueError(
                    f"no default primitive taps for width {width}; pass taps explicitly"
                )
            taps = PRIMITIVE_TAPS[width]
        self.width = width
        self.taps = tuple(sorted(taps, reverse=True))
        seed &= mask(width)
        if seed == 0:
            raise ValueError("seed must be non-zero for an LFSR")
        self.state = seed
        self._chunks = _leap_tables(width, self.taps)

    @classmethod
    def from_lfsr(cls, lfsr: Lfsr) -> "LeapLfsr":
        """A leap stepper continuing exactly where ``lfsr`` stands."""
        return cls(lfsr.width, seed=lfsr.state, taps=lfsr.taps)

    def next_word(self) -> int:
        """Advance ``width`` bits in one leap; return the fresh word."""
        state = self.state
        word = 0
        for shift, table in self._chunks:
            word ^= table[(state >> shift) & (len(table) - 1)]
        self.state = word
        return word

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LeapLfsr(width={self.width}, state={self.state:#06x})"

