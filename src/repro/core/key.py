"""Key material for the (M)HHEA family.

The key is a matrix ``K[L][2]`` of ``L <= 16`` pairs of small integers
(3-bit each for the paper's 16-bit vector).  Pairs are consumed round
robin (``i mod L``) and each pair is pre-sorted before use — the
pseudocode's first swap step.  This module owns:

* :class:`KeyPair` — one sorted-on-demand pair;
* :class:`Key` — the full schedule with parsing, serialisation,
  generation and validation;
* the *location scrambling* arithmetic (:func:`scramble_pair`) shared by
  the reference cipher, the decryptor and both RTL models, so the
  non-obvious truncation semantics live in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ReproKeyError
from repro.core.params import PAPER_PARAMS, VectorParams
from repro.util.bits import check_uint, extract_field, mask
from repro.util.rng import make_rng

__all__ = ["KeyPair", "Key", "scramble_pair", "MAX_PAIRS"]

#: The key cache buffers "the whole 16 three-bit key pairs" (section 3.3).
MAX_PAIRS = 16


@dataclass(frozen=True)
class KeyPair:
    """One key pair ``(k1, k2)`` as stored, i.e. possibly unsorted."""

    k1: int
    k2: int

    def validate(self, params: VectorParams) -> None:
        """Raise :class:`ReproKeyError` unless both halves are in range."""
        for name, value in (("k1", self.k1), ("k2", self.k2)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ReproKeyError(
                    f"{name} must be an int, got {type(value).__name__}")
            if not 0 <= value <= params.key_max:
                raise ReproKeyError(
                    f"{name}={value} out of range 0..{params.key_max} "
                    f"for {params.width}-bit vectors"
                )

    def sorted(self) -> "KeyPair":
        """The pair with ``k1 <= k2`` — the algorithm's first swap step."""
        if self.k1 <= self.k2:
            return self
        return KeyPair(self.k2, self.k1)

    @property
    def span(self) -> int:
        """Raw window width ``|k2 - k1| + 1`` before location scrambling."""
        return abs(self.k2 - self.k1) + 1


class Key:
    """A full (M)HHEA key schedule of up to :data:`MAX_PAIRS` pairs."""

    def __init__(self, pairs: list[KeyPair] | list[tuple[int, int]],
                 params: VectorParams = PAPER_PARAMS):
        if not pairs:
            raise ReproKeyError("key must contain at least one pair")
        if len(pairs) > MAX_PAIRS:
            raise ReproKeyError(
                f"key has {len(pairs)} pairs; the key cache holds {MAX_PAIRS}")
        normalised: list[KeyPair] = []
        for entry in pairs:
            pair = entry if isinstance(entry, KeyPair) else KeyPair(*entry)
            pair.validate(params)
            normalised.append(pair)
        self.pairs: tuple[KeyPair, ...] = tuple(normalised)
        self.params = params

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Key):
            return NotImplemented
        return self.pairs == other.pairs and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.pairs, self.params))

    def pair(self, i: int) -> KeyPair:
        """Pair used on iteration ``i``: round-robin ``i mod L``."""
        return self.pairs[i % len(self.pairs)]

    # -- serialisation ----------------------------------------------------

    def to_hex(self) -> str:
        """Serialise as colon-separated hex nibble pairs, e.g. ``03:25:71``.

        Each pair packs as two hex digits ``k1 k2``; only valid while
        ``key_bits <= 4`` (vector width <= 32), which covers every
        configuration the RTL supports.
        """
        if self.params.key_bits > 4:
            raise ReproKeyError("hex serialisation supports key_bits <= 4")
        return ":".join(f"{p.k1:x}{p.k2:x}" for p in self.pairs)

    @classmethod
    def from_hex(cls, text: str, params: VectorParams = PAPER_PARAMS) -> "Key":
        """Parse the :meth:`to_hex` format."""
        text = text.strip()
        if not text:
            raise ReproKeyError("empty key string")
        pairs = []
        for i, token in enumerate(text.split(":")):
            token = token.strip()
            if len(token) != 2:
                raise ReproKeyError(f"pair {i}: expected two hex digits, got {token!r}")
            try:
                pairs.append(KeyPair(int(token[0], 16), int(token[1], 16)))
            except ValueError as exc:
                raise ReproKeyError(f"pair {i}: invalid hex {token!r}") from exc
        return cls(pairs, params)

    def to_bytes(self) -> bytes:
        """One byte per pair, ``k1`` in the high nibble."""
        if self.params.key_bits > 4:
            raise ReproKeyError("byte serialisation supports key_bits <= 4")
        return bytes((p.k1 << 4) | p.k2 for p in self.pairs)

    @classmethod
    def from_bytes(cls, blob: bytes, params: VectorParams = PAPER_PARAMS) -> "Key":
        """Inverse of :meth:`to_bytes`."""
        if not blob:
            raise ReproKeyError("empty key blob")
        return cls([KeyPair(b >> 4, b & 0xF) for b in blob], params)

    # -- generation -------------------------------------------------------

    @classmethod
    def generate(cls, seed: int, n_pairs: int = MAX_PAIRS,
                 params: VectorParams = PAPER_PARAMS) -> "Key":
        """Deterministically generate a key schedule from ``seed``."""
        if not 1 <= n_pairs <= MAX_PAIRS:
            raise ReproKeyError(f"n_pairs must be 1..{MAX_PAIRS}, got {n_pairs}")
        rng = make_rng(seed)
        pairs = [
            KeyPair(rng.randrange(params.half), rng.randrange(params.half))
            for _ in range(n_pairs)
        ]
        return cls(pairs, params)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Key({len(self.pairs)} pairs, width={self.params.width})"


def scramble_pair(pair: KeyPair, vector: int, params: VectorParams = PAPER_PARAMS
                  ) -> tuple[int, int]:
    """Location scrambling: derive the window ``(kn1, kn2)`` from V.

    Implements, for the sorted pair ``k1 <= k2``::

        KN1 = (V[k2 + half .. k1 + half] XOR k1)  truncated to key_bits
        KN2 = (KN1 + (k2 - k1)) mod half
        if KN1 > KN2: swap

    The truncation is the hardware semantics — KN1 is a ``key_bits``-wide
    register — and is what the paper's Fig. 8 worked example shows
    (V=0xCA06, K=(0,3): slice ``010b`` → KN1=2, KN2=5).  Note the slice is
    ``k2 - k1 + 1`` bits wide *before* truncation.

    Because of the mod-``half`` wraparound, the scrambled window width
    ``kn2 - kn1 + 1`` can differ from the raw span ``k2 - k1 + 1``; both
    encryptor and decryptor recompute it from the (never overwritten)
    scramble half of V, so they always agree.
    """
    check_uint(vector, params.width, "vector")
    s = pair.sorted()
    low = s.k1 + params.scramble_low
    high = s.k2 + params.scramble_low
    slice_bits = extract_field(vector, high, low)
    kn1 = (slice_bits ^ s.k1) & mask(params.key_bits)
    kn2 = (kn1 + (s.k2 - s.k1)) % params.half
    if kn1 > kn2:
        kn1, kn2 = kn2, kn1
    return kn1, kn2
