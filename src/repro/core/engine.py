"""Shared embed/extract engine for the hiding-cipher family.

HHEA and MHHEA differ only in two policy points:

* how a key pair plus the current hiding vector produce the replacement
  window (*location policy* — identity for HHEA, scrambled for MHHEA), and
* which bit each message bit is XORed with before embedding (*data
  policy* — zero for HHEA, the cycling key bit ``K1[q]`` for MHHEA).

Everything else — vector sequencing, round-robin key pairs, EOF handling,
trace recording — is common and lives here exactly once, so the two
ciphers cannot drift apart.  The policies are plain callables, which also
lets tests inject pathological policies to probe the engine's invariants.

Framing
-------
The pseudocode treats the message as one flat bit stream; the hardware
splits it into 16-bit halves, and a replacement window is truncated when
the current half runs out (the remaining window positions keep their
random vector bits, exactly like the pseudocode's end-of-file guard).
``frame_bits`` selects between the two semantics: ``None`` is the flat
pseudocode, ``16`` reproduces the micro-architecture bit-for-bit.  Both
sides of a link must simply agree — the trade-off is documented in
DESIGN.md section 2.

This module is the *reference* engine: one bit per inner-loop iteration,
optimised for being obviously faithful to the pseudocode, and the only
implementation of bit lists, framing, traces and injected policies.  The
word-level production kernel of the byte path lives in
:mod:`repro.core.fastpath` and is pinned to this implementation by the
conformance corpus (``tests/core/test_conformance.py``, DESIGN.md
section 8).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Protocol

from repro.core.errors import CipherFormatError
from repro.core.key import Key, KeyPair
from repro.core.params import VectorParams
from repro.core.trace import TraceRecorder, VectorTrace
from repro.util.bits import check_uint

__all__ = ["VectorSource", "WindowPolicy", "DataBitPolicy", "embed_stream", "extract_stream"]


class VectorSource(Protocol):
    """Anything that can supply fresh hiding vectors (LFSR, cover, ...)."""

    def next_word(self) -> int:  # pragma: no cover - protocol stub
        """Produce the next ``width``-bit hiding vector."""
        ...


#: Maps (sorted key pair, hiding vector, params) -> inclusive window bounds.
WindowPolicy = Callable[[KeyPair, int, VectorParams], tuple[int, int]]

#: Maps (sorted key pair, cycling index q) -> the scramble bit for position q.
DataBitPolicy = Callable[[KeyPair, int], int]


def _check_frame_bits(frame_bits: int | None) -> None:
    if frame_bits is not None and frame_bits <= 0:
        raise ValueError(f"frame_bits must be positive or None, got {frame_bits}")


def embed_stream(
    bits: Sequence[int],
    key: Key,
    source: VectorSource,
    window_policy: WindowPolicy,
    data_bit_policy: DataBitPolicy,
    params: VectorParams,
    trace: TraceRecorder | None = None,
    frame_bits: int | None = None,
) -> list[int]:
    """Embed a message bit stream into a sequence of hiding vectors.

    Faithful to the paper's pseudocode: one fresh vector per iteration,
    key pairs cycled ``i mod L``, window bits replaced in ascending
    location order, per-window scramble index ``q`` restarting at zero,
    and the final vector left partially random once the message ends
    (the ``if M[m] != EOF`` guard).  With ``frame_bits`` set, the same
    end-of-stream truncation also applies every ``frame_bits`` message
    bits, matching the hardware's buffer reloads.

    Returns the list of emitted vectors; an empty message yields an empty
    list, matching the ``while`` loop's entry condition.
    """
    _check_frame_bits(frame_bits)
    vectors: list[int] = []
    m = 0
    i = 0
    total = len(bits)
    frame_left = frame_bits if frame_bits is not None else total
    while m < total:
        pair = key.pair(i).sorted()
        vector = check_uint(source.next_word(), params.width, "hiding vector")
        kn1, kn2 = window_policy(pair, vector, params)
        _validate_window(kn1, kn2, params)
        budget = min(kn2 - kn1 + 1, frame_left, total - m)
        out = vector
        q = 0
        for offset in range(budget):
            j = kn1 + offset
            q %= params.key_bits
            bit = bits[m]
            if bit not in (0, 1):
                raise ValueError(f"message bit {m} is {bit!r}, expected 0 or 1")
            scrambled = bit ^ _check_data_bit(data_bit_policy(pair, q), q)
            out = (out & ~(1 << j)) | (scrambled << j)
            m += 1
            q += 1
        frame_left -= budget
        if frame_left == 0 and frame_bits is not None:
            frame_left = frame_bits
        vectors.append(out)
        if trace is not None:
            trace.add(
                VectorTrace(
                    iteration=i,
                    pair_index=i % len(key),
                    k1=pair.k1,
                    k2=pair.k2,
                    vector_in=vector,
                    kn1=kn1,
                    kn2=kn2,
                    m_start=m - budget,
                    bits_consumed=budget,
                    vector_out=out,
                )
            )
        i += 1
    return vectors


def extract_stream(
    vectors: Sequence[int],
    key: Key,
    n_bits: int,
    window_policy: WindowPolicy,
    data_bit_policy: DataBitPolicy,
    params: VectorParams,
    trace: TraceRecorder | None = None,
    strict: bool = True,
    frame_bits: int | None = None,
) -> list[int]:
    """Recover ``n_bits`` message bits from a hiding-vector sequence.

    Decryption never needs the RNG: the window policy only reads the
    scramble half of each vector, which the embedder is guaranteed never
    to overwrite (windows live in the low half by construction — see
    :class:`repro.core.params.VectorParams`).  ``frame_bits`` must match
    the value used at embed time.

    With ``strict=True`` (the default) the vector count must be exactly
    what the message length implies: truncated or trailing ciphertext
    raises :class:`CipherFormatError`.
    """
    if n_bits < 0:
        raise ValueError(f"n_bits must be non-negative, got {n_bits}")
    _check_frame_bits(frame_bits)
    bits: list[int] = []
    frame_left = frame_bits if frame_bits is not None else n_bits
    i = 0
    for vector in vectors:
        if len(bits) >= n_bits:
            if strict:
                raise CipherFormatError(
                    f"trailing ciphertext: message complete after {i} vectors "
                    f"but {len(vectors)} were supplied"
                )
            break
        pair = key.pair(i).sorted()
        check_uint(vector, params.width, "ciphertext vector")
        kn1, kn2 = window_policy(pair, vector, params)
        _validate_window(kn1, kn2, params)
        budget = min(kn2 - kn1 + 1, frame_left, n_bits - len(bits))
        q = 0
        for offset in range(budget):
            j = kn1 + offset
            q %= params.key_bits
            raw = (vector >> j) & 1
            bits.append(raw ^ _check_data_bit(data_bit_policy(pair, q), q))
            q += 1
        frame_left -= budget
        if frame_left == 0 and frame_bits is not None:
            frame_left = frame_bits
        if trace is not None:
            trace.add(
                VectorTrace(
                    iteration=i,
                    pair_index=i % len(key),
                    k1=pair.k1,
                    k2=pair.k2,
                    vector_in=vector,
                    kn1=kn1,
                    kn2=kn2,
                    m_start=len(bits) - budget,
                    bits_consumed=budget,
                    vector_out=vector,
                )
            )
        i += 1
    if len(bits) < n_bits:
        raise CipherFormatError(
            f"truncated ciphertext: recovered {len(bits)} of {n_bits} message bits"
        )
    return bits


def _validate_window(kn1: int, kn2: int, params: VectorParams) -> None:
    """Guard the engine against a broken window policy.

    Raises :class:`CipherFormatError` — not a bare :class:`ValueError` —
    so a pathological policy can never silently corrupt a stream and so
    callers handle it through the same hierarchy as any other malformed
    ciphertext.
    """
    if not 0 <= kn1 <= kn2 <= params.key_max:
        raise CipherFormatError(
            f"window policy produced illegal window [{kn1}, {kn2}] "
            f"for {params.width}-bit vectors"
        )


def _check_data_bit(bit: int, q: int) -> int:
    """Guard against a data policy that returns a non-bit (would corrupt
    neighbouring vector positions when shifted into place)."""
    if bit not in (0, 1):
        raise CipherFormatError(
            f"data-bit policy returned {bit!r} for q={q}, expected 0 or 1"
        )
    return bit
