"""Word-level bit-parallel kernel behind the ``"fast"`` engine.

:mod:`repro.core.engine` walks the message one bit at a time — faithful
to the paper's pseudocode, but far below what the algorithm allows in
software, exactly as the paper's serial reference was far below its FPGA
core.  This module is the software analogue of that hardware speedup: a
*bit-identical* implementation of the byte path, and nothing else.  It
embeds a byte string into fresh hiding vectors and extracts it back,
flat (packets never frame), for MHHEA or plain HHEA.  Bit lists, the
hardware's half-buffer framing, traces and injected policies live only
in the reference model.

How it gets its speed (DESIGN.md section 8):

* **Packed messages** — the plaintext stays a byte buffer with the
  canonical LSB-first bit order of :func:`repro.util.bits.bytes_to_bits`
  (bit ``m`` of the stream is bit ``m`` of ``int.from_bytes(data,
  "little")``), so a whole replacement window is one shift-and-mask.
* **Compiled key schedules** — each key pair is pre-sorted once into a
  *pair program*: the scramble-slice offset and mask for the location
  scramble, and the data-scramble bits of ``K1`` tiled into a
  ``max_window``-wide word, so embedding a window is a single XOR.
  Plain HHEA compiles to a zero slice mask and a zero scramble word, so
  one window formula serves both ciphers.
* **Leap-table LFSR** — hiding vectors come from
  :class:`repro.util.lfsr.LeapLfsr`, which jumps the register a whole
  word per table lookup instead of ``width`` single-bit steps.

Equivalence argument: the per-vector state of both engines is
``(pair index, vector source state, message cursor)``.  Both consume
one vector per iteration from the same source sequence (the leap tables
are sampled from the reference :class:`~repro.util.lfsr.Lfsr` itself),
compute the same window (the mod-``half`` wrap is one conditional
subtract since ``kn1, span < half``), and consume the same
``budget = min(window, remaining)`` bits; replacing the reference's
per-bit read-XOR-write loop with one masked word XOR is the identity
``(chunk ^ scramble) & m == XOR of the per-bit scrambles``.  The
conformance corpus (``tests/core/test_conformance.py``) pins every
registered engine to the reference over thousands of seeded cases.

Callers select engines through :mod:`repro.core.engines`, never here.
Both engines produce byte-identical wire packets, so the choice is
purely local — peers never need to agree on it.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence

from repro.core.errors import CipherFormatError
from repro.core.key import Key
from repro.core.params import VectorParams
from repro.util.bits import check_uint, mask
from repro.util.lfsr import LeapLfsr, Lfsr

__all__ = ["HHEA", "MHHEA", "FastSchedule", "schedule_for"]

#: Algorithm names accepted by :func:`schedule_for`.
MHHEA = "mhhea"
HHEA = "hhea"


def _tile_scramble(k1: int, params: VectorParams) -> int:
    """Tile the ``key_bits`` data-scramble bits of ``k1`` across a window.

    The reference restarts ``q`` at zero for every window and reduces it
    modulo ``key_bits``, so the scramble pattern seen by any window is a
    prefix of this fixed tiling — one precomputed word replaces one XOR
    per message bit.
    """
    word = 0
    for q in range(params.max_window):
        word |= ((k1 >> (q % params.key_bits)) & 1) << q
    return word


def _vector_supply(source, width: int):
    """Per-vector word supplier; table-driven when ``source`` is a plain Lfsr.

    For a plain :class:`~repro.util.lfsr.Lfsr` no wider than the engine
    (wider registers must go through the checked path so they fail
    exactly like the reference engine), the supplier advances a
    :class:`~repro.util.lfsr.LeapLfsr` clone and writes the word back
    into ``source.state`` — ``next_word`` leaves the register equal to
    the word it returns, so the caller's source stays in exactly the
    state the reference engine would have left it in.  Any other source
    is consulted one ``next_word()`` at a time, range-checked like the
    reference engine does.
    """
    if source.__class__ is Lfsr and source.width <= width:
        leap = LeapLfsr.from_lfsr(source)
        leap_word = leap.next_word

        def supply() -> int:
            word = leap_word()
            source.state = word
            return word

        return supply

    def supply() -> int:
        return check_uint(source.next_word(), width, "hiding vector")

    return supply


class FastSchedule:
    """A key schedule compiled for the byte path of one cipher.

    Built once per (key, algorithm, params) by :func:`schedule_for` (and
    cached there), then reused across every packet under that key.  Each
    pair program is ``(k1, span, slice_low, slice_mask, scramble)``; the
    window of a vector ``v`` is always
    ``kn1 = (((v >> slice_low) & slice_mask) ^ k1) & kmask`` and
    ``kn2 = kn1 + span``, swapped back into range when it wraps.
    """

    __slots__ = ("width", "half", "_progs", "_masks", "_read_span",
                 "__weakref__")

    def __init__(self, key: Key, params: VectorParams, algorithm: str):
        self.width = params.width
        self.half = params.half
        self._masks = tuple(mask(i) for i in range(params.max_window + 1))
        # Bytes that always cover one window read at any bit offset:
        # max_window bits plus up to 7 offset bits.
        self._read_span = (params.max_window + 7) // 8 + 1
        progs = []
        for pair in key.pairs:
            s = pair.sorted()
            span = s.k2 - s.k1
            if algorithm == MHHEA:
                progs.append((s.k1, span, s.k1 + params.scramble_low,
                              mask(span + 1), _tile_scramble(s.k1, params)))
            else:
                # Plain HHEA: no slice, so kn1 = k1 and the window is the
                # sorted pair, which never wraps; bits go in unmodified.
                progs.append((s.k1, span, 0, 0, 0))
        self._progs = tuple(progs)

    def embed_bytes(self, data: bytes, source) -> list[int]:
        """Embed ``data`` into fresh vectors drawn from ``source``.

        A window is at most ``max_window`` bits, so any window read fits
        in a ``_read_span``-byte slice of the buffer — one
        ``int.from_bytes`` per vector, never a shift of the whole
        message (big-integer shifts are O(message), which would make the
        loop quadratic).
        """
        progs = self._progs
        n_pairs = len(progs)
        masks = self._masks
        half = self.half
        kmask = half - 1
        span_bytes = self._read_span
        from_bytes = int.from_bytes
        supply = _vector_supply(source, self.width)
        vectors: list[int] = []
        append = vectors.append
        n_bits = len(data) * 8
        m = 0
        i = 0
        while m < n_bits:
            k1, span, slice_low, slice_mask, scramble = progs[i % n_pairs]
            vector = supply()
            kn1 = (((vector >> slice_low) & slice_mask) ^ k1) & kmask
            kn2 = kn1 + span
            if kn2 >= half:
                kn1, kn2 = kn2 - half, kn1
            budget = kn2 - kn1 + 1
            remaining = n_bits - m
            if budget > remaining:
                budget = remaining
            bmask = masks[budget]
            byte = m >> 3
            chunk = from_bytes(data[byte : byte + span_bytes], "little") >> (m & 7)
            window = (chunk ^ scramble) & bmask
            append((vector & ~(bmask << kn1)) | (window << kn1))
            m += budget
            i += 1
        return vectors

    def extract_bytes(self, vectors: Sequence[int], n_bits: int) -> bytes:
        """Recover the ``n_bits // 8`` plaintext bytes hidden in ``vectors``.

        ``n_bits`` must be a non-negative multiple of 8, and the vector
        count exactly what it implies: truncated or trailing ciphertext
        raises :class:`CipherFormatError`.  Recovered windows accumulate
        in a small integer that is flushed to the output 64 bits at a
        time, so no operation ever touches more than a couple of machine
        words — the mirror image of :meth:`embed_bytes`'s windowed reads.
        """
        if n_bits < 0:
            raise ValueError(f"n_bits must be non-negative, got {n_bits}")
        if n_bits % 8 != 0:
            raise ValueError(f"bit count {n_bits} is not a multiple of 8")
        progs = self._progs
        n_pairs = len(progs)
        masks = self._masks
        half = self.half
        kmask = half - 1
        wmask = mask(self.width)
        out = bytearray()
        acc = 0
        acc_bits = 0
        got = 0
        i = 0
        for vector in vectors:
            if got >= n_bits:
                raise CipherFormatError(
                    f"trailing ciphertext: message complete after {i} "
                    f"vectors but {len(vectors)} were supplied"
                )
            if vector.__class__ is not int or not 0 <= vector <= wmask:
                check_uint(vector, self.width, "ciphertext vector")
            k1, span, slice_low, slice_mask, scramble = progs[i % n_pairs]
            kn1 = (((vector >> slice_low) & slice_mask) ^ k1) & kmask
            kn2 = kn1 + span
            if kn2 >= half:
                kn1, kn2 = kn2 - half, kn1
            budget = kn2 - kn1 + 1
            remaining = n_bits - got
            if budget > remaining:
                budget = remaining
            acc |= (((vector >> kn1) ^ scramble) & masks[budget]) << acc_bits
            acc_bits += budget
            if acc_bits >= 64:
                out += (acc & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
                acc >>= 64
                acc_bits -= 64
            got += budget
            i += 1
        if got < n_bits:
            raise CipherFormatError(
                f"truncated ciphertext: recovered {got} of {n_bits} message bits"
            )
        out += acc.to_bytes((n_bits >> 3) - len(out), "little")
        return bytes(out)


#: Compiled schedules, keyed weakly on the Key: a schedule (which embeds
#: key-derived material) lives exactly as long as its Key does, so the
#: session layer's rekey ratchet really retires old epoch keys instead
#: of leaving them pinned in a global LRU for the process lifetime.
_SCHEDULES: "weakref.WeakKeyDictionary[Key, dict]" = weakref.WeakKeyDictionary()


def schedule_for(key: Key, algorithm: str,
                 params: VectorParams) -> FastSchedule:
    """The compiled (and cached) schedule for one of the built-in ciphers.

    ``algorithm`` is :data:`MHHEA` or :data:`HHEA`.  Caching is what
    amortises compilation across packets: every packet of a session hits
    the same (key, algorithm, params) triple.
    """
    if algorithm not in (MHHEA, HHEA):
        raise ValueError(
            f"algorithm must be {MHHEA!r} or {HHEA!r}, got {algorithm!r}"
        )
    per_key = _SCHEDULES.get(key)
    if per_key is None:
        per_key = _SCHEDULES[key] = {}
    schedule = per_key.get((algorithm, params))
    if schedule is None:
        schedule = per_key[(algorithm, params)] = FastSchedule(key, params,
                                                               algorithm)
    return schedule
