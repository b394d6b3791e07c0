"""Word-level bit-parallel engine for the hiding-cipher family.

:mod:`repro.core.engine` walks the message one bit at a time — faithful
to the paper's pseudocode, but far below what the algorithm allows in
software, exactly as the paper's serial reference was far below its FPGA
core.  This module is the software analogue of that hardware speedup: a
second, *bit-identical* implementation of the embed/extract engine that
operates on packed integers.

How it gets its speed (DESIGN.md section 8):

* **Packed messages** — the plaintext is one Python big integer with the
  canonical LSB-first bit order of :func:`repro.util.bits.bytes_to_bits`
  (bit ``m`` of the stream is bit ``m`` of ``int.from_bytes(data,
  "little")``), so a whole replacement window is one shift-and-mask.
* **Compiled key schedules** — each key pair is pre-sorted once into a
  *pair program*: the scramble-slice offset and mask for the location
  scramble, and the data-scramble bits of ``K1`` tiled into a
  ``max_window``-wide word, so embedding a window is a single XOR.
* **Leap-table LFSR** — hiding vectors come from
  :class:`repro.util.lfsr.LeapLfsr`, which jumps the register a whole
  word per table lookup instead of ``width`` single-bit steps.

Equivalence argument: the per-vector state of both engines is
``(pair index, vector source state, message cursor, frame_left)``.  Both
consume one vector per iteration from the same source sequence (the leap
tables are sampled from the reference :class:`~repro.util.lfsr.Lfsr`
itself), compute the same window (the mod-``half`` wrap is one
conditional subtract since ``kn1, span < half``), and consume the same
``budget = min(window, frame_left, remaining)`` bits; replacing the
reference's per-bit read-XOR-write loop with one masked word XOR is the
identity ``(chunk ^ scramble) & m == XOR of the per-bit scrambles``.
The differential suite (``tests/core/test_fastpath_equiv.py``) pins the
two engines together over thousands of randomised cases.

This module is the kernel behind the registry's ``"fast"`` engine
(:class:`repro.core.engines.FastEngine`); callers select engines through
:mod:`repro.core.engines`, never here.  Both engines produce
byte-identical wire packets, so the choice is purely local — peers
never need to agree on it.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence

from repro.core.errors import CipherFormatError
from repro.core.key import Key
from repro.core.params import VectorParams
from repro.util.bits import bits_to_int, check_uint, mask
from repro.util.lfsr import LeapLfsr, Lfsr

__all__ = [
    "HHEA",
    "MHHEA",
    "FastSchedule",
    "schedule_for",
    "embed_stream",
    "extract_stream",
]

#: Algorithm names accepted by :func:`schedule_for`.
MHHEA = "mhhea"
HHEA = "hhea"

# Window modes of a compiled schedule.
_W_SCRAMBLED = 0  # MHHEA: window displaced by the vector's scramble half
_W_FIXED = 1      # HHEA: the sorted pair itself
_W_CALLABLE = 2   # injected policy (tests); validated per vector


def _check_frame_bits(frame_bits: int | None) -> None:
    if frame_bits is not None and frame_bits <= 0:
        raise ValueError(f"frame_bits must be positive or None, got {frame_bits}")


def _tile_scramble(bits: Sequence[int], params: VectorParams) -> int:
    """Tile the ``key_bits`` per-``q`` scramble bits across a full window.

    The engine restarts ``q`` at zero for every window and reduces it
    modulo ``key_bits``, so the scramble pattern seen by any window is a
    prefix of this fixed tiling — one precomputed word replaces one
    policy call per message bit.
    """
    word = 0
    for q in range(params.max_window):
        word |= bits[q % params.key_bits] << q
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
    """A key schedule compiled for word-level embedding/extraction.

    Built once per (key, algorithm, params) by :func:`schedule_for` (and
    cached there), then reused across every packet under that key.
    Messages travel as packed integers: bit ``m`` of the stream is bit
    ``m`` of the integer.
    """

    __slots__ = ("params", "width", "half", "_mode", "_progs", "_masks",
                 "_window_policy", "_read_span", "__weakref__")

    def __init__(self, key: Key, params: VectorParams, mode: int,
                 window_policy=None, data_bit_policy=None):
        self.params = params
        self.width = params.width
        self.half = params.half
        self._mode = mode
        self._window_policy = window_policy
        self._masks = tuple(mask(i) for i in range(params.max_window + 1))
        # Bytes that always cover one window read at any bit offset:
        # max_window bits plus up to 7 offset bits.
        self._read_span = (params.max_window + 7) // 8 + 1
        progs = []
        for pair in key.pairs:
            s = pair.sorted()
            span = s.k2 - s.k1
            if mode == _W_SCRAMBLED:
                slice_low = s.k1 + params.scramble_low
                slice_mask = mask(span + 1)
                scramble_bits = [(s.k1 >> q) & 1 for q in range(params.key_bits)]
            elif mode == _W_FIXED:
                slice_low = slice_mask = 0
                scramble_bits = [0] * params.key_bits
            else:
                slice_low = slice_mask = 0
                scramble_bits = []
                for q in range(params.key_bits):
                    bit = data_bit_policy(s, q)
                    if bit not in (0, 1):
                        raise CipherFormatError(
                            f"data-bit policy returned {bit!r} for q={q}, "
                            f"expected 0 or 1"
                        )
                    scramble_bits.append(bit)
            scramble = _tile_scramble(scramble_bits, params)
            progs.append((s.k1, s.k2, span, slice_low, slice_mask, scramble, s))
        self._progs = tuple(progs)

    # -- packed-integer core ----------------------------------------------

    def embed_words(self, message: int, n_bits: int, source,
                    frame_bits: int | None = None) -> list[int]:
        """Embed the low ``n_bits`` of packed ``message`` into fresh vectors."""
        if message < 0 or message >> max(n_bits, 0):
            raise ValueError(
                f"message has bits set beyond the declared {n_bits}"
            )
        return self._embed_buffer(message.to_bytes((n_bits + 7) // 8, "little"),
                                  n_bits, source, frame_bits)

    def _embed_buffer(self, buf: bytes, n_bits: int, source,
                      frame_bits: int | None) -> list[int]:
        """The embed hot loop over an LSB-first byte buffer.

        A window is at most ``max_window`` bits, so any window read fits
        in a ``_read_span``-byte slice of the buffer — one
        ``int.from_bytes`` per vector, never a shift of the whole
        message (big-integer shifts are O(message), which would make the
        loop quadratic).
        """
        if n_bits < 0:
            raise ValueError(f"n_bits must be non-negative, got {n_bits}")
        _check_frame_bits(frame_bits)
        progs = self._progs
        n_pairs = len(progs)
        masks = self._masks
        half = self.half
        kmask = half - 1
        span_bytes = self._read_span
        mode = self._mode
        policy = self._window_policy
        params = self.params
        from_bytes = int.from_bytes
        supply = _vector_supply(source, self.width)
        vectors: list[int] = []
        append = vectors.append
        m = 0
        i = 0
        frame_left = frame_bits if frame_bits is not None else n_bits
        while m < n_bits:
            k1, k2, span, slice_low, slice_mask, scramble, pair = progs[i % n_pairs]
            vector = supply()
            if mode == _W_SCRAMBLED:
                kn1 = (((vector >> slice_low) & slice_mask) ^ k1) & kmask
                kn2 = kn1 + span
                if kn2 >= half:
                    kn1, kn2 = kn2 - half, kn1
            elif mode == _W_FIXED:
                kn1, kn2 = k1, k2
            else:
                kn1, kn2 = policy(pair, vector, params)
                if not 0 <= kn1 <= kn2 <= kmask:
                    raise CipherFormatError(
                        f"window policy produced illegal window [{kn1}, {kn2}] "
                        f"for {self.width}-bit vectors"
                    )
            budget = kn2 - kn1 + 1
            if budget > frame_left:
                budget = frame_left
            remaining = n_bits - m
            if budget > remaining:
                budget = remaining
            bmask = masks[budget]
            byte = m >> 3
            chunk = (from_bytes(buf[byte : byte + span_bytes], "little")
                     >> (m & 7)) & bmask
            window = (chunk ^ scramble) & bmask
            append((vector & ~(bmask << kn1)) | (window << kn1))
            m += budget
            frame_left -= budget
            if frame_left == 0 and frame_bits is not None:
                frame_left = frame_bits
            i += 1
        return vectors

    def extract_words(self, vectors: Sequence[int], n_bits: int,
                      strict: bool = True,
                      frame_bits: int | None = None) -> int:
        """Recover ``n_bits`` message bits as one packed integer."""
        return int.from_bytes(
            self._extract_buffer(vectors, n_bits, strict, frame_bits), "little"
        )

    def _extract_buffer(self, vectors: Sequence[int], n_bits: int,
                        strict: bool, frame_bits: int | None) -> bytearray:
        """The extract hot loop; returns the LSB-first byte buffer.

        Recovered windows accumulate in a small integer that is flushed
        to the output buffer 64 bits at a time, so no operation ever
        touches more than a couple of machine words — the mirror image
        of :meth:`_embed_buffer`'s windowed reads.
        """
        if n_bits < 0:
            raise ValueError(f"n_bits must be non-negative, got {n_bits}")
        _check_frame_bits(frame_bits)
        progs = self._progs
        n_pairs = len(progs)
        masks = self._masks
        half = self.half
        kmask = half - 1
        wmask = mask(self.width)
        mode = self._mode
        policy = self._window_policy
        params = self.params
        out = bytearray()
        acc = 0
        acc_bits = 0
        got = 0
        i = 0
        frame_left = frame_bits if frame_bits is not None else n_bits
        for vector in vectors:
            if got >= n_bits:
                if strict:
                    raise CipherFormatError(
                        f"trailing ciphertext: message complete after {i} "
                        f"vectors but {len(vectors)} were supplied"
                    )
                break
            if vector.__class__ is not int or not 0 <= vector <= wmask:
                check_uint(vector, self.width, "ciphertext vector")
            k1, k2, span, slice_low, slice_mask, scramble, pair = progs[i % n_pairs]
            if mode == _W_SCRAMBLED:
                kn1 = (((vector >> slice_low) & slice_mask) ^ k1) & kmask
                kn2 = kn1 + span
                if kn2 >= half:
                    kn1, kn2 = kn2 - half, kn1
            elif mode == _W_FIXED:
                kn1, kn2 = k1, k2
            else:
                kn1, kn2 = policy(pair, vector, params)
                if not 0 <= kn1 <= kn2 <= kmask:
                    raise CipherFormatError(
                        f"window policy produced illegal window [{kn1}, {kn2}] "
                        f"for {self.width}-bit vectors"
                    )
            budget = kn2 - kn1 + 1
            if budget > frame_left:
                budget = frame_left
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
            frame_left -= budget
            if frame_left == 0 and frame_bits is not None:
                frame_left = frame_bits
            i += 1
        if got < n_bits:
            raise CipherFormatError(
                f"truncated ciphertext: recovered {got} of {n_bits} message bits"
            )
        out += acc.to_bytes((n_bits + 7) // 8 - len(out), "little")
        return out

    # -- bit-list and bytes adapters ---------------------------------------

    def embed_bits(self, bits: Sequence[int], source,
                   frame_bits: int | None = None) -> list[int]:
        """Drop-in for the reference engine's bit-list embed interface."""
        return self.embed_words(bits_to_int(bits), len(bits), source, frame_bits)

    def extract_bits(self, vectors: Sequence[int], n_bits: int,
                     strict: bool = True,
                     frame_bits: int | None = None) -> list[int]:
        """Drop-in for the reference engine's bit-list extract interface."""
        buf = self._extract_buffer(vectors, n_bits, strict, frame_bits)
        return [(buf[k >> 3] >> (k & 7)) & 1 for k in range(n_bits)]

    def embed_bytes(self, data: bytes, source,
                    frame_bits: int | None = None) -> list[int]:
        """Embed bytes without ever materialising a per-bit list."""
        return self._embed_buffer(data, len(data) * 8, source, frame_bits)

    def extract_bytes(self, vectors: Sequence[int], n_bits: int,
                      strict: bool = True,
                      frame_bits: int | None = None) -> bytes:
        """Recover a byte string; ``n_bits`` must be a multiple of 8."""
        if n_bits >= 0 and n_bits % 8 != 0:
            raise ValueError(f"bit count {n_bits} is not a multiple of 8")
        return bytes(self._extract_buffer(vectors, n_bits, strict, frame_bits))


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
    if algorithm == MHHEA:
        mode = _W_SCRAMBLED
    elif algorithm == HHEA:
        mode = _W_FIXED
    else:
        raise ValueError(
            f"algorithm must be {MHHEA!r} or {HHEA!r}, got {algorithm!r}"
        )
    per_key = _SCHEDULES.get(key)
    if per_key is None:
        per_key = _SCHEDULES[key] = {}
    schedule = per_key.get((algorithm, params))
    if schedule is None:
        schedule = per_key[(algorithm, params)] = FastSchedule(key, params, mode)
    return schedule


def embed_stream(bits: Sequence[int], key: Key, source, window_policy,
                 data_bit_policy, params: VectorParams,
                 frame_bits: int | None = None) -> list[int]:
    """Generic-policy fast embed, mirroring :func:`repro.core.engine.embed_stream`.

    The window policy is consulted once per vector (it may read the
    vector); the data policy is assumed pure in ``(pair, q)`` and is
    compiled into per-pair scramble words — both built-in policies are.
    Pathological policies raise :class:`CipherFormatError` as in the
    reference engine, with one deliberate strictness difference: the
    data policy is validated *eagerly* over every ``q`` at compile time,
    so a policy that is broken only for a ``q`` the message would never
    reach still fails here (the reference only checks bits it consumes).
    Trace recording is reference-only.
    """
    schedule = FastSchedule(key, params, _W_CALLABLE, window_policy,
                            data_bit_policy)
    return schedule.embed_bits(bits, source, frame_bits)


def extract_stream(vectors: Sequence[int], key: Key, n_bits: int,
                   window_policy, data_bit_policy, params: VectorParams,
                   strict: bool = True,
                   frame_bits: int | None = None) -> list[int]:
    """Generic-policy fast extract, mirroring :func:`repro.core.engine.extract_stream`."""
    schedule = FastSchedule(key, params, _W_CALLABLE, window_policy,
                            data_bit_policy)
    return schedule.extract_bits(vectors, n_bits, strict, frame_bits)

