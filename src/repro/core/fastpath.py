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

How it gets its speed (DESIGN.md section 8), mirroring the paper's
improved core, where separate modules align the message and turn each
key pair into a window placement so nothing waits on per-bit work:

* **Placement tables** (the key cache and comparator) — a window's
  placement depends only on the sorted key pair and a ``key_bits``-wide
  slice of the vector's scramble half, so each sorted pair has one
  table of at most ``half`` entries ``(kn1, budget, window mask, clear
  mask)``.  The tables for every pair of a ``(params, algorithm)`` are
  built together on first use and shared by every key: a compiled
  schedule is only a tuple of references to them, and a new key
  compiles no table.  Plain HHEA's tables have one entry each.
* **Message words** (the message alignment module) — the plaintext is
  expanded once into an :class:`array.array` holding the little-endian
  word that starts at every byte offset, so the window at message bit
  ``m`` is ``words[m >> 3] >> (m & 7)``.  Bit ``m`` of the stream is
  bit ``m`` of ``int.from_bytes(data, "little")``, the canonical
  LSB-first order of :func:`repro.util.bits.bytes_to_bits`.
* **One vector supply per call** — a plain register up to 16 bits is
  stepped by a generator over the leap tables of
  :func:`repro.util.lfsr._leap_tables`, a wider one by
  :meth:`repro.util.lfsr.LeapLfsr.next_word`, any other source by its
  own range-checked ``next_word``.

Equivalence argument: the per-vector state of both engines is
``(pair index, vector source state, message cursor)``.  Both consume
one vector per iteration from the same source sequence (the leap tables
are sampled from the reference :class:`~repro.util.lfsr.Lfsr` itself),
compute the same window (a table entry is the reference formula
evaluated once per slice value), and embed the same bits: the kernel
writes a whole window every time and, after the loop, restores the last
window's bits past the end of the message from the unmodified vector —
exactly the reference's ``budget = min(window, remaining)``.  Replacing
the per-bit read-XOR-write loop with one masked word XOR is the
identity ``(chunk ^ scramble) & m == XOR of the per-bit scrambles``.
The conformance corpus (``tests/core/test_conformance.py``) pins every
registered engine to the reference over thousands of seeded cases.

Callers select engines through :mod:`repro.core.engines`, never here.
Both engines produce byte-identical wire packets, so the choice is
purely local — peers never need to agree on it.
"""

from __future__ import annotations

import sys
import weakref
from array import array
from collections.abc import Sequence
from itertools import cycle

from repro.core.errors import CipherFormatError
from repro.core.key import Key
from repro.core.params import VectorParams
from repro.util.bits import check_uint, mask
from repro.util.lfsr import LeapLfsr, Lfsr, _leap_tables

__all__ = ["HHEA", "MHHEA", "FastSchedule", "schedule_for"]

#: Algorithm names accepted by :func:`schedule_for`.
MHHEA = "mhhea"
HHEA = "hhea"

#: ``array`` type codes for the message-word sizes, in bytes.
_WORD_CODES = {2: "H", 4: "I", 8: "Q"}

_MASK64 = (1 << 64) - 1


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


def _pair_program(k1: int, k2: int, params: VectorParams,
                  algorithm: str) -> tuple:
    """The program of one sorted pair: ``(shift, index_mask, table, scramble)``.

    A vector ``v`` selects the entry ``table[(v >> shift) & index_mask]``
    of its window placement.  For MHHEA the index is the scramble slice
    ``v[k2 + half .. k1 + half]`` cut to its low ``key_bits`` bits, the
    only ones ``kn1 = (slice ^ k1) & (half - 1)`` reads; each entry is
    that formula, the mod-``half`` wrap and the masks, computed once.
    Plain HHEA has no slice: one entry, the sorted pair itself, which
    never wraps, and a zero scramble word.
    """
    half = params.half
    span = k2 - k1
    if algorithm == MHHEA:
        shift, index_mask = k1 + half, mask(span + 1) & (half - 1)
        starts = [(index ^ k1) & (half - 1) for index in range(index_mask + 1)]
        scramble = _tile_scramble(k1, params)
    else:
        shift, index_mask, starts, scramble = 0, 0, [k1], 0
    full = mask(params.width)
    table = []
    for kn1 in starts:
        kn2 = kn1 + span
        if kn2 >= half:
            kn1, kn2 = kn2 - half, kn1
        budget = kn2 - kn1 + 1
        window = mask(budget)
        table.append((kn1, budget, window, full ^ (window << kn1)))
    return shift, index_mask, tuple(table), scramble


#: Pair programs of every sorted pair, per (params, algorithm), built on
#: first use and shared by every key; they hold no key material beyond
#: the pair values every key draws from.
_PROGRAMS: dict[tuple[VectorParams, str], dict[tuple[int, int], tuple]] = {}


def _programs(params: VectorParams, algorithm: str) -> dict:
    """The shared programs of every sorted pair, built on first use."""
    programs = _PROGRAMS.get((params, algorithm))
    if programs is None:
        programs = _PROGRAMS[(params, algorithm)] = {
            (k1, k2): _pair_program(k1, k2, params, algorithm)
            for k1 in range(params.half) for k2 in range(k1, params.half)
        }
    return programs


def _word_bytes(params: VectorParams) -> int:
    """Bytes per message word: a window read at any bit offset fits."""
    size = 2
    while 8 * size - 7 < params.max_window:
        size *= 2
    return size


def _message_words(data, size: int):
    """The ``size``-byte little-endian word starting at every byte of ``data``.

    Built in C: byte ``j`` of every word is one strided slice assignment
    of the zero-padded message shifted by ``j``.  Words wider than
    ``array`` holds (vectors over 64 bits) fall back to a list.
    """
    n = len(data)
    padded = b"".join((data, bytes(size)))
    if size not in _WORD_CODES:
        return [int.from_bytes(padded[i:i + size], "little") for i in range(n)]
    raw = bytearray(n * size)
    for j in range(size):
        raw[j::size] = padded[j:j + n]
    words = array(_WORD_CODES[size], raw)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _leap_words(state: int, low: tuple, high: tuple):
    """Endless :meth:`Lfsr.next_word` sequence of a register up to 16 bits."""
    while True:
        state = low[state & 0xFF] ^ high[state >> 8]
        yield state


def _checked_words(source, width: int):
    """Endless range-checked ``next_word()`` sequence of any source."""
    next_word = source.next_word
    while True:
        yield check_uint(next_word(), width, "hiding vector")


def _vector_supply(source, width: int):
    """The hiding-vector iterator of one embed call.

    Returns ``(vectors, register)``: ``register`` is ``source`` when it
    is a plain :class:`Lfsr` no wider than the vectors, whose state the
    caller writes back as the last vector drawn (``next_word`` leaves
    the register equal to the word it returns), and ``None`` otherwise.
    Wider registers take the checked path, so they fail exactly like
    the reference engine.
    """
    if source.__class__ is not Lfsr or source.width > width:
        return _checked_words(source, width), None
    if source.width > 16:
        return iter(LeapLfsr.from_lfsr(source).next_word, None), source
    chunks = _leap_tables(source.width, source.taps)
    high = chunks[1][1] if len(chunks) > 1 else (0,)
    return _leap_words(source.state, chunks[0][1], high), source


class FastSchedule:
    """A key schedule compiled for the byte path of one cipher.

    Built once per (key, algorithm, params) by :func:`schedule_for` (and
    cached there), then reused across every packet under that key.  It
    holds one shared pair program per key pair (see
    :func:`_pair_program`), in key order.
    """

    __slots__ = ("width", "_programs", "_word_bytes", "__weakref__")

    def __init__(self, key: Key, params: VectorParams, algorithm: str):
        self.width = params.width
        self._word_bytes = _word_bytes(params)
        shared = _programs(params, algorithm)
        self._programs = tuple(shared[min(p.k1, p.k2), max(p.k1, p.k2)]
                               for p in key.pairs)

    def embed_bytes(self, data: bytes, source) -> list[int]:
        """Embed ``data`` into fresh vectors drawn from ``source``.

        Every vector takes a whole window of message bits; past the end
        of the message the words read zeros, and the last vector's
        window bits beyond the message are restored from the drawn
        vector once, after the loop.
        """
        n_bits = len(data) * 8
        if not n_bits:
            return []
        words = _message_words(data, self._word_bytes)
        supply, register = _vector_supply(source, self.width)
        vectors: list[int] = []
        append = vectors.append
        m = 0
        for vector, (shift, index_mask, table, scramble) in zip(
                supply, cycle(self._programs)):
            kn1, budget, window, clear = table[(vector >> shift) & index_mask]
            append((vector & clear)
                   | ((((words[m >> 3] >> (m & 7)) ^ scramble) & window)
                      << kn1))
            m += budget
            if m >= n_bits:
                break
        if m > n_bits:
            past = (window ^ mask(budget - (m - n_bits))) << kn1
            vectors[-1] ^= (vectors[-1] ^ vector) & past
        if register is not None:
            register.state = vector
        return vectors

    def extract_bytes(self, vectors: Sequence[int], n_bits: int) -> bytes:
        """Recover the ``n_bits // 8`` plaintext bytes hidden in ``vectors``.

        ``n_bits`` must be a non-negative multiple of 8, and the vector
        count exactly what it implies: truncated or trailing ciphertext
        raises :class:`CipherFormatError`.  Recovered windows accumulate
        in a small integer that is flushed to the output 64 bits at a
        time, so no operation ever touches more than a couple of machine
        words; the loop stops at the vector that completes the message,
        and the bits it carries past the end are dropped.
        """
        if n_bits < 0:
            raise ValueError(f"n_bits must be non-negative, got {n_bits}")
        if n_bits % 8 != 0:
            raise ValueError(f"bit count {n_bits} is not a multiple of 8")
        width = self.width
        wmask = mask(width)
        out = bytearray()
        acc = 0
        acc_bits = 0
        need = n_bits  # message bits not yet flushed to ``out``
        stop = min(need, 64)
        rest = iter(vectors)
        if need:
            for vector, (shift, index_mask, table, scramble) in zip(
                    rest, cycle(self._programs)):
                if vector.__class__ is not int or not 0 <= vector <= wmask:
                    check_uint(vector, width, "ciphertext vector")
                kn1, budget, window, _ = table[(vector >> shift) & index_mask]
                acc |= (((vector >> kn1) ^ scramble) & window) << acc_bits
                acc_bits += budget
                if acc_bits >= stop:
                    if acc_bits >= need:
                        break
                    out += (acc & _MASK64).to_bytes(8, "little")
                    acc >>= 64
                    acc_bits -= 64
                    need -= 64
                    stop = min(need, 64)
        if acc_bits < need:
            raise CipherFormatError(
                f"truncated ciphertext: recovered {n_bits - need + acc_bits} "
                f"of {n_bits} message bits"
            )
        left = sum(1 for _ in rest)
        if left:
            raise CipherFormatError(
                f"trailing ciphertext: message complete after "
                f"{len(vectors) - left} vectors but {len(vectors)} were "
                f"supplied"
            )
        out += (acc & mask(need)).to_bytes(need >> 3, "little")
        return bytes(out)


#: Compiled schedules, keyed weakly on the Key: a schedule lives exactly
#: as long as its Key does, so the session layer's rekey ratchet really
#: retires old epoch keys instead of leaving them pinned in a global
#: LRU for the process lifetime.
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
