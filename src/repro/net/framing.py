"""Incremental stream framing for the secure link.

:func:`repro.core.stream.split_packets` assumes the whole byte stream is
already in hand; a TCP peer instead sees arbitrary chunks — half a
header here, three packets and a bit there.  :class:`FrameDecoder` is
the streaming replacement: feed it chunks as they arrive and it yields
complete frames, carrying partial state across calls.  It understands
the three frame kinds on the wire (DESIGN.md section 6):

* ``hello`` — the fixed-size handshake frame (:class:`Hello`), magic
  ``b"MHLO"``;
* ``packet`` — one ciphertext packet in the
  :mod:`repro.core.stream` container format, magic ``b"MHEA"``;
* ``kex`` — one hello-v2 key-exchange message
  (:mod:`repro.kex.wire`), magic ``b"MKX2"``, used only while a
  negotiated handshake runs ahead of the classic hello.

The decoder only delimits.  It enforces an oversized-payload ceiling (a
corrupted length field must not make a receiver buffer gigabytes) and
raises on anything it cannot frame; a packet's CRC is checked by the
session that decrypts it (:class:`repro.net.session.Session`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.errors import CipherFormatError
from repro.core.stream import (
    ALGORITHM_HHEA,
    ALGORITHM_MHHEA,
    HEADER_SIZE,
    MAGIC,
    PacketHeader,
)
from repro.kex.wire import (
    KEX_MAGIC,
    KEX_PREFIX_SIZE,
    kex_frame_size,
    unpack_record as _unpack_kex_record,
)
from repro.util.crc import crc16_ccitt

__all__ = [
    "HELLO_MAGIC",
    "HELLO_SIZE",
    "HELLO_VERSION",
    "Hello",
    "Frame",
    "FrameDecoder",
]

HELLO_MAGIC = b"MHLO"
HELLO_VERSION = 1

# magic, version, algorithm, width, flags, session id, key fingerprint,
# rekey interval, CRC-16 over all preceding bytes (little-endian).
_HELLO = struct.Struct("<4sBBBB8s8sIH")
HELLO_SIZE = _HELLO.size

#: Default ceiling for one frame's payload; see DESIGN.md section 6.
MAX_PAYLOAD_DEFAULT = 1 << 20


@dataclass(frozen=True)
class Hello:
    """The handshake frame both peers exchange before any ciphertext.

    Carries everything the link must agree on — algorithm, vector width,
    rekey interval — plus the 8-byte session id that namespaces this
    connection's derived keys and the root-key fingerprint that proves
    both ends hold the same secret without revealing it.
    """

    algorithm: int
    width: int
    session_id: bytes
    fingerprint: bytes
    rekey_interval: int

    def pack(self) -> bytes:
        """Serialise to the fixed-size wire frame, CRC included."""
        body = _HELLO.pack(
            HELLO_MAGIC, HELLO_VERSION, self.algorithm, self.width, 0,
            self.session_id, self.fingerprint, self.rekey_interval, 0,
        )[:-2]
        return body + crc16_ccitt(body).to_bytes(2, "little")

    @classmethod
    def unpack(cls, blob: bytes) -> "Hello":
        """Parse and validate one wire hello frame."""
        if len(blob) < HELLO_SIZE:
            raise CipherFormatError(
                f"hello frame too short: {len(blob)} < {HELLO_SIZE}"
            )
        (magic, version, algorithm, width, flags, session_id, fingerprint,
         rekey_interval, crc) = _HELLO.unpack_from(blob)
        if magic != HELLO_MAGIC:
            raise CipherFormatError(f"bad hello magic {magic!r}")
        if version != HELLO_VERSION:
            raise CipherFormatError(f"unsupported hello version {version}")
        if flags != 0:
            raise CipherFormatError(f"reserved hello flags set: {flags:#x}")
        if algorithm not in (ALGORITHM_HHEA, ALGORITHM_MHHEA):
            raise CipherFormatError(f"unknown algorithm id {algorithm}")
        if width == 0 or width % 8 != 0:
            raise CipherFormatError(
                f"hello width {width} is not a whole byte count"
            )
        actual = crc16_ccitt(blob[: HELLO_SIZE - 2])
        if actual != crc:
            raise CipherFormatError(
                f"hello CRC mismatch: frame {crc:#06x}, computed {actual:#06x}"
            )
        return cls(algorithm, width, session_id, fingerprint, rekey_interval)


@dataclass(frozen=True)
class Frame:
    """One complete wire frame: its kind plus the raw bytes.

    ``raw`` is a read-only bytes-like object — on the zero-copy decode
    path it is a :class:`memoryview` into the decoder's drain buffer
    rather than a fresh ``bytes`` copy.  It compares equal to the
    equivalent ``bytes`` and every parser accepts it as-is; call
    ``bytes(frame.raw)`` only where a real ``bytes`` object is required
    (pickling to a worker pool, long-term retention).  See
    :class:`FrameDecoder` for the view-lifetime contract.
    """

    kind: str  # "hello", "packet" or "kex"
    raw: "bytes | memoryview"

    def hello(self) -> Hello:
        """Parse a ``hello`` frame (raises on a ``packet`` frame)."""
        if self.kind != "hello":
            raise CipherFormatError(f"frame is a {self.kind}, not a hello")
        return Hello.unpack(self.raw)


class FrameDecoder:
    """Chunk-at-a-time frame extractor for a TCP-style byte stream.

    A packet frame advertising a payload above ``max_payload`` bytes is
    rejected from its header alone, before any of it is buffered.

    The decoder only delimits.  Junk, an oversized frame or a header
    that does not parse raises :class:`CipherFormatError`, and the error
    is fatal for the stream: frames decoded earlier in the same ``feed``
    call are discarded with it, because on a reliable transport junk
    means the peers have lost framing and no later byte can be trusted.
    Hello and kex frames are parsed whole, CRC included, before they are
    emitted; a packet frame's CRC is the session's to check, so a
    payload bit flip still yields one complete (doomed) frame.

    A datagram link reuses one decoder and calls :meth:`reset` after a
    datagram fails to frame; the dropped bytes are counted in
    :attr:`bytes_skipped`.

    **Zero-copy operation and view lifetimes.**  The decoder keeps one
    immutable ``bytes`` buffer and a head offset instead of a mutable
    ``bytearray``: when nothing is pending, ``feed`` *adopts* the chunk
    as the buffer outright (no copy at all); when a partial frame is
    carried over, only that pending tail is copied once to prepend it to
    the new chunk.  Emitted :class:`Frame` objects carry
    :class:`memoryview` slices of the owning buffer — one owner per
    drain, never a per-frame copy.  Because owners are immutable and are
    *replaced* (not resized) on compaction, emitted views stay valid
    forever: they simply keep their owning buffer alive.  The flip side
    is that retaining one small frame pins its whole drain buffer in
    memory — consumers that hold frames beyond the current receive call
    should copy with ``bytes(frame.raw)`` (the link protocol does this
    for ``PacketReceived`` events, which may outlive the drain and cross
    process-pool boundaries).
    """

    def __init__(self, max_payload: int = MAX_PAYLOAD_DEFAULT):
        if max_payload < 1:
            raise ValueError(f"max_payload must be >= 1, got {max_payload}")
        self.max_payload = max_payload
        self.bytes_skipped = 0
        self._buf: bytes = b""
        self._head = 0
        self._view = memoryview(b"")

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet framed."""
        return len(self._buf) - self._head

    def feed(self, chunk: bytes) -> list[Frame]:
        """Absorb ``chunk`` and return every frame it completes."""
        if self._head >= len(self._buf):
            # Nothing pending: adopt the chunk as the owning buffer.
            self._buf = chunk if type(chunk) is bytes else bytes(chunk)
        else:
            # Compact: one copy of the pending tail, never of past frames.
            self._buf = self._buf[self._head:] + chunk
        self._head = 0
        self._view = memoryview(self._buf)
        frames: list[Frame] = []
        while True:
            frame = self._try_next()
            if frame is None:
                return frames
            frames.append(frame)

    def reset(self) -> None:
        """Drop any pending bytes, counting them in :attr:`bytes_skipped`.

        Datagram-mode links reuse one decoder across datagrams: after a
        drop decision the leftover bytes of the bad datagram must not
        bleed into the next one, and counting them keeps drop accounting
        truthful across reuse.  :attr:`bytes_skipped` is cumulative and
        never reset.
        """
        self.bytes_skipped += self.pending
        self._buf = b""
        self._head = 0
        self._view = memoryview(b"")

    # -- internals --------------------------------------------------------

    def _try_next(self) -> Frame | None:
        """Cut the next complete frame, or ``None`` until more bytes come."""
        buf, head = self._buf, self._head
        available = len(buf) - head
        if available < len(MAGIC):
            return None
        if buf.startswith(MAGIC, head):
            if available < HEADER_SIZE:
                return None
            header = PacketHeader.unpack(self._view[head:head + HEADER_SIZE])
            if header.payload_size > self.max_payload:
                raise CipherFormatError(
                    f"packet advertises {header.payload_size}-byte payload, "
                    f"over the {self.max_payload}-byte limit"
                )
            kind, parse = "packet", None
            size = HEADER_SIZE + header.payload_size
        elif buf.startswith(HELLO_MAGIC, head):
            kind, size, parse = "hello", HELLO_SIZE, Hello.unpack
        elif buf.startswith(KEX_MAGIC, head):
            if available < KEX_PREFIX_SIZE:
                return None
            # Raises on an oversized body, before any of it is buffered.
            size = kex_frame_size(buf[head:head + KEX_PREFIX_SIZE])
            kind, parse = "kex", _unpack_kex_record
        else:
            raise CipherFormatError(
                f"cannot frame stream: unknown magic {buf[head:head + 4]!r}"
            )
        if available < size:
            return None
        raw = self._view[head:head + size]
        if parse is not None:
            parse(raw)
        self._head = head + size
        return Frame(kind, raw)
