"""Wire format for the hello-v2 key-exchange frames (``MKX2``).

The kex phase runs *ahead* of the classic ``MHLO`` hello, on the same
byte stream, so its frames follow the link's framing conventions: a
4-byte magic, fixed little-endian prefix, explicit body length, and a
CRC-16/CCITT trailer over everything preceding it.  The CRC catches
accidental damage only; malicious tampering is caught by the
transcript-bound confirmation MACs in :mod:`repro.kex.handshake`
(every prefix byte, including the mode byte, is part of the MAC'd
transcript).

Frame layout (DESIGN.md section 11)::

    magic "MKX2" | version u8 | msg_type u8 | mode u8 | flags u8
    | body_len u16 | body | crc16 u16

``mode`` carries the offered-mode *bitmask* on a ClientHello
(:data:`OFFER_ECDH` | :data:`OFFER_RESUME`) and the *selected* mode id
on a ServerHello (:data:`MODE_ECDH` or :data:`MODE_RESUME`).

Three message types::

    CLIENT_HELLO  body = width u8 | n_pairs u8 | client_public 32
                  | client_random 16 | tenant_id 16
                  | ticket_len u16 | ticket
    SERVER_HELLO  body = server_public 32 | server_random 16
                  | ticket_len u16 | ticket | confirm 32
    FINISHED      body = confirm 32

This module is pure serialisation — no key material, no state.  It is
imported by :mod:`repro.net.framing` (to delimit kex frames on the
stream) and by :mod:`repro.kex.handshake` (to build and parse them),
and depends only on :mod:`repro.core.errors` and the CRC helper, so no
import cycle forms.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.errors import CipherFormatError, KexError
from repro.util.crc import crc16_ccitt

__all__ = [
    "KEX_MAGIC",
    "KEX_VERSION",
    "KEX_PREFIX_SIZE",
    "KEX_MAX_BODY",
    "MSG_CLIENT_HELLO",
    "MSG_SERVER_HELLO",
    "MSG_FINISHED",
    "MODE_ECDH",
    "MODE_RESUME",
    "OFFER_ECDH",
    "OFFER_RESUME",
    "KexRecord",
    "ClientHello",
    "ServerHello",
    "Finished",
    "pack_record",
    "unpack_record",
]

KEX_MAGIC = b"MKX2"
KEX_VERSION = 1

MSG_CLIENT_HELLO = 1
MSG_SERVER_HELLO = 2
MSG_FINISHED = 3

#: Selected-mode ids (ServerHello / Finished ``mode`` byte).
MODE_ECDH = 1
MODE_RESUME = 2

#: Offered-mode bits (ClientHello ``mode`` byte).
OFFER_ECDH = 0x01
OFFER_RESUME = 0x02

# magic, version, msg_type, mode, flags, body_len.
_PREFIX = struct.Struct("<4sBBBBH")
KEX_PREFIX_SIZE = _PREFIX.size

#: Ceiling on one kex frame's body — tickets are ~100 bytes, so this is
#: generous while still rejecting a corrupted length field outright.
KEX_MAX_BODY = 2048

_CRC_SIZE = 2

_PUBLIC_SIZE = 32
_RANDOM_SIZE = 16
_TENANT_SIZE = 16
_CONFIRM_SIZE = 32

_CLIENT_HEAD = struct.Struct(f"<BB{_PUBLIC_SIZE}s{_RANDOM_SIZE}s{_TENANT_SIZE}sH")
_SERVER_HEAD = struct.Struct(f"<{_PUBLIC_SIZE}s{_RANDOM_SIZE}sH")


@dataclass(frozen=True)
class KexRecord:
    """One validated kex frame: prefix fields plus the raw body."""

    msg_type: int
    mode: int
    body: bytes
    raw: bytes  # the full wire frame, CRC included

    @property
    def transcript_bytes(self) -> bytes:
        """The bytes bound into the handshake transcript: everything
        but the CRC trailer (the CRC is redundant with the MAC and
        would otherwise have to be recomputed when the confirm field
        is filled in)."""
        return self.raw[:-_CRC_SIZE]


def pack_record(msg_type: int, mode: int, body: bytes) -> bytes:
    """Serialise one kex frame, CRC trailer included."""
    if len(body) > KEX_MAX_BODY:
        raise KexError(f"kex body {len(body)} bytes exceeds {KEX_MAX_BODY}")
    head = _PREFIX.pack(KEX_MAGIC, KEX_VERSION, msg_type, mode, 0, len(body))
    frame = head + body
    return frame + crc16_ccitt(frame).to_bytes(2, "little")


def unpack_record(blob: bytes) -> KexRecord:
    """Parse and validate one complete kex wire frame.

    Raises :class:`CipherFormatError` so the framing layer's
    junk-handling (fatal on streams, dropped on datagrams) applies to
    damaged kex frames exactly as it does to damaged hellos.
    """
    blob = bytes(blob)
    if len(blob) < KEX_PREFIX_SIZE + _CRC_SIZE:
        raise CipherFormatError(
            f"kex frame too short: {len(blob)} < {KEX_PREFIX_SIZE + _CRC_SIZE}"
        )
    magic, version, msg_type, mode, flags, body_len = _PREFIX.unpack_from(blob)
    if magic != KEX_MAGIC:
        raise CipherFormatError(f"bad kex magic {magic!r}")
    if version != KEX_VERSION:
        raise CipherFormatError(f"unsupported kex version {version}")
    if flags != 0:
        raise CipherFormatError(f"reserved kex flags set: {flags:#x}")
    if body_len > KEX_MAX_BODY:
        raise CipherFormatError(
            f"kex body length {body_len} exceeds {KEX_MAX_BODY}"
        )
    total = KEX_PREFIX_SIZE + body_len + _CRC_SIZE
    if len(blob) != total:
        raise CipherFormatError(
            f"kex frame length {len(blob)} != advertised {total}"
        )
    crc = int.from_bytes(blob[-_CRC_SIZE:], "little")
    actual = crc16_ccitt(blob[:-_CRC_SIZE])
    if actual != crc:
        raise CipherFormatError(
            f"kex CRC mismatch: frame {crc:#06x}, computed {actual:#06x}"
        )
    if msg_type not in (MSG_CLIENT_HELLO, MSG_SERVER_HELLO, MSG_FINISHED):
        raise CipherFormatError(f"unknown kex message type {msg_type}")
    return KexRecord(msg_type, mode,
                     blob[KEX_PREFIX_SIZE:KEX_PREFIX_SIZE + body_len], blob)


def kex_frame_size(blob: bytes) -> int | None:
    """Total frame size advertised by a (possibly partial) prefix.

    Returns ``None`` while fewer than :data:`KEX_PREFIX_SIZE` bytes are
    in hand; raises :class:`CipherFormatError` for an oversized body so
    a stream decoder can reject before buffering.  Used by
    :class:`repro.net.framing.FrameDecoder`.
    """
    if len(blob) < KEX_PREFIX_SIZE:
        return None
    body_len = int.from_bytes(blob[8:10], "little")
    if body_len > KEX_MAX_BODY:
        raise CipherFormatError(
            f"kex body length {body_len} exceeds {KEX_MAX_BODY}"
        )
    return KEX_PREFIX_SIZE + body_len + _CRC_SIZE


@dataclass(frozen=True)
class ClientHello:
    """Hello-v2 opening message: the client's contribution."""

    offers: int  # OFFER_* bitmask
    width: int
    n_pairs: int
    public: bytes
    random: bytes
    tenant_id: bytes
    ticket: bytes  # empty when no resumption is offered

    def pack(self) -> bytes:
        """Serialise to one complete kex wire frame."""
        body = _CLIENT_HEAD.pack(self.width, self.n_pairs, self.public,
                                 self.random, self.tenant_id,
                                 len(self.ticket)) + self.ticket
        return pack_record(MSG_CLIENT_HELLO, self.offers, body)

    @classmethod
    def unpack(cls, record: KexRecord) -> "ClientHello":
        """Parse from a validated record; raises :class:`KexError`."""
        if record.msg_type != MSG_CLIENT_HELLO:
            raise KexError(f"expected ClientHello, got type {record.msg_type}")
        body = record.body
        if len(body) < _CLIENT_HEAD.size:
            raise KexError(f"ClientHello body too short: {len(body)}")
        (width, n_pairs, public, random_, tenant_id,
         ticket_len) = _CLIENT_HEAD.unpack_from(body)
        ticket = body[_CLIENT_HEAD.size:]
        if len(ticket) != ticket_len:
            raise KexError(
                f"ClientHello ticket length {len(ticket)} != "
                f"advertised {ticket_len}"
            )
        return cls(record.mode, width, n_pairs, public, random_,
                   tenant_id, ticket)


@dataclass(frozen=True)
class ServerHello:
    """Hello-v2 reply: mode selection, server share, fresh ticket."""

    mode: int  # MODE_ECDH or MODE_RESUME
    public: bytes  # all zeros in resume mode (no ECDH share)
    random: bytes
    ticket: bytes  # newly issued resumption ticket (may be empty)
    confirm: bytes  # HMAC over the transcript; all zeros while deriving

    def pack(self) -> bytes:
        """Serialise to one complete kex wire frame."""
        body = (_SERVER_HEAD.pack(self.public, self.random, len(self.ticket))
                + self.ticket + self.confirm)
        return pack_record(MSG_SERVER_HELLO, self.mode, body)

    @classmethod
    def unpack(cls, record: KexRecord) -> "ServerHello":
        """Parse from a validated record; raises :class:`KexError`."""
        if record.msg_type != MSG_SERVER_HELLO:
            raise KexError(f"expected ServerHello, got type {record.msg_type}")
        body = record.body
        if len(body) < _SERVER_HEAD.size + _CONFIRM_SIZE:
            raise KexError(f"ServerHello body too short: {len(body)}")
        public, random_, ticket_len = _SERVER_HEAD.unpack_from(body)
        ticket = body[_SERVER_HEAD.size:-_CONFIRM_SIZE]
        if len(ticket) != ticket_len:
            raise KexError(
                f"ServerHello ticket length {len(ticket)} != "
                f"advertised {ticket_len}"
            )
        return cls(record.mode, public, random_, ticket,
                   body[-_CONFIRM_SIZE:])

    def with_confirm(self, confirm: bytes) -> "ServerHello":
        """A copy with the confirmation MAC filled in (or zeroed)."""
        return ServerHello(self.mode, self.public, self.random,
                           self.ticket, confirm)


@dataclass(frozen=True)
class Finished:
    """The client's closing confirmation MAC."""

    mode: int
    confirm: bytes

    def pack(self) -> bytes:
        """Serialise to one complete kex wire frame."""
        return pack_record(MSG_FINISHED, self.mode, self.confirm)

    @classmethod
    def unpack(cls, record: KexRecord) -> "Finished":
        """Parse from a validated record; raises :class:`KexError`."""
        if record.msg_type != MSG_FINISHED:
            raise KexError(f"expected Finished, got type {record.msg_type}")
        if len(record.body) != _CONFIRM_SIZE:
            raise KexError(f"Finished body must be {_CONFIRM_SIZE} bytes, "
                           f"got {len(record.body)}")
        return cls(record.mode, record.body)
