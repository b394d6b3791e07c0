"""Packet container for (M)HHEA ciphertext.

The paper positions the micro-architecture for "packet-level encryption"
on high-speed links (section VI).  This module defines the wire format a
software peer of that hardware would speak: a fixed 22-byte header
followed by the hiding vectors, little-endian, with a CRC-16 over the
header and payload.  The header carries exactly the non-secret metadata
decryption needs — algorithm, vector width, message bit count — plus the
RNG nonce for auditability.

Wire layout (all multi-byte fields little-endian)::

    offset  size  field
    0       4     magic  b"MHEA"
    4       1     version (currently 2)
    5       1     algorithm: 1 = MHHEA, 0 = plain HHEA
    6       1     vector width in bits
    7       1     flags (reserved, must be zero)
    8       4     nonce (LFSR seed used by the sender)
    12      4     message length in bits
    16      4     vector count
    20      2     CRC-16/CCITT-FALSE of header (with this field zeroed)
                  plus payload
    22      ...   payload: vector_count * width/8 bytes

Version 2 extended the CRC from payload-only to header-plus-payload:
the secure link (repro.net) derives replay-window state from the nonce
field, so header corruption must be as detectable as payload corruption
(DESIGN.md section 5).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from repro.core import engines as _engines
from repro.core.errors import CipherFormatError
from repro.core.key import Key
from repro.core.params import VectorParams
from repro.obs import core as _obs
from repro.util.bits import mask
from repro.util.crc import crc16_ccitt
from repro.util.lfsr import Lfsr

__all__ = [
    "MAGIC",
    "VERSION",
    "ALGORITHM_HHEA",
    "ALGORITHM_MHHEA",
    "NONCE_MAX",
    "PacketHeader",
    "validate_nonce",
    "verify_packet",
    "encrypt_packet",
    "decrypt_packet",
    "split_packets",
]

MAGIC = b"MHEA"
VERSION = 2
ALGORITHM_HHEA = 0
ALGORITHM_MHHEA = 1

_HEADER = struct.Struct("<4sBBBBIIIH")
HEADER_SIZE = _HEADER.size

#: Largest nonce the 32-bit header field can carry.
NONCE_MAX = 0xFFFFFFFF


def _algorithm_name(algorithm: int) -> str:
    """Map a wire algorithm id onto the registry's algorithm name."""
    return _engines.MHHEA if algorithm == ALGORITHM_MHHEA else _engines.HHEA


def validate_nonce(nonce: int, width: int) -> int:
    """Check that ``nonce`` is usable for a ``width``-bit hiding vector.

    The full nonce discipline lives in DESIGN.md section 4; the wire-level
    rules enforced here are:

    * it must be a positive integer that fits the 32-bit header field
      (values are rejected rather than silently truncated), and
    * its low ``width`` bits must not all be zero — the LFSR seed is the
      nonce reduced modulo ``2**width``, and the all-zero state would
      freeze the generator.

    Returns the nonce unchanged so callers can validate inline.  Raises
    :class:`CipherFormatError` (not a bare :class:`ValueError` from deep
    inside the LFSR) so link code can handle it uniformly.
    """
    if not isinstance(nonce, int) or isinstance(nonce, bool):
        raise CipherFormatError(
            f"nonce must be an int, got {type(nonce).__name__}"
        )
    if not 0 < nonce <= NONCE_MAX:
        raise CipherFormatError(
            f"nonce {nonce:#x} does not fit the 32-bit header field "
            f"(must be 1..{NONCE_MAX:#x})"
        )
    if nonce & mask(width) == 0:
        raise CipherFormatError(
            f"nonce {nonce:#x} reduces to zero modulo 2**{width} and would "
            f"seed the {width}-bit LFSR with its frozen all-zero state"
        )
    return nonce


@dataclass(frozen=True)
class PacketHeader:
    """Decoded header of one ciphertext packet."""

    algorithm: int
    width: int
    nonce: int
    n_bits: int
    n_vectors: int
    crc: int

    @property
    def payload_size(self) -> int:
        """Payload length in bytes implied by the header."""
        return self.n_vectors * (self.width // 8)

    def pack(self) -> bytes:
        """Serialise to the 22-byte wire header."""
        return _HEADER.pack(
            MAGIC, VERSION, self.algorithm, self.width, 0,
            self.nonce, self.n_bits, self.n_vectors, self.crc,
        )

    @classmethod
    def unpack(cls, blob: bytes) -> "PacketHeader":
        """Parse and validate the wire header."""
        if len(blob) < HEADER_SIZE:
            raise CipherFormatError(
                f"packet too short for header: {len(blob)} < {HEADER_SIZE}"
            )
        magic, version, algorithm, width, flags, nonce, n_bits, n_vectors, crc = (
            _HEADER.unpack_from(blob)
        )
        if magic != MAGIC:
            raise CipherFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise CipherFormatError(f"unsupported version {version}")
        if algorithm not in (ALGORITHM_HHEA, ALGORITHM_MHHEA):
            raise CipherFormatError(f"unknown algorithm id {algorithm}")
        if flags != 0:
            raise CipherFormatError(f"reserved flags set: {flags:#x}")
        if width == 0 or width % 8 != 0:
            raise CipherFormatError(f"vector width {width} is not a whole byte count")
        return cls(algorithm, width, nonce, n_bits, n_vectors, crc)


def _packet_crc(header: PacketHeader, payload: bytes) -> int:
    """CRC-16 over the whole packet with the CRC field itself zeroed.

    Covering the header (not just the payload) matters to the link
    layer: the receive side derives its replay window from the nonce
    field, so a flipped nonce bit must fail the checksum instead of
    silently shifting the window (DESIGN.md section 5).

    The CRC is chained (header first, then payload continued from the
    header's register state) rather than computed over a concatenation:
    ``payload`` may be a zero-copy :class:`memoryview` from the framing
    layer, and ``bytes + memoryview`` would both copy and ``TypeError``.
    """
    return crc16_ccitt(payload, init=crc16_ccitt(replace(header, crc=0).pack()))


#: Vector sizes with a native struct format (covers every power-of-two
#: width up to 64); other byte-multiple widths fall back to the loop.
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _vectors_to_payload(vectors: tuple[int, ...] | list[int], width: int) -> bytes:
    step = width // 8
    code = _STRUCT_CODES.get(step)
    if code is not None:
        return struct.pack(f"<{len(vectors)}{code}", *vectors)
    out = bytearray()
    for vector in vectors:
        out += vector.to_bytes(step, "little")
    return bytes(out)


def _payload_to_vectors(payload: bytes, width: int) -> list[int]:
    step = width // 8
    if len(payload) % step != 0:
        raise CipherFormatError(
            f"payload length {len(payload)} not a multiple of vector size {step}"
        )
    code = _STRUCT_CODES.get(step)
    if code is not None:
        return list(struct.unpack(f"<{len(payload) // step}{code}", payload))
    return [
        int.from_bytes(payload[i : i + step], "little")
        for i in range(0, len(payload), step)
    ]


def encrypt_packet(
    plaintext: bytes,
    key: Key,
    nonce: int = 0xACE1,
    algorithm: int = ALGORITHM_MHHEA,
    engine: "str | _engines.Engine | None" = None,
) -> bytes:
    """Encrypt ``plaintext`` into one self-describing packet.

    ``nonce`` seeds the hiding-vector LFSR; it must satisfy
    :func:`validate_nonce` and must never repeat between packets encrypted
    under the same key — vector reuse degrades the hiding exactly as IV
    reuse does for a stream cipher.  DESIGN.md section 4 specifies the
    discipline once; :class:`repro.net.session.Session` automates it for
    link traffic.

    ``engine`` selects the implementation through the registry
    (:func:`repro.core.engines.get_engine`): a registered name, an
    :class:`~repro.core.engines.Engine` instance, or ``None`` for the
    registry default.  Every engine emits byte-identical wire packets,
    so mixed-engine links interoperate freely.
    """
    backend = _engines.get_engine(engine)
    registry = _obs.get_registry()
    start = registry.clock() if registry.enabled else 0.0
    params = key.params
    if params.width % 8 != 0:
        raise CipherFormatError(
            f"packet format requires byte-multiple vector widths, got {params.width}"
        )
    if algorithm not in (ALGORITHM_HHEA, ALGORITHM_MHHEA):
        raise CipherFormatError(f"unknown algorithm id {algorithm}")
    validate_nonce(nonce, params.width)
    source = Lfsr(params.width, seed=nonce)
    n_bits = len(plaintext) * 8
    vectors = backend.embed_bytes(key, _algorithm_name(algorithm), params,
                                  plaintext, source)
    payload = _vectors_to_payload(vectors, params.width)
    header = PacketHeader(
        algorithm=algorithm,
        width=params.width,
        nonce=nonce,
        n_bits=n_bits,
        n_vectors=len(vectors),
        crc=0,
    )
    header = replace(header, crc=_packet_crc(header, payload))
    packet = header.pack() + payload
    if registry.enabled:
        registry.counter("repro_engine_ops_total",
                         engine=backend.name, op="encrypt").inc()
        registry.histogram("repro_engine_op_seconds",
                           engine=backend.name,
                           op="encrypt").observe(registry.clock() - start)
    return packet


def verify_packet(packet: bytes) -> PacketHeader:
    """Structurally validate one packet without decrypting it.

    Parses the header, checks the payload-length bookkeeping and the
    CRC-16 over header plus payload; returns the parsed header.  This is
    the integrity half of :func:`decrypt_packet`, split out so the
    framing layer (``FrameDecoder(verify_crc=True)``) can refuse to emit
    a damaged frame without holding any key material.

    ``packet`` may be any bytes-like object; the zero-copy receive path
    hands in memoryviews and nothing here materialises them.
    """
    header = PacketHeader.unpack(packet)
    _verify_parsed(packet, header)
    return header


def _verify_parsed(packet: bytes, header: PacketHeader) -> None:
    """The integrity half of :func:`verify_packet` after header parsing.

    Split out so the batched session decrypt path — which already parsed
    the header for replay-window admission — does not parse it twice.
    """
    if header.n_bits % 8 != 0:
        # encrypt_packet only ever writes whole bytes; catching the
        # violation here keeps decrypt_packet's error contract uniform
        # (CipherFormatError) and skips the doomed extraction entirely.
        raise CipherFormatError(
            f"header n_bits {header.n_bits} is not a whole byte count"
        )
    payload = packet[HEADER_SIZE : HEADER_SIZE + header.payload_size]
    if len(payload) != header.payload_size:
        raise CipherFormatError(
            f"truncated payload: have {len(payload)}, header says {header.payload_size}"
        )
    if len(packet) > HEADER_SIZE + header.payload_size:
        raise CipherFormatError("trailing bytes after payload")
    actual_crc = _packet_crc(header, payload)
    if actual_crc != header.crc:
        raise CipherFormatError(
            f"packet CRC mismatch: header {header.crc:#06x}, computed {actual_crc:#06x}"
        )


def _extract_verified(packet: bytes, header: PacketHeader, key: Key,
                      backend: "_engines.Engine") -> bytes:
    """Extraction half of :func:`decrypt_packet`, after verification.

    Shared by the single-packet path and the session batch path; the
    caller guarantees ``header`` came from ``packet`` and the packet
    passed :func:`verify_packet`'s checks.
    """
    params = key.params
    if header.width != params.width:
        raise CipherFormatError(
            f"packet uses {header.width}-bit vectors but key is for {params.width}"
        )
    payload = packet[HEADER_SIZE : HEADER_SIZE + header.payload_size]
    vectors = _payload_to_vectors(payload, header.width)
    return backend.extract_bytes(key, _algorithm_name(header.algorithm),
                                 params, vectors, header.n_bits)


def decrypt_packet(packet: bytes, key: Key,
                   engine: "str | _engines.Engine | None" = None) -> bytes:
    """Decrypt one packet produced by :func:`encrypt_packet`.

    Raises :class:`CipherFormatError` on any structural damage: bad magic,
    truncation, CRC mismatch, or a width that disagrees with the key's
    parameter set.  ``engine`` selects the implementation exactly as for
    :func:`encrypt_packet`; any engine decrypts any engine's output.
    """
    backend = _engines.get_engine(engine)
    registry = _obs.get_registry()
    start = registry.clock() if registry.enabled else 0.0
    header = verify_packet(packet)
    plaintext = _extract_verified(packet, header, key, backend)
    if registry.enabled:
        registry.counter("repro_engine_ops_total",
                         engine=backend.name, op="decrypt").inc()
        registry.histogram("repro_engine_op_seconds",
                           engine=backend.name,
                           op="decrypt").observe(registry.clock() - start)
    return plaintext


def split_packets(stream: bytes) -> list[bytes]:
    """Split a byte stream of back-to-back packets into individual packets.

    This is what a receiver does on a framed link: parse each header,
    consume the advertised payload, repeat.  Raises
    :class:`CipherFormatError` if the stream ends mid-packet.
    """
    packets: list[bytes] = []
    offset = 0
    while offset < len(stream):
        header = PacketHeader.unpack(stream[offset:])
        end = offset + HEADER_SIZE + header.payload_size
        if end > len(stream):
            raise CipherFormatError(
                f"stream ends mid-packet at offset {offset} (need {end - len(stream)} more bytes)"
            )
        packets.append(stream[offset:end])
        offset = end
    return packets
