"""CRC-16/CCITT-FALSE: the production form + a bit-serial golden model.

The packet container (:mod:`repro.core.stream`) protects its payload with
this CRC so corrupted links are detected before extraction garbles the
message silently — the paper pitches the architecture for "packet-level
encryption", and a packet format without an integrity check would be a
toy.

Two implementations live here on purpose, mirroring the engine split of
:mod:`repro.core.engine` / :mod:`repro.core.fastpath`:

* :func:`crc16_ccitt_bitserial` — the bit-serial formulation, one
  polynomial step per message bit: the golden model that
  ``tests/util/test_crc.py`` checks the production form against.
* :func:`crc16_ccitt` — the form every caller uses.  CRC-16/CCITT-FALSE
  is exactly the XMODEM/binhex polynomial run with init ``0xFFFF``, so
  production delegates to :func:`binascii.crc_hqx` (a C loop — the CRC
  covers every wire byte, which made a pure-Python table loop a
  measurable share of the link hot path).

Both accept any bytes-like object (``bytes``, ``bytearray``,
``memoryview``) so the zero-copy framing path can checksum views
without materialising them.
"""

from __future__ import annotations

from binascii import crc_hqx as _crc_hqx

__all__ = ["crc16_ccitt", "crc16_ccitt_bitserial"]

_POLY = 0x1021


def crc16_ccitt_bitserial(data: bytes, init: int = 0xFFFF) -> int:
    """Bit-serial CRC-16/CCITT-FALSE (poly 0x1021, MSB-first, init 0xFFFF)."""
    crc = init & 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ _POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def crc16_ccitt(data: bytes, init: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE of ``data`` (poly 0x1021, MSB-first, init 0xFFFF)."""
    return _crc_hqx(data, init & 0xFFFF)
