"""Low-level substrates shared by every other package.

``repro.util.bits``
    Bit-exact integer helpers (rotations, slices, (de)serialisation) with
    the paper's bit-numbering convention: *location zero is the least
    significant bit*.

``repro.util.lfsr``
    Software linear feedback shift registers used both as the reference
    hiding-vector generator and as the golden model for the RTL LFSR.

``repro.util.rng``
    Deterministic pseudo-random helpers for workloads and tests.
"""

from repro.util.bits import (
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    extract_field,
    insert_field,
    int_to_bits,
    mask,
    parity,
    popcount,
    rotl,
    rotr,
)
from repro.util.lfsr import Lfsr, PRIMITIVE_TAPS, max_period

__all__ = [
    "bits_to_bytes",
    "bits_to_int",
    "bytes_to_bits",
    "extract_field",
    "insert_field",
    "int_to_bits",
    "mask",
    "parity",
    "popcount",
    "rotl",
    "rotr",
    "Lfsr",
    "PRIMITIVE_TAPS",
    "max_period",
]
