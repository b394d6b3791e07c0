"""Low-level substrates shared by every other package.

``repro.util.bits``
    Bit-exact integer helpers (rotations, slices, (de)serialisation) with
    the paper's bit-numbering convention: *location zero is the least
    significant bit*.

``repro.util.lfsr``
    Software linear feedback shift registers used both as the reference
    hiding-vector generator and as the golden model for the RTL LFSR.

``repro.util.crc``
    The packet container's CRC-16/CCITT-FALSE and its bit-serial golden
    model.

``repro.util.rng``
    Deterministic pseudo-random helpers for workloads and tests.
"""

__all__ = []
