"""Plain HHEA — the unscrambled baseline ([SHAAR03], [SAEB04a]).

The original Hybrid Hiding Encryption Algorithm embeds message bits at the
*raw* key locations: the window is simply the sorted key pair and the bits
go in unmodified.  The paper's section II motivates MHHEA by two
weaknesses of this baseline, both of which this module exists to exhibit:

* with a constant chosen plaintext (e.g. all zeros) the embedded window is
  visible against the random vector, leaking the key locations
  (demonstrated in :mod:`repro.security.chosen_plaintext`);
* the serial FPGA implementation's cycle count depends on the window
  width, leaking key information through throughput (demonstrated in
  :mod:`repro.security.timing_attack` against
  :mod:`repro.rtl.serial_model`).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core import engine as _engine
from repro.core import engines as _engines
from repro.core.cipher import HidingCipher
from repro.core.key import Key, KeyPair
from repro.core.params import PAPER_PARAMS, VectorParams
from repro.core.trace import TraceRecorder

__all__ = ["encrypt_bits", "decrypt_bits", "HheaCipher"]


def _window_policy(pair: KeyPair, vector: int, params: VectorParams) -> tuple[int, int]:
    """HHEA location policy: the sorted pair itself, no scrambling."""
    sorted_pair = pair.sorted()
    return sorted_pair.k1, sorted_pair.k2


def _data_bit_policy(pair: KeyPair, q: int) -> int:
    """HHEA data policy: message bits are embedded unmodified."""
    return 0


def encrypt_bits(
    bits: Sequence[int],
    key: Key,
    source: _engine.VectorSource,
    params: VectorParams = PAPER_PARAMS,
    trace: TraceRecorder | None = None,
    frame_bits: int | None = None,
) -> list[int]:
    """Embed a message bit stream at the raw key locations.

    The golden model, as :func:`repro.core.mhhea.encrypt_bits` is for
    MHHEA; byte strings go through :class:`HheaCipher`.
    """
    return _engine.embed_stream(
        bits, key, source, _window_policy, _data_bit_policy, params,
        trace, frame_bits,
    )


def decrypt_bits(
    vectors: Sequence[int],
    key: Key,
    n_bits: int,
    params: VectorParams = PAPER_PARAMS,
    trace: TraceRecorder | None = None,
    strict: bool = True,
    frame_bits: int | None = None,
) -> list[int]:
    """Extract ``n_bits`` message bits from the raw key locations."""
    return _engine.extract_stream(
        vectors, key, n_bits, _window_policy, _data_bit_policy, params,
        trace, strict, frame_bits,
    )


class HheaCipher(HidingCipher):
    """Bytes-level HHEA encryptor/decryptor (baseline for comparisons)."""

    algorithm = _engines.HHEA
    _window_policy = staticmethod(_window_policy)
    _data_bit_policy = staticmethod(_data_bit_policy)
