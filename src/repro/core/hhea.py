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
from dataclasses import dataclass

from repro.core import engine as _engine
from repro.core import engines as _engines
from repro.core.key import Key, KeyPair
from repro.core.params import PAPER_PARAMS, VectorParams
from repro.core.trace import TraceRecorder
from repro.util.bits import bits_to_bytes, bytes_to_bits
from repro.util.lfsr import Lfsr

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
    engine: "str | _engines.Engine | None" = None,
) -> list[int]:
    """Embed a message bit stream at the raw key locations.

    ``engine`` selects the implementation through the registry
    (``None`` for its default); output is bit-identical and trace
    recording always falls back to the reference implementation.
    """
    backend = _engines.get_engine(engine)
    if trace is not None:
        # Trace recording is reference-only: the per-bit stream engine is
        # the one implementation whose intermediate state matches the
        # paper's pseudocode step for step.
        return _engine.embed_stream(
            bits, key, source, _window_policy, _data_bit_policy, params,
            trace, frame_bits=frame_bits,
        )
    return backend.embed_bits(key, _engines.HHEA, params, bits, source,
                              frame_bits)


def decrypt_bits(
    vectors: Sequence[int],
    key: Key,
    n_bits: int,
    params: VectorParams = PAPER_PARAMS,
    trace: TraceRecorder | None = None,
    strict: bool = True,
    frame_bits: int | None = None,
    engine: "str | _engines.Engine | None" = None,
) -> list[int]:
    """Extract ``n_bits`` message bits from the raw key locations."""
    backend = _engines.get_engine(engine)
    if trace is not None:
        # Reference-only trace path, mirroring encrypt_bits.
        return _engine.extract_stream(
            vectors, key, n_bits, _window_policy, _data_bit_policy, params,
            trace, strict, frame_bits,
        )
    return backend.extract_bits(key, _engines.HHEA, params, vectors, n_bits,
                                strict, frame_bits)


@dataclass(frozen=True)
class _Message:
    vectors: tuple[int, ...]
    n_bits: int
    width: int


class HheaCipher:
    """Bytes-level HHEA encryptor/decryptor (baseline for comparisons)."""

    def __init__(self, key: Key, params: VectorParams = PAPER_PARAMS,
                 engine: "str | _engines.Engine | None" = None):
        if key.params != params:
            raise ValueError(
                f"key was built for {key.params} but cipher uses {params}"
            )
        self.key = key
        self.params = params
        #: Resolved engine backend (registry lookup happens here, once).
        self.backend = _engines.get_engine(engine)
        self.engine = self.backend.name

    def encrypt(
        self,
        plaintext: bytes,
        seed: int = 0xACE1,
        source: _engine.VectorSource | None = None,
        trace: TraceRecorder | None = None,
    ) -> _Message:
        """Encrypt bytes with a seeded LFSR hiding-vector source."""
        if source is None:
            source = Lfsr(self.params.width, seed=seed)
        if trace is None:
            # Engine-native bytes path (the fast engine never builds a
            # per-bit list here).
            vectors = self.backend.embed_bytes(self.key, _engines.HHEA,
                                               self.params, plaintext, source)
            return _Message(tuple(vectors), len(plaintext) * 8,
                            self.params.width)
        bits = bytes_to_bits(plaintext)
        vectors = encrypt_bits(bits, self.key, source, self.params, trace)
        return _Message(tuple(vectors), len(bits), self.params.width)

    def decrypt(self, message: _Message, trace: TraceRecorder | None = None) -> bytes:
        """Recover the plaintext bytes."""
        if message.width != self.params.width:
            raise ValueError(
                f"ciphertext uses {message.width}-bit vectors, "
                f"cipher is configured for {self.params.width}"
            )
        if trace is None:
            return self.backend.extract_bytes(self.key, _engines.HHEA,
                                              self.params, message.vectors,
                                              message.n_bits)
        bits = decrypt_bits(
            message.vectors, self.key, message.n_bits, self.params, trace,
        )
        return bits_to_bytes(bits)
