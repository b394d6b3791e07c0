"""The bytes-level cipher class shared by MHHEA and plain HHEA.

The two ciphers differ only in their window and data policies (see
:mod:`repro.core.engine`), so their byte interfaces are one class:
:class:`HidingCipher` resolves an engine once, runs the engine's byte
hooks for ordinary encryption, and runs the per-bit reference model when
a trace is requested.  :class:`~repro.core.mhhea.MhheaCipher` and
:class:`~repro.core.hhea.HheaCipher` only name the algorithm and its
policies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import engine as _engine
from repro.core import engines as _engines
from repro.core.key import Key
from repro.core.params import PAPER_PARAMS, VectorParams
from repro.core.trace import TraceRecorder
from repro.util.bits import bits_to_bytes, bytes_to_bits
from repro.util.lfsr import Lfsr

__all__ = ["EncryptedMessage", "HidingCipher"]


@dataclass(frozen=True)
class EncryptedMessage:
    """A self-describing ciphertext: vectors plus the message bit count.

    The bit count is *not secret* (it leaks through ciphertext length in
    any embedding scheme); it is required for decryption because the
    final vector may be only partially filled.
    """

    vectors: tuple[int, ...]
    n_bits: int
    width: int

    def __post_init__(self) -> None:
        if self.n_bits < 0:
            raise ValueError("n_bits must be non-negative")

    @property
    def expansion(self) -> float:
        """Ciphertext-to-plaintext size ratio (the hiding overhead)."""
        if self.n_bits == 0:
            return 0.0
        return len(self.vectors) * self.width / self.n_bits


class HidingCipher:
    """Bytes-level encryptor/decryptor for one cipher of the family.

    ``engine`` selects the implementation through the registry (``None``
    for its default) and is resolved here, once.  A ``trace`` always
    runs the reference model: the per-bit engine is the one
    implementation whose intermediate state matches the paper's
    pseudocode step for step.  Subclasses set :attr:`algorithm` and the
    two reference policies.
    """

    #: Registry algorithm name; set by subclasses.
    algorithm = "?"

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
    ) -> EncryptedMessage:
        """Encrypt bytes; ``seed`` initialises the LFSR hiding-vector RNG.

        ``seed`` plays the role of a nonce: it is not secret, but reusing
        it with the same key reuses the vector sequence.  Pass ``source``
        to override the RNG entirely (steganographic covers).
        """
        if source is None:
            source = Lfsr(self.params.width, seed=seed)
        if trace is None:
            vectors = self.backend.embed_bytes(self.key, self.algorithm,
                                               self.params, plaintext, source)
        else:
            vectors = _engine.embed_stream(
                bytes_to_bits(plaintext), self.key, source,
                self._window_policy, self._data_bit_policy, self.params,
                trace,
            )
        return EncryptedMessage(tuple(vectors), len(plaintext) * 8,
                                self.params.width)

    def decrypt(self, message: EncryptedMessage,
                trace: TraceRecorder | None = None) -> bytes:
        """Recover the plaintext bytes from an :class:`EncryptedMessage`."""
        if message.width != self.params.width:
            raise ValueError(
                f"ciphertext uses {message.width}-bit vectors, "
                f"cipher is configured for {self.params.width}"
            )
        if trace is None:
            return self.backend.extract_bytes(self.key, self.algorithm,
                                              self.params, message.vectors,
                                              message.n_bits)
        return bits_to_bytes(_engine.extract_stream(
            message.vectors, self.key, message.n_bits, self._window_policy,
            self._data_bit_policy, self.params, trace,
        ))
