"""The Modified Hybrid Hiding Encryption Algorithm — reference model.

This is the paper's primary contribution (section II pseudocode), pinned
to the semantics established by the Fig. 8 worked example; see DESIGN.md
section 2 for the derivation.  Relative to plain HHEA, MHHEA adds two
scrambling steps that defeat the constant chosen-plaintext attack:

* **location scrambling** — the replacement window is displaced by bits
  of the hiding vector itself (:func:`repro.core.key.scramble_pair`);
* **data scrambling** — each embedded bit is XORed with a cycling bit of
  the smaller key half (``V[j] = M[m] XOR K1[q]``, ``q = 0,1,2,0,...``).

The functional API (:func:`encrypt_bits` / :func:`decrypt_bits`) works on
bit streams and is what the RTL equivalence tests target; the
:class:`MhheaCipher` class wraps it with a bytes interface and manages
the hiding-vector source.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core import engine as _engine
from repro.core import engines as _engines
from repro.core.key import Key, KeyPair, scramble_pair
from repro.core.params import PAPER_PARAMS, VectorParams
from repro.core.trace import TraceRecorder
from repro.util.bits import bits_to_bytes, bytes_to_bits
from repro.util.lfsr import Lfsr

__all__ = ["encrypt_bits", "decrypt_bits", "MhheaCipher", "EncryptedMessage"]


def _window_policy(pair: KeyPair, vector: int, params: VectorParams) -> tuple[int, int]:
    """MHHEA location policy: the full scramble of section II."""
    return scramble_pair(pair, vector, params)


def _data_bit_policy(pair: KeyPair, q: int) -> int:
    """MHHEA data policy: bit ``q`` of the sorted smaller key half."""
    return (pair.k1 >> q) & 1


def encrypt_bits(
    bits: Sequence[int],
    key: Key,
    source: _engine.VectorSource,
    params: VectorParams = PAPER_PARAMS,
    trace: TraceRecorder | None = None,
    frame_bits: int | None = None,
    engine: "str | _engines.Engine | None" = None,
) -> list[int]:
    """Encrypt a message bit stream into a list of hiding vectors.

    ``source`` supplies one fresh ``params.width``-bit vector per key
    pair — an :class:`repro.util.lfsr.Lfsr` for encryption proper, or a
    cover adapter for steganography.  ``frame_bits=16`` reproduces the
    micro-architecture's half-buffer framing bit-for-bit; ``None`` is the
    paper's flat pseudocode.  ``engine`` selects the implementation
    through the registry (``None`` for its default) — bit-identical
    output, differentially tested; trace recording always uses the
    reference.
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
    return backend.embed_bits(key, _engines.MHHEA, params, bits, source,
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
    """Recover ``n_bits`` message bits from ciphertext vectors.

    No random source is needed: the scramble half of every vector
    survives embedding intact, so the receiver recomputes each window
    exactly as the sender did.  ``frame_bits`` must match encryption;
    ``engine`` selects the implementation as in :func:`encrypt_bits`.
    """
    backend = _engines.get_engine(engine)
    if trace is not None:
        # Reference-only trace path, mirroring encrypt_bits.
        return _engine.extract_stream(
            vectors, key, n_bits, _window_policy, _data_bit_policy, params,
            trace, strict, frame_bits,
        )
    return backend.extract_bits(key, _engines.MHHEA, params, vectors, n_bits,
                                strict, frame_bits)


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


class MhheaCipher:
    """Bytes-level MHHEA encryptor/decryptor.

    Example
    -------
    >>> from repro.core.key import Key
    >>> cipher = MhheaCipher(Key.generate(seed=7))
    >>> ct = cipher.encrypt(b"attack at dawn", seed=0xACE1)
    >>> cipher.decrypt(ct)
    b'attack at dawn'
    """

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
            # Engine-native bytes path (the fast engine never builds a
            # per-bit list here).
            vectors = self.backend.embed_bytes(self.key, _engines.MHHEA,
                                               self.params, plaintext, source)
            return EncryptedMessage(tuple(vectors), len(plaintext) * 8,
                                    self.params.width)
        bits = bytes_to_bits(plaintext)
        vectors = encrypt_bits(bits, self.key, source, self.params, trace)
        return EncryptedMessage(tuple(vectors), len(bits), self.params.width)

    def decrypt(self, message: EncryptedMessage,
                trace: TraceRecorder | None = None) -> bytes:
        """Recover the plaintext bytes from an :class:`EncryptedMessage`."""
        if message.width != self.params.width:
            raise ValueError(
                f"ciphertext uses {message.width}-bit vectors, "
                f"cipher is configured for {self.params.width}"
            )
        if trace is None:
            return self.backend.extract_bytes(self.key, _engines.MHHEA,
                                              self.params, message.vectors,
                                              message.n_bits)
        bits = decrypt_bits(
            message.vectors, self.key, message.n_bits, self.params, trace,
        )
        return bits_to_bytes(bits)
