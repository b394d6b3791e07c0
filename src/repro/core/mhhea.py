"""The Modified Hybrid Hiding Encryption Algorithm — reference model.

This is the paper's primary contribution (section II pseudocode), pinned
to the semantics established by the Fig. 8 worked example; see DESIGN.md
section 2 for the derivation.  Relative to plain HHEA, MHHEA adds two
scrambling steps that defeat the constant chosen-plaintext attack:

* **location scrambling** — the replacement window is displaced by bits
  of the hiding vector itself (:func:`repro.core.key.scramble_pair`);
* **data scrambling** — each embedded bit is XORed with a cycling bit of
  the smaller key half (``V[j] = M[m] XOR K1[q]``, ``q = 0,1,2,0,...``).

The functional API (:func:`encrypt_bits` / :func:`decrypt_bits`) is the
per-bit golden model on bit streams, and is what the RTL equivalence
tests target; the :class:`MhheaCipher` class is the bytes interface,
runs any registered engine and manages the hiding-vector source.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core import engine as _engine
from repro.core import engines as _engines
from repro.core.cipher import EncryptedMessage, HidingCipher
from repro.core.key import Key, KeyPair, scramble_pair
from repro.core.params import PAPER_PARAMS, VectorParams
from repro.core.trace import TraceRecorder

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
) -> list[int]:
    """Encrypt a message bit stream into a list of hiding vectors.

    This is the golden model: the per-bit reference engine, step for
    step the paper's pseudocode.  ``source`` supplies one fresh
    ``params.width``-bit vector per key pair — an
    :class:`repro.util.lfsr.Lfsr` for encryption proper, or a cover
    adapter for steganography.  ``frame_bits=16`` reproduces the
    micro-architecture's half-buffer framing bit-for-bit; ``None`` is the
    paper's flat pseudocode.  Byte strings go through
    :class:`MhheaCipher` or the packet codec, which run any registered
    engine.
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
    """Recover ``n_bits`` message bits from ciphertext vectors.

    No random source is needed: the scramble half of every vector
    survives embedding intact, so the receiver recomputes each window
    exactly as the sender did.  ``frame_bits`` must match encryption.
    """
    return _engine.extract_stream(
        vectors, key, n_bits, _window_policy, _data_bit_policy, params,
        trace, strict, frame_bits,
    )


class MhheaCipher(HidingCipher):
    """Bytes-level MHHEA encryptor/decryptor.

    Example
    -------
    >>> from repro.core.key import Key
    >>> cipher = MhheaCipher(Key.generate(seed=7))
    >>> ct = cipher.encrypt(b"attack at dawn", seed=0xACE1)
    >>> cipher.decrypt(ct)
    b'attack at dawn'
    """

    algorithm = _engines.MHHEA
    _window_policy = staticmethod(_window_policy)
    _data_bit_policy = staticmethod(_data_bit_policy)
