"""Cover-data steganography.

Instead of LFSR noise, the hiding vectors come from *cover data* — any
byte stream (audio samples, bitmap rows, ...).  The embedder overwrites
only the key-selected window bits of each vector, so the cover survives
with bounded distortion and the receiver extracts the message from the
stego object with the key alone (the scramble half of every vector is
untouched by construction, exactly as in encryption mode).

Capacity accounting is conservative: each ``width``-bit cover word
carries at least one and at most ``width//2`` message bits depending on
the key and the cover's own scramble bits, so
:func:`cover_capacity_bits` reports the guaranteed floor and
:func:`embed_in_cover` raises :class:`CoverExhaustedError` if the actual
run exceeds the cover.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import CoverExhaustedError
from repro.core.key import Key
from repro.core.mhhea import EncryptedMessage, MhheaCipher
from repro.core.params import PAPER_PARAMS, VectorParams
from repro.core.stream import _payload_to_vectors, _vectors_to_payload
from repro.core.trace import TraceRecorder
from repro.util.bits import hamming_distance

__all__ = [
    "CoverVectorSource",
    "StegoObject",
    "cover_capacity_bits",
    "embed_in_cover",
    "extract_from_cover",
    "mean_distortion",
]


class CoverVectorSource:
    """Adapts a byte string into a sequence of ``width``-bit vectors."""

    def __init__(self, cover: bytes, width: int = 16):
        if width % 8 != 0 or width == 0:
            raise ValueError(
                f"cover vector width must be a whole number of bytes, got {width}"
            )
        if not cover:
            raise CoverExhaustedError("cover data is empty")
        self.width = width
        self._bytes_per_word = width // 8
        self._cover = cover
        self._pos = 0

    def words_available(self) -> int:
        """How many more vectors the remaining cover can supply."""
        return (len(self._cover) - self._pos) // self._bytes_per_word

    def words_consumed(self) -> int:
        """How many vectors have been drawn so far."""
        return self._pos // self._bytes_per_word

    def next_word(self) -> int:
        """Consume the next ``width`` bits of cover, little-endian."""
        end = self._pos + self._bytes_per_word
        if end > len(self._cover):
            raise CoverExhaustedError(
                f"cover exhausted after {self.words_consumed()} vectors"
            )
        word = int.from_bytes(self._cover[self._pos : end], "little")
        self._pos = end
        return word


@dataclass(frozen=True)
class StegoObject:
    """A cover with a message embedded in it."""

    data: bytes
    """The stego bytes: modified cover followed by the untouched tail."""

    n_bits: int
    """Message length in bits (needed for extraction)."""

    n_vectors: int
    """How many cover words were used for embedding."""

    width: int


def cover_capacity_bits(cover: bytes, key: Key,
                        params: VectorParams = PAPER_PARAMS) -> int:
    """Guaranteed embeddable bits: one per cover word (worst case).

    The true capacity depends on the scrambled windows, which depend on
    the cover content itself; one bit per vector is the hard floor
    (``KN1 == KN2`` windows), so a message within this bound always fits.
    """
    words = len(cover) // (params.width // 8)
    del key  # capacity floor is key-independent; kept for API symmetry
    return words


def embed_in_cover(message: bytes, cover: bytes, key: Key,
                   params: VectorParams = PAPER_PARAMS,
                   trace: TraceRecorder | None = None) -> StegoObject:
    """Hide ``message`` inside ``cover`` under ``key``.

    Returns the stego object; raises :class:`CoverExhaustedError` when
    the cover runs out of words before the message is fully embedded.
    """
    source = CoverVectorSource(cover, params.width)
    ciphertext = MhheaCipher(key, params).encrypt(message, source=source,
                                                  trace=trace)
    vectors = ciphertext.vectors
    used = len(vectors) * (params.width // 8)
    return StegoObject(
        data=_vectors_to_payload(vectors, params.width) + cover[used:],
        n_bits=ciphertext.n_bits, n_vectors=len(vectors), width=params.width,
    )


def extract_from_cover(stego: StegoObject, key: Key,
                       params: VectorParams = PAPER_PARAMS) -> bytes:
    """Recover the message from a stego object with the key alone."""
    if stego.width != params.width:
        raise ValueError(
            f"stego object uses {stego.width}-bit vectors, "
            f"params say {params.width}"
        )
    payload = stego.data[: stego.n_vectors * (params.width // 8)]
    vectors = _payload_to_vectors(payload, params.width)
    return MhheaCipher(key, params).decrypt(
        EncryptedMessage(tuple(vectors), stego.n_bits, params.width))


def mean_distortion(cover: bytes, stego: StegoObject,
                    params: VectorParams = PAPER_PARAMS) -> float:
    """Mean changed bits per *used* cover word (embedding distortion).

    For MHHEA this is bounded by the window width and in practice sits
    near half the mean window (each embedded bit flips its cover bit
    with probability one half) — the quantitative form of the paper's
    "hiding as well as scrambling data".
    """
    step = params.width // 8
    used = stego.n_vectors * step
    if used == 0:
        return 0.0
    changed = 0
    for offset in range(0, used, step):
        a = int.from_bytes(cover[offset : offset + step], "little")
        b = int.from_bytes(stego.data[offset : offset + step], "little")
        changed += hamming_distance(a, b)
    return changed / stego.n_vectors
