"""Differential tests for the sharded pipeline (DESIGN.md section 9).

The contract under test: a sharded blob is a pure function of
``(payload, key, algorithm, base_nonce, chunk_size)`` — worker count and
engine choice never change a byte.  Chunk-boundary sizes (empty, one
byte, one-under/over the chunk size, primes) are pinned explicitly
because they are exactly where an off-by-one in chunking or reassembly
would hide.
"""

from __future__ import annotations

import pytest

from repro.core.errors import CipherFormatError
from repro.core.stream import NONCE_MAX, encrypt_packet, split_packets
from repro.parallel import (
    DEFAULT_BASE_NONCE,
    ParallelCodec,
    chunk_nonces,
    chunk_payload,
)

#: Small chunk size so the boundary cases stay fast.
CHUNK = 1024

#: Chunk-boundary payload sizes: empty, single byte, the boundaries
#: around one and two chunks, and primes that are coprime to everything.
BOUNDARY_SIZES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK,
                  2 * CHUNK + 1, 17, 4099]


def _payload(n: int) -> bytes:
    return bytes(i * 31 % 256 for i in range(n))


class TestChunking:
    def test_empty_payload_is_one_empty_chunk(self):
        assert chunk_payload(b"", 4) == [b""]

    def test_exact_multiple_has_no_empty_tail(self):
        assert chunk_payload(b"abcdef", 3) == [b"abc", b"def"]

    def test_remainder_chunk_is_short(self):
        assert chunk_payload(b"abcde", 3) == [b"abc", b"de"]

    def test_rejects_non_positive_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_payload(b"x", 0)


class TestChunkNonces:
    def test_starts_at_base(self):
        assert chunk_nonces(0xACE1, 3, 16) == [0xACE1, 0xACE2, 0xACE3]

    def test_skips_frozen_lfsr_seeds(self):
        # 0x10000 has all-zero low 16 bits: it would freeze the LFSR.
        assert chunk_nonces(0xFFFF, 3, 16) == [0xFFFF, 0x10001, 0x10002]

    def test_frozen_base_rejected_not_substituted(self):
        # A base nonce encrypt_packet would reject must fail loudly, not
        # be silently replaced by the next valid value.
        with pytest.raises(CipherFormatError):
            chunk_nonces(0x20000, 2, 16)

    def test_rejects_out_of_field_base(self):
        with pytest.raises(CipherFormatError):
            chunk_nonces(0, 1, 16)
        with pytest.raises(CipherFormatError):
            chunk_nonces(NONCE_MAX + 1, 1, 16)

    def test_rejects_field_overrun(self):
        with pytest.raises(CipherFormatError):
            chunk_nonces(NONCE_MAX - 1, 3, 16)

    def test_nonces_strictly_increase(self):
        nonces = chunk_nonces(0xFFF0, 64, 16)
        assert all(b > a for a, b in zip(nonces, nonces[1:]))


class TestByteIdentity:
    """The acceptance property: parallel == inline == per-chunk manual."""

    # Class-scoped so one worker pool serves every parametrised case
    # (conftest's key16 is function-scoped; same seed, equal key).
    @pytest.fixture(scope="class")
    def key16(self):
        from repro.core.key import Key

        return Key.generate(seed=2005, n_pairs=16)

    @pytest.fixture(scope="class")
    def pool_codec(self, key16):
        with ParallelCodec(key16, workers=2, chunk_size=CHUNK) as codec:
            yield codec

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_parallel_matches_inline_fast(self, key16, pool_codec, size):
        payload = _payload(size)
        inline = ParallelCodec(key16, chunk_size=CHUNK)
        assert pool_codec.encrypt_blob(payload) == inline.encrypt_blob(payload)

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_parallel_matches_reference_engine(self, key16, pool_codec, size):
        payload = _payload(size)
        reference = ParallelCodec(key16, chunk_size=CHUNK,
                                  engine="reference")
        assert (pool_codec.encrypt_blob(payload)
                == reference.encrypt_blob(payload))

    @pytest.mark.parametrize("size", [0, 1, CHUNK, 2 * CHUNK + 1, 4099])
    def test_blob_is_manual_per_chunk_packets(self, key16, pool_codec, size):
        """The framing spec: nothing but standard packets, chunk order."""
        payload = _payload(size)
        chunks = chunk_payload(payload, CHUNK)
        nonces = chunk_nonces(DEFAULT_BASE_NONCE, len(chunks), 16)
        manual = b"".join(
            encrypt_packet(chunk, key16, nonce=nonce, engine="fast")
            for chunk, nonce in zip(chunks, nonces)
        )
        assert pool_codec.encrypt_blob(payload) == manual

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_roundtrip_parallel_both_ways(self, pool_codec, size):
        payload = _payload(size)
        assert pool_codec.decrypt_blob(pool_codec.encrypt_blob(payload)) \
            == payload

    def test_cross_engine_cross_workers_roundtrip(self, key16, pool_codec):
        """Encrypt sharded+fast, decrypt inline+reference (and back)."""
        payload = _payload(3 * CHUNK + 7)
        blob = pool_codec.encrypt_blob(payload)
        reference = ParallelCodec(key16, chunk_size=CHUNK,
                                  engine="reference")
        assert reference.decrypt_blob(blob) == payload
        assert pool_codec.decrypt_blob(reference.encrypt_blob(payload)) \
            == payload

    def test_single_chunk_blob_is_a_plain_packet(self, key16):
        payload = _payload(100)
        inline = ParallelCodec(key16, chunk_size=CHUNK)
        assert inline.encrypt_blob(payload, 0xBEEF) == encrypt_packet(
            payload, key16, nonce=0xBEEF, engine="fast")


class TestBlobStructure:
    def test_chunk_count(self, key16):
        codec = ParallelCodec(key16, chunk_size=CHUNK)
        blob = codec.encrypt_blob(_payload(2 * CHUNK + 1))
        assert len(split_packets(blob)) == 3

    def test_decrypt_accepts_plain_packet(self, key16):
        codec = ParallelCodec(key16)
        packet = encrypt_packet(b"plain single packet", key16,
                                engine="reference")
        assert codec.decrypt_blob(packet) == b"plain single packet"

    def test_decrypt_rejects_empty_blob(self, key16):
        with pytest.raises(CipherFormatError):
            ParallelCodec(key16).decrypt_blob(b"")

    def test_decrypt_rejects_truncated_blob(self, key16):
        codec = ParallelCodec(key16, chunk_size=CHUNK)
        blob = codec.encrypt_blob(_payload(2 * CHUNK))
        with pytest.raises(CipherFormatError):
            codec.decrypt_blob(blob[:-1])

    def test_damaged_chunk_is_detected(self, key16):
        codec = ParallelCodec(key16, chunk_size=CHUNK)
        blob = bytearray(codec.encrypt_blob(_payload(2 * CHUNK)))
        blob[len(blob) // 2] ^= 0x40  # flip one payload bit, second chunk
        with pytest.raises(CipherFormatError):
            codec.decrypt_blob(bytes(blob))


class TestCodecValidation:
    def test_rejects_negative_workers(self, key16):
        with pytest.raises(ValueError):
            ParallelCodec(key16, workers=-1)

    def test_rejects_bad_chunk_size(self, key16):
        with pytest.raises(ValueError):
            ParallelCodec(key16, chunk_size=0)

    def test_rejects_bad_engine(self, key16):
        with pytest.raises(ValueError):
            ParallelCodec(key16, engine="quantum")

    def test_rejects_bad_algorithm(self, key16):
        with pytest.raises(CipherFormatError):
            ParallelCodec(key16, algorithm=9)

    def test_unregistered_engine_instance_inline_ok_pooled_rejected(self,
                                                                    key16):
        from repro.core.engines import FastEngine
        from repro.core.errors import UnknownEngineError
        from repro.parallel import EncryptionPool

        class Unregistered(FastEngine):
            name = "unregistered"

        backend = Unregistered()
        inline = ParallelCodec(key16, chunk_size=16, engine=backend)
        payload = _payload(64)
        assert inline.decrypt_blob(inline.encrypt_blob(payload)) == payload
        # Pool workers re-resolve the engine by name: refuse up front,
        # not inside the first fanned-out job.
        with pytest.raises(UnknownEngineError, match="register_engine"):
            ParallelCodec(key16, workers=1, chunk_size=16, engine=backend)
        with EncryptionPool(1) as pool:
            with pytest.raises(UnknownEngineError, match="register_engine"):
                ParallelCodec(key16, chunk_size=16, engine=backend,
                              pool=pool)

    def test_shared_pool_is_not_closed(self, key16):
        from repro.parallel import EncryptionPool

        with EncryptionPool(1) as pool:
            codec = ParallelCodec(key16, chunk_size=CHUNK, pool=pool)
            codec.close()  # must not close the borrowed pool
            blob = ParallelCodec(key16, chunk_size=CHUNK,
                                 pool=pool).encrypt_blob(_payload(2 * CHUNK))
            assert len(split_packets(blob)) == 2
