"""Differential conformance: the fast engine is pinned, bit for bit, to the
reference engine.

Randomised cross-checks (seeded via ``REPRO_TEST_SEED`` for reproducible CI
runs) cover both ciphers, both framing semantics, every supported width,
truncated final windows and EOF edge cases — the contract that makes
``engine="fast"`` safe to enable anywhere.  Each (cipher, framing) combo
runs ``CASES`` randomised cases; the acceptance bar is zero mismatches.
"""

import os
import random

import pytest

from repro.api import Codec
from repro.core import fastpath, hhea, mhhea
from repro.core.errors import CipherFormatError
from repro.core.key import Key
from repro.core.params import VectorParams
from repro.core.stream import (
    ALGORITHM_HHEA,
    ALGORITHM_MHHEA,
    decrypt_packet,
    encrypt_packet,
)
from repro.util.bits import mask
from repro.util.lfsr import PRIMITIVE_TAPS, LeapLfsr, Lfsr

#: One seed controls every randomised case; override in the environment to
#: replay a CI failure locally (the CI matrix pins it).
SEED = int(os.environ.get("REPRO_TEST_SEED", "20050307"))

#: Randomised cases per (cipher, framing) combination.
CASES = 1000

#: Engine-level widths under test (packets additionally need width % 8 == 0).
WIDTHS = (4, 8, 16, 32)

CIPHERS = {"hhea": hhea, "mhhea": mhhea}


def _random_message(rng: random.Random) -> list[int]:
    """Length distribution exercising EOF and truncated-final-window paths:
    empty, single-bit, sub-frame, multi-frame, and exact frame multiples."""
    shape = rng.randrange(6)
    if shape == 0:
        n = 0
    elif shape == 1:
        n = rng.randint(1, 3)
    elif shape == 2:
        n = rng.randint(4, 15)
    elif shape == 3:
        n = 16 * rng.randint(1, 8)  # exact frame boundary
    else:
        n = rng.randint(17, 400)
    return [rng.randint(0, 1) for _ in range(n)]


class TestLeapLfsrConformance:
    """The batched vector generator must replay Lfsr.next_word exactly."""

    @pytest.mark.parametrize("width", WIDTHS)
    def test_word_sequence_and_state(self, width):
        rng = random.Random(f"{SEED}:leap:{width}")
        for _ in range(50):
            seed = rng.randrange(1, 1 << width)
            ref = Lfsr(width, seed=seed)
            leap = LeapLfsr(width, seed=seed)
            count = rng.randint(1, 200)
            assert leap.words(count) == [ref.next_word() for _ in range(count)]
            assert leap.state == ref.state

    def test_from_lfsr_resumes_mid_stream(self):
        ref = Lfsr(16, seed=0xACE1)
        for _ in range(7):
            ref.next_word()
        leap = LeapLfsr.from_lfsr(ref)
        clone = Lfsr(16, seed=1)
        clone.state = ref.state
        assert [leap.next_word() for _ in range(20)] == [
            clone.next_word() for _ in range(20)
        ]

    def test_explicit_taps(self):
        taps = PRIMITIVE_TAPS[16]
        ref = Lfsr(16, seed=3, taps=taps)
        assert LeapLfsr(16, seed=3, taps=taps).words(32) == [
            ref.next_word() for _ in range(32)
        ]

    def test_rejects_zero_seed(self):
        with pytest.raises(ValueError, match="non-zero"):
            LeapLfsr(16, seed=0)


@pytest.mark.parametrize("cipher", sorted(CIPHERS))
@pytest.mark.parametrize("frame_bits", [None, 16])
class TestDifferentialConformance:
    """fast == reference over randomised keys, widths, messages, seeds."""

    def test_randomized_cross_check(self, cipher, frame_bits):
        mod = CIPHERS[cipher]
        rng = random.Random(f"{SEED}:{cipher}:{frame_bits}")
        mismatches = 0
        for trial in range(CASES):
            width = rng.choice(WIDTHS)
            params = VectorParams(width)
            key = Key.generate(rng.randrange(1 << 32),
                               rng.randint(1, 16), params)
            bits = _random_message(rng)
            seed = rng.randrange(1, 1 << width)
            src_ref = Lfsr(width, seed=seed)
            src_fast = Lfsr(width, seed=seed)
            v_ref = mod.encrypt_bits(bits, key, src_ref, params,
                                     frame_bits=frame_bits,
                                     engine="reference")
            v_fast = mod.encrypt_bits(bits, key, src_fast, params,
                                      frame_bits=frame_bits, engine="fast")
            if v_ref != v_fast:
                mismatches += 1
                continue
            # The fast path must leave the caller's RNG in the exact state
            # the reference would have (it writes the leap state back).
            assert src_ref.state == src_fast.state, trial
            # Cross-decryption: each engine decrypts the other's output.
            assert mod.decrypt_bits(v_ref, key, len(bits), params,
                                    frame_bits=frame_bits,
                                    engine="fast") == bits, trial
            assert mod.decrypt_bits(v_fast, key, len(bits), params,
                                    frame_bits=frame_bits,
                                    engine="reference") == bits, trial
        assert mismatches == 0

    def test_truncated_ciphertext_raises_in_both(self, cipher, frame_bits):
        mod = CIPHERS[cipher]
        rng = random.Random(f"{SEED}:trunc:{cipher}:{frame_bits}")
        for _ in range(50):
            width = rng.choice(WIDTHS)
            params = VectorParams(width)
            key = Key.generate(rng.randrange(1 << 32),
                               rng.randint(1, 16), params)
            bits = [rng.randint(0, 1) for _ in range(rng.randint(2, 80))]
            vectors = mod.encrypt_bits(bits, key, Lfsr(width, seed=1), params,
                                       frame_bits=frame_bits, engine="fast")
            for engine in ("reference", "fast"):
                with pytest.raises(CipherFormatError, match="truncated"):
                    mod.decrypt_bits(vectors[:-1], key, len(bits), params,
                                     frame_bits=frame_bits, engine=engine)

    def test_trailing_ciphertext_strictness_matches(self, cipher, frame_bits):
        mod = CIPHERS[cipher]
        key = Key.generate(seed=11, n_pairs=5)
        bits = [1, 0, 1] * 8
        vectors = mod.encrypt_bits(bits, key, Lfsr(16, seed=9),
                                   frame_bits=frame_bits, engine="reference")
        extra = vectors + [0]
        for engine in ("reference", "fast"):
            with pytest.raises(CipherFormatError, match="trailing"):
                mod.decrypt_bits(extra, key, len(bits),
                                 frame_bits=frame_bits, engine=engine)
            assert mod.decrypt_bits(extra, key, len(bits), strict=False,
                                    frame_bits=frame_bits,
                                    engine=engine) == bits


class TestPacketDifferential:
    """Packet containers must be byte-identical across engines."""

    @pytest.mark.parametrize("algorithm", [ALGORITHM_HHEA, ALGORITHM_MHHEA])
    def test_packets_byte_identical(self, algorithm):
        rng = random.Random(f"{SEED}:packet:{algorithm}")
        for trial in range(150):
            width = rng.choice((8, 16, 32))
            params = VectorParams(width)
            key = Key.generate(rng.randrange(1 << 32),
                               rng.randint(1, 16), params)
            payload = rng.randbytes(rng.randint(0, 150))
            while True:
                nonce = rng.randrange(1, 0xFFFFFFFF)
                if nonce & mask(width):
                    break
            p_ref = encrypt_packet(payload, key, nonce=nonce,
                                   algorithm=algorithm, engine="reference")
            p_fast = encrypt_packet(payload, key, nonce=nonce,
                                    algorithm=algorithm, engine="fast")
            assert p_ref == p_fast, trial
            assert decrypt_packet(p_ref, key, engine="fast") == payload
            assert decrypt_packet(p_fast, key,
                                  engine="reference") == payload

    def test_codec_batch_matches_loose_packets(self):
        key = Key.generate(seed=2005, n_pairs=16)
        rng = random.Random(f"{SEED}:batch")
        payloads = [rng.randbytes(rng.randint(0, 64)) for _ in range(24)]
        nonces = list(range(1, len(payloads) + 1))
        with Codec(key, engine="fast") as codec:
            packets = codec.encrypt_packets(payloads, nonces)
            assert packets == [
                encrypt_packet(p, key, nonce=n, engine="reference")
                for p, n in zip(payloads, nonces)
            ]
            assert codec.decrypt_packets(packets) == payloads


class TestScheduleCache:
    def test_schedule_reused_across_calls(self):
        key = Key.generate(seed=5)
        first = fastpath.schedule_for(key, fastpath.MHHEA, key.params)
        again = fastpath.schedule_for(key, fastpath.MHHEA, key.params)
        assert first is again

    def test_unknown_algorithm_rejected(self):
        key = Key.generate(seed=5)
        with pytest.raises(ValueError, match="algorithm"):
            fastpath.schedule_for(key, "rot13", key.params)

    def test_cache_releases_schedule_with_its_key(self):
        # The rekey ratchet must actually retire epoch keys: once a Key
        # is garbage collected, its compiled schedule (which embeds
        # key-derived material) must not linger in the global cache.
        import gc
        import weakref

        key = Key.generate(seed=99)
        schedule = fastpath.schedule_for(key, fastpath.MHHEA, key.params)
        probe = weakref.ref(schedule)
        del schedule, key
        gc.collect()
        assert probe() is None


class TestSourceWidthMismatch:
    """A wrong-width Lfsr must fail exactly like the reference engine."""

    @pytest.mark.parametrize("cipher", sorted(CIPHERS))
    def test_too_wide_lfsr_raises_in_both_engines(self, cipher):
        mod = CIPHERS[cipher]
        key = Key.generate(seed=3)  # 16-bit params
        bits = [1, 0, 1, 1] * 10
        results = []
        for engine in ("reference", "fast"):
            with pytest.raises(ValueError, match="hiding vector"):
                # A 32-bit register eventually emits words over 16 bits;
                # both engines must reject rather than emit garbage.
                mod.encrypt_bits(bits, key, Lfsr(32, seed=0xDEADBEEF),
                                 engine=engine)
            results.append("raised")
        assert results == ["raised", "raised"]

    @pytest.mark.parametrize("cipher", sorted(CIPHERS))
    def test_narrower_lfsr_stays_bit_identical(self, cipher):
        # A narrower register is legal (its words always fit); the fast
        # engine must still take it and agree with the reference.
        mod = CIPHERS[cipher]
        key = Key.generate(seed=3)
        bits = [1, 0, 1, 1] * 10
        ref = mod.encrypt_bits(bits, key, Lfsr(8, seed=0x5A),
                               engine="reference")
        fast = mod.encrypt_bits(bits, key, Lfsr(8, seed=0x5A), engine="fast")
        assert ref == fast


class TestMalformedPacketParity:
    def test_non_byte_n_bits_rejected_by_both_engines(self):
        # A crafted header advertising a fractional byte count must be a
        # CipherFormatError for either engine (structural damage, caught
        # before any extraction work).
        from dataclasses import replace

        from repro.core.stream import HEADER_SIZE, PacketHeader
        from repro.util.crc import crc16_ccitt

        key = Key.generate(seed=2005, n_pairs=16)
        packet = encrypt_packet(b"AB", key, nonce=5)
        header = replace(PacketHeader.unpack(packet), n_bits=12, crc=0)
        payload = packet[HEADER_SIZE:]
        forged_header = replace(
            header, crc=crc16_ccitt(header.pack() + payload))
        forged = forged_header.pack() + payload
        for engine in ("reference", "fast"):
            with pytest.raises(CipherFormatError, match="whole byte"):
                decrypt_packet(forged, key, engine=engine)


class TestCipherClassParity:
    """The bytes-level cipher classes must agree across engines too."""

    def test_mhhea_cipher_engines_agree(self):
        from repro.core.mhhea import MhheaCipher

        key = Key.generate(seed=2005, n_pairs=16)
        plaintext = bytes(range(256)) * 3
        ref = MhheaCipher(key, engine="reference").encrypt(plaintext,
                                                           seed=0x1234)
        fast = MhheaCipher(key, engine="fast").encrypt(plaintext, seed=0x1234)
        assert ref == fast
        assert MhheaCipher(key, engine="fast").decrypt(ref) == plaintext
        assert MhheaCipher(key, engine="reference").decrypt(fast) == plaintext

    def test_hhea_cipher_engines_agree(self):
        from repro.core.hhea import HheaCipher

        key = Key.generate(seed=2005, n_pairs=16)
        plaintext = b"baseline cipher parity" * 7
        ref = HheaCipher(key, engine="reference").encrypt(plaintext,
                                                          seed=0x4321)
        fast = HheaCipher(key, engine="fast").encrypt(plaintext, seed=0x4321)
        assert ref == fast
        assert HheaCipher(key, engine="fast").decrypt(ref) == plaintext
