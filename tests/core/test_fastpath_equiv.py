"""Differential checks of the fast engine against the reference beyond
the conformance corpus (``tests/core/test_conformance.py``).

The leap-table LFSR must replay the reference register, the kernel's
placement tables must match the reference policies for every key pair and
scramble half at small widths, packets and the bytes-level cipher
classes must be byte-identical across engines, the schedule cache must
key and release correctly, and a vector source of the wrong width must
fail the same way in every engine.  Randomised
cases are seeded via ``REPRO_TEST_SEED`` for reproducible CI runs.
"""

import itertools
import os
import random

import pytest

from repro.api import Codec
from repro.core import engines, fastpath
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

#: Engine-level widths under test (packets additionally need width % 8 == 0).
WIDTHS = (4, 8, 16, 32)


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
            assert [leap.next_word() for _ in range(count)] == [
                ref.next_word() for _ in range(count)
            ]
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
        leap = LeapLfsr(16, seed=3, taps=taps)
        assert [leap.next_word() for _ in range(32)] == [
            ref.next_word() for _ in range(32)
        ]

    def test_rejects_zero_seed(self):
        with pytest.raises(ValueError, match="non-zero"):
            LeapLfsr(16, seed=0)


class _CyclingSource:
    """A vector source that replays a fixed word list forever."""

    def __init__(self, words):
        self._words = itertools.cycle(words)

    def next_word(self) -> int:
        return next(self._words)


class TestWindowFormula:
    """The fast kernel's placement tables, for both ciphers, against the
    reference policies: exhaustive over key pairs and the scramble half.

    A window depends only on the (sorted) key pair and the vector's
    scramble half, so at these widths every (pair, scramble half)
    combination is one vector of a single-pair key; the low half is
    random.  The long message lets every combination be drawn once
    before any window is cut short; the 1-8-byte payloads end within the
    first windows, so each pair's last window is also checked where a
    message ends in its middle (the kernel writes it whole and then
    restores the bits past the end).
    """

    @pytest.mark.parametrize("width", (4, 8, 16))
    @pytest.mark.parametrize("algorithm", engines.ALGORITHM_NAMES)
    def test_every_pair_and_scramble_half(self, algorithm, width):
        params = VectorParams(width)
        rng = random.Random(f"{SEED}:window:{algorithm}:{width}")
        words = [(high << params.half) | rng.randrange(params.half)
                 for high in range(1 << params.half)]
        data = rng.randbytes(len(words) * params.max_window // 8 + 1)
        reference = engines.get_engine("reference")
        fast = engines.get_engine("fast")
        for k1 in range(params.half):
            for k2 in range(params.half):
                key = Key([(k1, k2)], params)
                for payload in [data[:n] for n in range(1, 9)] + [data]:
                    ref = reference.embed_bytes(key, algorithm, params,
                                                payload, _CyclingSource(words))
                    case = (k1, k2, len(payload))
                    assert fast.embed_bytes(key, algorithm, params, payload,
                                            _CyclingSource(words)) == ref, case
                    assert fast.extract_bytes(key, algorithm, params, ref,
                                              8 * len(payload)) == payload, case
                assert len(ref) > len(words)


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
        # is garbage collected, its compiled schedule (which orders the
        # key's pairs) must not linger in the global cache.  The shared
        # placement tables hold every sorted pair and no more, so
        # compiling and collecting a key leaves them exactly as they were.
        import gc
        import weakref

        params = VectorParams(16)
        fastpath.schedule_for(Key.generate(seed=98), fastpath.MHHEA, params)
        shared = fastpath._PROGRAMS[(params, fastpath.MHHEA)]
        before = dict(shared)
        assert sorted(before) == [(k1, k2) for k1 in range(params.half)
                                  for k2 in range(k1, params.half)]
        key = Key.generate(seed=99)
        schedule = fastpath.schedule_for(key, fastpath.MHHEA, key.params)
        assert {id(program) for program in schedule._programs} <= {
            id(program) for program in before.values()}
        probe = weakref.ref(schedule)
        del schedule, key
        gc.collect()
        assert probe() is None
        assert fastpath._PROGRAMS[(params, fastpath.MHHEA)] is shared
        assert shared.keys() == before.keys()
        assert all(shared[pair] is before[pair] for pair in before)


class TestBytesLikePlaintext:
    """Any bytes-like plaintext embeds to the same vectors (``bytes +
    memoryview`` raises, so the message words must not be built that
    way)."""

    @pytest.mark.parametrize("algorithm", engines.ALGORITHM_NAMES)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_bytes_bytearray_memoryview_agree(self, algorithm, width):
        params = VectorParams(width)
        key = Key.generate(seed=width, n_pairs=16, params=params)
        data = random.Random(f"{SEED}:byteslike:{width}").randbytes(77)
        out = {
            (name, kind.__name__): engines.get_engine(name).embed_bytes(
                key, algorithm, params, kind(data), Lfsr(width, seed=0x5))
            for name in engines.registered_engines()
            for kind in (bytes, bytearray, memoryview)
        }
        assert len(set(map(tuple, out.values()))) == 1, out.keys()


class TestSourceWidthMismatch:
    """A wrong-width Lfsr must fail exactly like the reference engine."""

    @pytest.mark.parametrize("algorithm", engines.ALGORITHM_NAMES)
    def test_too_wide_lfsr_raises_in_every_engine(self, algorithm):
        key = Key.generate(seed=3)  # 16-bit params
        for name in engines.registered_engines():
            with pytest.raises(ValueError, match="hiding vector"):
                # A 32-bit register eventually emits words over 16 bits;
                # every engine must reject rather than emit garbage.
                engines.get_engine(name).embed_bytes(
                    key, algorithm, key.params, b"\xbd" * 5,
                    Lfsr(32, seed=0xDEADBEEF))

    @pytest.mark.parametrize("algorithm", engines.ALGORITHM_NAMES)
    def test_narrower_lfsr_stays_bit_identical(self, algorithm):
        # A narrower register is legal (its words always fit); every
        # engine must take it and agree with the reference.
        key = Key.generate(seed=3)
        out = {
            name: engines.get_engine(name).embed_bytes(
                key, algorithm, key.params, b"\xbd" * 5, Lfsr(8, seed=0x5A))
            for name in engines.registered_engines()
        }
        assert all(vectors == out["reference"] for vectors in out.values())


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
