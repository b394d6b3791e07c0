"""Batch packet entry points (``encrypt_packets`` / ``decrypt_packets``).

The executor parameter is deliberately duck-typed: anything with
``Executor.map`` semantics must produce byte-identical output to the
inline loop, because each packet is a pure function of its inputs.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.core.errors import CipherFormatError
from repro.core.stream import (
    decrypt_packets,
    encrypt_packet,
    encrypt_packets,
)

PAYLOADS = [b"", b"a", b"batch payload " * 9, bytes(range(256))]
NONCES = [0x1001, 0x1002, 0x1003, 0x1004]


class TestInlineBatch:
    def test_matches_single_packet_calls(self, key16):
        packets = encrypt_packets(PAYLOADS, key16, NONCES, engine="fast")
        assert packets == [
            encrypt_packet(p, key16, nonce=n, engine="fast")
            for p, n in zip(PAYLOADS, NONCES)
        ]

    def test_roundtrip(self, key16):
        packets = encrypt_packets(PAYLOADS, key16, NONCES)
        assert decrypt_packets(packets, key16) == PAYLOADS

    def test_length_mismatch_raises(self, key16):
        with pytest.raises(ValueError):
            encrypt_packets(PAYLOADS, key16, NONCES[:-1])

    def test_bad_nonce_propagates(self, key16):
        with pytest.raises(CipherFormatError):
            encrypt_packets([b"x"], key16, [0])

    def test_damage_propagates_from_decrypt(self, key16):
        packets = encrypt_packets(PAYLOADS, key16, NONCES)
        packets[1] = packets[1][:-1]
        with pytest.raises(CipherFormatError):
            decrypt_packets(packets, key16)


class TestExecutorBatch:
    def test_thread_pool_is_byte_identical(self, key16):
        inline = encrypt_packets(PAYLOADS, key16, NONCES, engine="fast")
        with ThreadPoolExecutor(max_workers=2) as executor:
            threaded = encrypt_packets(PAYLOADS, key16, NONCES,
                                       engine="fast", executor=executor)
            assert threaded == inline
            assert decrypt_packets(threaded, key16, engine="reference",
                                   executor=executor) == PAYLOADS

    def test_process_pool_is_byte_identical(self, key16):
        inline = encrypt_packets(PAYLOADS, key16, NONCES, engine="fast")
        with ProcessPoolExecutor(max_workers=2) as executor:
            forked = encrypt_packets(PAYLOADS, key16, NONCES,
                                     engine="fast", executor=executor)
            assert forked == inline
            assert decrypt_packets(forked, key16, engine="reference",
                                   executor=executor) == PAYLOADS

    def test_engines_agree_through_executor(self, key16):
        with ThreadPoolExecutor(max_workers=2) as executor:
            fast = encrypt_packets(PAYLOADS, key16, NONCES, engine="fast",
                                   executor=executor)
            reference = encrypt_packets(PAYLOADS, key16, NONCES,
                                        engine="reference",
                                        executor=executor)
        assert fast == reference
