"""Software-model performance: reference cipher and packet layer.

Not a paper artefact, but the numbers a library adopter asks first: how
fast is the pure-Python reference model, and what does the packet layer
add on top.
"""

from repro.analysis.workloads import packet_payloads
from repro.core.mhhea import MhheaCipher
from repro.core.stream import decrypt_packet, encrypt_packet
from repro.util.rng import random_bytes

PAYLOAD = random_bytes(1, 4096)


def test_reference_encrypt_bytes(benchmark, bench_key):
    cipher = MhheaCipher(bench_key, engine="reference")
    result = benchmark(lambda: cipher.encrypt(PAYLOAD, seed=0xACE1))
    assert result.n_bits == len(PAYLOAD) * 8


def test_reference_decrypt_bytes(benchmark, bench_key):
    cipher = MhheaCipher(bench_key, engine="reference")
    message = cipher.encrypt(PAYLOAD, seed=0xACE1)
    recovered = benchmark(lambda: cipher.decrypt(message))
    assert recovered == PAYLOAD


def test_packet_roundtrip_imix(benchmark, bench_key):
    payloads = packet_payloads(8, seed=4)

    def link():
        total = 0
        for i, payload in enumerate(payloads):
            packet = encrypt_packet(payload, bench_key, nonce=i + 1,
                                    engine="reference")
            total += len(decrypt_packet(packet, bench_key,
                                        engine="reference"))
        return total

    total = benchmark(link)
    assert total == sum(len(p) for p in payloads)
