"""Fast engine vs reference engine throughput — the point of the split.

The paper's contribution is making MHHEA fast enough for line-rate link
encryption in hardware; :mod:`repro.core.fastpath` is the software
analogue of that speedup.  This bench times both engines end to end
through the packet codec on a 64 KiB payload (the acceptance workload:
the fast engine must clear >= 5x on both directions) and a fast-engine
:meth:`repro.api.Codec.encrypt_packets` on a burst of link-sized
payloads, and emits (without a gate) the engine hooks' cost per call
from link-sized to bulk payloads.  Timing is min-of-N wall clock — the same convention as the
throughput numbers in ``repro.analysis`` — and every artefact lands in
``benchmarks/_artifacts/``.
"""

import time

from repro.api import Codec
from repro.core.engines import MHHEA, get_engine
from repro.core.stream import decrypt_packet, encrypt_packet
from repro.util.lfsr import Lfsr

#: The acceptance payload: 64 KiB.
PAYLOAD = bytes(range(256)) * 256

#: Required advantage of the fast engine over the reference.
MIN_SPEEDUP = 5.0

#: Payload sizes of the per-call table: link-sized to bulk.
TABLE_SIZES = (16, 64, 1 << 10, 16 << 10)

_NONCE = 0xBEEF


def _best_of(fn, repeats: int) -> tuple[float, object]:
    """Minimum wall-clock over ``repeats`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_fastpath_64k_speedup(bench_key, emit):
    # Warm both engines once (schedule compilation, allocator, caches),
    # then time each as min-of-2 — symmetric conditions keep the gate
    # honest.
    warm = encrypt_packet(PAYLOAD, bench_key, nonce=_NONCE, engine="fast")
    encrypt_packet(PAYLOAD, bench_key, nonce=_NONCE, engine="reference")

    t_enc_ref, packet = _best_of(
        lambda: encrypt_packet(PAYLOAD, bench_key, nonce=_NONCE,
                               engine="reference"), 2)
    t_enc_fast, packet_fast = _best_of(
        lambda: encrypt_packet(PAYLOAD, bench_key, nonce=_NONCE,
                               engine="fast"), 2)
    assert packet == packet_fast == warm  # differential guarantee, again

    decrypt_packet(packet, bench_key, engine="fast")  # warm
    decrypt_packet(packet, bench_key, engine="reference")
    t_dec_ref, plain = _best_of(
        lambda: decrypt_packet(packet, bench_key, engine="reference"), 2)
    t_dec_fast, plain_fast = _best_of(
        lambda: decrypt_packet(packet, bench_key, engine="fast"), 2)
    assert plain == plain_fast == PAYLOAD

    enc_speedup = t_enc_ref / t_enc_fast
    dec_speedup = t_dec_ref / t_dec_fast
    mbits = len(PAYLOAD) * 8 / 1e6
    emit(
        "fastpath_speedup",
        "\n".join([
            f"64 KiB payload, {len(packet)} wire bytes",
            f"encrypt: reference {mbits / t_enc_ref:8.2f} Mbps   "
            f"fast {mbits / t_enc_fast:8.2f} Mbps   ({enc_speedup:.1f}x)",
            f"decrypt: reference {mbits / t_dec_ref:8.2f} Mbps   "
            f"fast {mbits / t_dec_fast:8.2f} Mbps   ({dec_speedup:.1f}x)",
        ]),
    )
    assert enc_speedup >= MIN_SPEEDUP
    assert dec_speedup >= MIN_SPEEDUP


def test_codec_packets_burst(bench_key, emit):
    # The secure-link shape: many MTU-ish payloads under one schedule.
    payloads = [bytes([i & 0xFF]) * 1024 for i in range(64)]
    nonces = list(range(1, len(payloads) + 1))
    codec = Codec(bench_key, engine="fast")

    t_batch, packets = _best_of(
        lambda: codec.encrypt_packets(payloads, nonces), 2)
    t_loose, loose = _best_of(
        lambda: [encrypt_packet(p, bench_key, nonce=n, engine="reference")
                 for p, n in zip(payloads, nonces)], 2)
    assert packets == loose

    t_dec, recovered = _best_of(lambda: codec.decrypt_packets(packets), 2)
    assert recovered == payloads

    total_mbits = sum(len(p) for p in payloads) * 8 / 1e6
    emit(
        "fastpath_batch",
        "\n".join([
            f"{len(payloads)} x 1 KiB payloads under one key schedule",
            f"Codec.encrypt_packets: {total_mbits / t_batch:8.2f} Mbps "
            f"(reference loop {total_mbits / t_loose:8.2f} Mbps, "
            f"{t_loose / t_batch:.1f}x)",
            f"Codec.decrypt_packets: {total_mbits / t_dec:8.2f} Mbps",
        ]),
    )
    assert t_loose / t_batch >= MIN_SPEEDUP


def test_fastpath_size_table(bench_key, emit):
    """Emit the engine hooks' microseconds per call by payload size; no gate.

    Fast-engine ``embed_bytes``/``extract_bytes`` per call under the
    bench key, and the speedup over the reference hooks on the same
    call, at 16 B, 64 B, 1 KiB and 16 KiB: the fixed cost per call
    shows at the small end, the per-vector kernel at the large end.
    """
    params = bench_key.params
    fast, reference = get_engine("fast"), get_engine("reference")
    lines = [f"engine hooks, MHHEA, width {params.width}, "
             f"{len(bench_key)} key pairs (min-of-N)",
             "payload    embed us  vs ref   extract us  vs ref"]
    for size in TABLE_SIZES:
        data = PAYLOAD[:size]

        def embed(engine):
            return engine.embed_bytes(bench_key, MHHEA, params, data,
                                      Lfsr(params.width, seed=_NONCE))

        def extract(engine):
            return engine.extract_bytes(bench_key, MHHEA, params, vectors,
                                        8 * size)

        repeats = (64 << 10) // size
        t_embed, vectors = _best_of(lambda: embed(fast), repeats)
        t_embed_ref, ref_vectors = _best_of(lambda: embed(reference),
                                            max(1, repeats // 16))
        assert vectors == ref_vectors
        t_extract, plain = _best_of(lambda: extract(fast), repeats)
        t_extract_ref, ref_plain = _best_of(lambda: extract(reference),
                                            max(1, repeats // 16))
        assert plain == ref_plain == data
        lines.append(
            f"{size:>6} B {t_embed * 1e6:11.1f} {t_embed_ref / t_embed:6.1f}x "
            f"{t_extract * 1e6:12.1f} {t_extract_ref / t_extract:6.1f}x")
    emit("fastpath_size_table", "\n".join(lines))
