"""End-to-end secure-link throughput (software peer of Table 1).

The paper's Table 1 reports the hardware core's raw encryption rate;
these benches report what a complete *software link* achieves — cipher,
packet container, framing, sessions and asyncio transport included — so
the two can be compared on the same axis (Mbps).  Also measures the
incremental ``FrameDecoder`` against the all-at-once ``split_packets``
it replaces for streaming use, and prices the link-level worker-pool
offload against inline cipher work at 4, 32 and 256 KiB.
"""

import asyncio
import os
import statistics
import time

from repro.analysis.workloads import packet_payloads
from repro.core.stream import encrypt_packet, split_packets
from repro.net import FrameDecoder, SecureLinkClient, SecureLinkServer
from repro.net.session import Session, SessionConfig

SESSION_ID = b"benchsid"


async def _echo_roundtrip(key, payloads, config=None):
    """One full link lifetime; returns the client session metrics and
    the seconds ``send_all`` took (link set-up excluded)."""
    async with SecureLinkServer(key, port=0, config=config) as server:
        async with SecureLinkClient(key, port=server.port, config=config,
                                    session_id=SESSION_ID) as client:
            start = time.perf_counter()
            replies = await client.send_all(payloads)
            elapsed = time.perf_counter() - start
            assert replies == payloads
            return client.metrics, elapsed


def test_link_echo_throughput(benchmark, bench_key, emit):
    payloads = packet_payloads(64, seed=11)
    total = sum(len(p) for p in payloads)

    metrics, _ = benchmark(
        lambda: asyncio.run(_echo_roundtrip(bench_key, payloads)))

    snapshot = metrics.snapshot()
    emit(
        "net_link_throughput",
        "\n".join([
            f"secure-link echo round trip: {len(payloads)} packets, "
            f"{total} payload bytes each way",
            f"client->server->client goodput: {metrics.mbps('rx'):.3f} Mbps "
            f"(wire {metrics.wire_mbps('rx'):.3f} Mbps)",
            f"wire overhead: {metrics.rx.overhead_ratio:.2f} bytes/byte",
            metrics.render("link"),
        ]),
    )
    assert snapshot["rx_packets"] == len(payloads)
    assert snapshot["rx_mbps"] > 0


def test_session_encrypt_throughput(benchmark, bench_key):
    """Session layer alone (no sockets): nonce schedule + rekey + cipher."""
    payloads = packet_payloads(32, seed=12)

    def run():
        session = Session(bench_key, "initiator", SESSION_ID,
                          SessionConfig(rekey_interval=8))
        return sum(len(session.encrypt(p)) for p in payloads)

    wire_bytes = benchmark(run)
    assert wire_bytes > sum(len(p) for p in payloads)


def test_link_pair_throughput(benchmark, bench_key, emit):
    """The sans-IO protocol alone: no sockets, no loop, no threads.

    The gap between this number and the asyncio echo round trip is the
    transport cost — the protocol/transport split makes it measurable
    for the first time.
    """
    from repro.link import LinkPair, PayloadReceived

    payloads = packet_payloads(64, seed=14)
    total = sum(len(p) for p in payloads)

    def run():
        pair = LinkPair(bench_key, session_id=SESSION_ID)
        pair.handshake()
        for payload in payloads:
            pair.initiator.send_payload(payload)
        _, events = pair.pump()
        replies = []
        for event in events:
            assert isinstance(event, PayloadReceived)
            pair.responder.send_payload(event.payload)
        events, _ = pair.pump()
        replies = [event.payload for event in events]
        assert replies == payloads
        return pair.initiator.session.metrics

    metrics = benchmark(run)
    emit(
        "net_link_pair_throughput",
        f"sans-IO LinkPair echo: {len(payloads)} packets, {total} payload "
        f"bytes each way, no transport\n"
        f"protocol-only goodput: {metrics.mbps('rx'):.3f} Mbps",
    )


def test_link_goodput_gate(bench_key, emit, monkeypatch):
    """CI floor for the link-layer hot path (zero-copy + batched decrypt).

    Deliberately free of the pytest-benchmark fixture so the CI
    bench-pipeline job (which installs only pytest) can run it with
    ``-k goodput``.  Two floors:

    * ``engine_share >= 0.85`` — machine-independent.  The fast
      engine's two hooks are timed inside each LinkPair echo, the way
      perfbench's tracer wraps them, and must take at least 85 % of the
      echo's wall time: the packet container, CRC, session, framing and
      protocol may eat at most 15 % of the cipher budget.  The share is
      a ratio within one run, so it does not move with the host's speed,
      the session keys or the engine's encrypt/decrypt balance.
    * LinkPair goodput >= 5x the pre-rework baseline (0.0135 MB/s
      measured on the 1-CPU CI-class box that set it).
    """
    from repro.core.engines import FastEngine
    from repro.link import LinkPair, PayloadReceived

    baseline_mb_s = 0.0135  # pre-zero-copy LinkPair goodput (PR 6)
    payloads = [bytes((i + j) % 256 for j in range(4096)) for i in range(16)]
    total = sum(len(p) for p in payloads)
    fast = SessionConfig(engine="fast")
    engine_s = 0.0

    def timed(hook):
        def call(*args):
            nonlocal engine_s
            start = time.perf_counter()
            try:
                return hook(*args)
            finally:
                engine_s += time.perf_counter() - start
        return call

    for name in ("embed_bytes", "extract_bytes"):
        monkeypatch.setattr(FastEngine, name, timed(getattr(FastEngine, name)))

    def linkpair_echo() -> tuple[float, float]:
        nonlocal engine_s
        pair = LinkPair(bench_key, config=fast, session_id=SESSION_ID)
        pair.handshake()
        engine_s = 0.0
        start = time.perf_counter()
        for payload in payloads:
            pair.initiator.send_payload(payload)
        replies = []
        while len(replies) < len(payloads):
            initiator_events, responder_events = pair.pump()
            for event in responder_events:
                if isinstance(event, PayloadReceived):
                    pair.responder.send_payload(event.payload)
            for event in initiator_events:
                if isinstance(event, PayloadReceived):
                    replies.append(event.payload)
        elapsed = time.perf_counter() - start
        assert replies == payloads
        return total / elapsed / 1e6, engine_s / elapsed

    # Best of 5 rides out a slow host phase for the absolute floor; the
    # share is the median of the same 5 echoes.
    rounds = [linkpair_echo() for _ in range(5)]
    goodput = max(echo for echo, _ in rounds)
    share = statistics.median(share for _, share in rounds)
    emit(
        "net_link_goodput_gate",
        f"LinkPair goodput {goodput:.4f} MB/s "
        f"({goodput / baseline_mb_s:.1f}x the pre-rework baseline), "
        f"fast-engine hooks {share:.3f} of echo wall time "
        f"(overhead {1 - share:.3f})",
    )
    assert goodput >= 5 * baseline_mb_s, (
        f"LinkPair goodput {goodput:.4f} MB/s regressed below 5x the "
        f"pre-rework baseline ({5 * baseline_mb_s:.4f} MB/s)")
    assert share >= 0.85, (
        f"engine share {share:.3f} of echo wall time is below the 0.85 "
        f"floor: the link layer is burning cipher budget on overhead again")


def test_link_offload_echo(bench_key, emit):
    """Record the link offload (2 workers per peer) against inline; no gate.

    The numbers the link offload is kept or deleted by: asyncio echo
    goodput inline and with ``SessionConfig(parallel_workers=2,
    parallel_threshold=size)`` at 4, 32 and 256 KiB.  Only the echoes
    are asserted — the speedup is a fact about the host's cores, and is
    emitted for the decision, never gated.
    """
    lines = [f"cpu_count: {os.cpu_count()}",
             "asyncio echo goodput, inline vs 2 workers per peer "
             "(send_all only, link set-up excluded)"]
    for size, count in ((4 << 10, 16), (32 << 10, 4), (256 << 10, 2)):
        payloads = [bytes((i + j) % 256 for j in range(size))
                    for i in range(count)]
        total = size * count
        pooled = SessionConfig(parallel_workers=2, parallel_threshold=size)
        _, t_inline = asyncio.run(_echo_roundtrip(bench_key, payloads))
        _, t_pooled = asyncio.run(_echo_roundtrip(bench_key, payloads, pooled))
        lines.append(
            f"{count:2d} x {size >> 10:3d} KiB: inline "
            f"{total / t_inline / 1e6:.3f} MB/s, 2 workers "
            f"{total / t_pooled / 1e6:.3f} MB/s "
            f"({t_inline / t_pooled:.2f}x)")
    emit("net_link_offload", "\n".join(lines))


def test_frame_decoder_vs_split_packets(benchmark, bench_key, emit):
    """Incremental framing of a 64-packet stream, fed in 1500-byte MTUs."""
    payloads = packet_payloads(64, seed=13)
    stream = b"".join(
        encrypt_packet(p, bench_key, nonce=i + 1)
        for i, p in enumerate(payloads)
    )
    mtu = 1500

    def run():
        decoder = FrameDecoder()
        frames = []
        for offset in range(0, len(stream), mtu):
            frames.extend(decoder.feed(stream[offset:offset + mtu]))
        assert decoder.pending == 0
        return frames

    frames = benchmark(run)
    assert [f.raw for f in frames] == split_packets(stream)
    emit(
        "net_frame_decoder",
        f"FrameDecoder: {len(stream)} bytes / {len(frames)} packets "
        f"in {mtu}-byte chunks, matches split_packets byte-exact",
    )
