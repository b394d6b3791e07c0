"""Observability overhead gate — instrumentation must be nearly free.

The :mod:`repro.obs` layer promises that an *enabled* registry costs at
most a few percent on hot paths and that the *disabled* default (the
null registry) costs effectively nothing.  This bench measures both
promises on the two workloads that exercise the instrumentation
densest:

* the :class:`repro.api.Codec` packet path (64 KiB encrypt + decrypt —
  per-op counters and latency histograms in ``repro.core.stream``);
* a memory-transport link echo burst (many small payloads — per-frame
  byte/packet counters in :class:`repro.link.LinkProtocol`, and the
  session and link collectors registered per connection).

Each gate reads the median of ``PAIRS`` per-pair enabled/disabled
wall-clock ratios.  The two runs of a pair go back to back, and which
side runs first alternates, so a slow phase of a shared host lands in
one or two pairs rather than in the verdict (min-of-5 over whole runs
failed this gate on a 2-CPU host at 1.08-1.15x while 15-pair medians of
the same code read 0.98-1.02x).  The gate is ``MAX_OVERHEAD`` (1.05 =
5%) plus a small absolute floor so microsecond-scale jitter on fast
machines cannot fail the ratio on a workload that got too cheap to
resolve.

Wire bytes are asserted identical between the enabled and disabled
runs — observability must never touch the data path.
"""

import statistics
import time

from repro.api import open_codec
from repro.link.memory import MemoryLinkServer
from repro.obs import core as obs

#: The acceptance payload for the codec path: 64 KiB.
PAYLOAD = bytes(range(256)) * 256

#: Link burst: 64 MTU-ish payloads per echo round.
LINK_PAYLOADS = [bytes([i & 0xFF]) * 1024 for i in range(64)]

#: Enabled / disabled wall-clock ratio ceiling (the <=5% promise).
MAX_OVERHEAD = 1.05

#: Absolute slack (seconds) added to the gate: below this scale the
#: timer resolution, not the instrumentation, dominates the ratio.
JITTER_FLOOR = 0.002

#: Interleaved (disabled, enabled) run pairs behind each gate.
PAIRS = 15

_NONCE = 0xBEEF


def _timed_pair(workload, pairs: int = PAIRS):
    """(disabled_s, enabled_s, disabled_result, enabled_result, registry).

    Runs the workload ``pairs`` times under the null registry and as
    often under a live :class:`~repro.obs.core.ObsRegistry`, one of each
    per pair, alternating which goes first.  ``disabled_s`` is the
    median disabled time and ``enabled_s`` that times the median
    per-pair ratio.  The process-wide registry is always restored.
    """
    live = obs.ObsRegistry()
    previous = obs.set_registry(None)
    offs, ratios, results = [], [], {}
    try:
        workload()  # warm caches once, outside both timings
        for index in range(pairs):
            seconds = {}
            for registry in (None, live) if index % 2 else (live, None):
                obs.set_registry(registry)
                start = time.perf_counter()
                results[registry] = workload()
                seconds[registry] = time.perf_counter() - start
            offs.append(seconds[None])
            ratios.append(seconds[live] / seconds[None])
    finally:
        obs.set_registry(previous)
    t_off = statistics.median(offs)
    return (t_off, t_off * statistics.median(ratios), results[None],
            results[live], live)


def _gate(name: str, t_off: float, t_on: float) -> str:
    overhead = t_on / t_off if t_off > 0 else 1.0
    line = (f"{name}: disabled {t_off * 1e3:8.3f} ms   "
            f"enabled {t_on * 1e3:8.3f} ms   ({overhead:.3f}x, "
            f"median of {PAIRS} pairs)")
    assert t_on <= t_off * MAX_OVERHEAD + JITTER_FLOOR, (
        f"{name}: obs overhead {overhead:.3f}x exceeds "
        f"{MAX_OVERHEAD:.2f}x gate ({line})"
    )
    return line


def test_obs_overhead_codec(bench_key, emit):
    with open_codec(bench_key) as codec:
        packet = codec.encrypt(PAYLOAD, nonce=_NONCE)

        def workload():
            wire = codec.encrypt(PAYLOAD, nonce=_NONCE)
            assert codec.decrypt(wire) == PAYLOAD
            return wire

        t_off, t_on, wire_off, wire_on, live = _timed_pair(workload)
    # Byte-identity: the instrumented run emitted the exact wire bytes.
    assert wire_off == wire_on == packet
    # The enabled run really recorded the codec/engine series.
    snap = live.snapshot()
    assert any(s.startswith("repro_codec_ops_total") for s in snap["counters"])
    assert any(s.startswith("repro_engine_op_seconds")
               for s in snap["histograms"])
    emit("obs_overhead_codec", _gate("codec 64 KiB round-trip", t_off, t_on))


def test_obs_overhead_link(bench_key, emit):
    with MemoryLinkServer(bench_key) as server:

        def workload():
            with server.connect(session_id=b"benchsid") as client:
                return client.send_all(LINK_PAYLOADS)

        t_off, t_on, replies_off, replies_on, live = _timed_pair(workload)
    assert replies_off == replies_on == LINK_PAYLOADS
    snap = live.snapshot()
    assert any(s.startswith("repro_link_frames_total")
               for s in snap["counters"])
    assert "repro_link_handshake_seconds" in snap["histograms"]
    emit("obs_overhead_link",
         _gate(f"memory link echo x{len(LINK_PAYLOADS)}", t_off, t_on))
