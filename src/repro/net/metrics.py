"""Per-session and aggregate link counters.

The ZTEX "Inouttraffic" framework around the descrypt cracker showed that
a hardware cipher core is only as fast as the accounting around it —
buffers, checksums and packet IDs are where a link either proves its
throughput or silently loses it.  This module is the software equivalent
for the secure link: every :class:`repro.net.session.Session` owns a
:class:`SessionMetrics`, the server aggregates them in a
:class:`MetricsRegistry`, and ``benchmarks/bench_net.py`` reports the
resulting Mbps next to the paper's hardware Table 1 numbers.

The clock is injectable so tests (and deterministic benchmarks) can pin
elapsed time instead of depending on the wall clock.

These always-on ``metrics.tx.packets``-style counters are the only
ledger: the obs registry current when a :class:`SessionMetrics` is built
reads them as ``repro_session_*`` and
``repro_link_drops_total{reason=gap|replay|crc}`` series when scraped.
A :class:`MetricsRegistry` slot lives exactly as long as its session.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable

from repro.obs import core as _obs
from repro.obs.logs import log_event

__all__ = ["DirectionCounters", "SessionMetrics", "MetricsRegistry"]


@dataclass
class DirectionCounters:
    """Counters for one traffic direction of one session."""

    packets: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    crc_failures: int = 0
    replays: int = 0
    gaps: int = 0
    rekeys: int = 0

    def add(self, other: "DirectionCounters") -> None:
        """Accumulate ``other`` into this instance (for aggregation)."""
        for spec in fields(self):
            setattr(self, spec.name,
                    getattr(self, spec.name) + getattr(other, spec.name))

    @property
    def overhead_ratio(self) -> float:
        """Wire bytes per payload byte (framing overhead); 0 when idle."""
        if self.payload_bytes == 0:
            return 0.0
        return self.wire_bytes / self.payload_bytes


def _session_samples(tx: DirectionCounters, rx: DirectionCounters) -> list:
    """One session's exported series (see ``ObsRegistry.collect``)."""
    samples = [("counter", f"repro_session_{field}_total",
                (("direction", direction),), getattr(counters, field))
               for direction, counters in (("tx", tx), ("rx", rx))
               for field in ("packets", "payload_bytes", "wire_bytes",
                             "rekeys")]
    for reason, value in (("gap", rx.gaps), ("replay", rx.replays),
                          ("crc", rx.crc_failures)):
        samples.append(("counter", "repro_link_drops_total",
                        (("reason", reason),), value))
    return samples


class SessionMetrics:
    """Counters plus timing for one duplex session.

    ``tx`` counts what this side encrypted and sent, ``rx`` what it
    received and accepted.  Rates use an injectable monotonic ``clock``
    (defaults to :func:`time.perf_counter`).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._start = clock()
        self.tx = DirectionCounters()
        self.rx = DirectionCounters()
        _obs.get_registry().collect(
            self, partial(_session_samples, self.tx, self.rx))

    def elapsed(self) -> float:
        """Seconds since the session started (never zero)."""
        return max(self._clock() - self._start, 1e-9)

    # -- recording (the session halves call these on the hot path) ---------

    def record_tx(self, payload_bytes: int, wire_bytes: int) -> None:
        """Account one encrypted-and-sent packet."""
        self.tx.packets += 1
        self.tx.payload_bytes += payload_bytes
        self.tx.wire_bytes += wire_bytes

    def record_rx(self, payload_bytes: int, wire_bytes: int,
                  gap: int = 0) -> None:
        """Account one received-and-accepted packet (``gap`` = skipped seqs)."""
        self.rx.packets += 1
        self.rx.payload_bytes += payload_bytes
        self.rx.wire_bytes += wire_bytes
        if gap:
            self.rx.gaps += gap
            log_event("repro.net.session", "session.gap", gap=gap)

    def record_replay(self, seq: int | None = None) -> None:
        """Account one replayed/stale sequence number (packet rejected)."""
        self.rx.replays += 1
        log_event("repro.net.session", "session.replay", level=30, seq=seq)

    def record_crc_failure(self) -> None:
        """Account one integrity/decode failure (packet rejected)."""
        self.rx.crc_failures += 1
        log_event("repro.net.session", "session.crc_failure", level=30)

    def record_rekey(self, direction: str, count: int = 1) -> None:
        """Account ``count`` epoch-key ratchets for ``direction``."""
        self._direction(direction).rekeys += count

    def mbps(self, direction: str = "rx") -> float:
        """Payload megabits per second for ``direction`` (``tx``/``rx``)."""
        counters = self._direction(direction)
        return counters.payload_bytes * 8 / self.elapsed() / 1e6

    def wire_mbps(self, direction: str = "rx") -> float:
        """Wire (header + payload) megabits per second."""
        counters = self._direction(direction)
        return counters.wire_bytes * 8 / self.elapsed() / 1e6

    def _direction(self, direction: str) -> DirectionCounters:
        if direction == "tx":
            return self.tx
        if direction == "rx":
            return self.rx
        raise ValueError(f"direction must be 'tx' or 'rx', got {direction!r}")

    def snapshot(self) -> dict:
        """Plain-dict view (stable keys, suitable for JSON or asserts)."""
        out = {"elapsed_s": self.elapsed()}
        for name, counters in (("tx", self.tx), ("rx", self.rx)):
            for spec in fields(counters):
                out[f"{name}_{spec.name}"] = getattr(counters, spec.name)
            out[f"{name}_mbps"] = self.mbps(name)
        return out

    def render(self, title: str = "session") -> str:
        """Human-readable two-row summary table."""
        head = (f"{title:<12} {'pkts':>8} {'payload B':>11} {'wire B':>11} "
                f"{'Mbps':>8} {'crc':>5} {'replay':>6} {'gaps':>5} {'rekey':>5}")
        rows = [head]
        for name, counters in (("tx", self.tx), ("rx", self.rx)):
            rows.append(
                f"  {name:<10} {counters.packets:>8} "
                f"{counters.payload_bytes:>11} {counters.wire_bytes:>11} "
                f"{self.mbps(name):>8.2f} {counters.crc_failures:>5} "
                f"{counters.replays:>6} {counters.gaps:>5} {counters.rekeys:>5}"
            )
        return "\n".join(rows)


class MetricsRegistry:
    """Aggregates the per-session metrics of a server (or client pool).

    A slot lives exactly as long as its session: held weakly, it folds
    into retired ``(tx, rx)`` aggregates once the session is garbage.
    :meth:`aggregate` stays lifetime-accurate while the live table is
    bounded by the sessions that exist, with no close hook or sweep.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._live = weakref.WeakValueDictionary()
        self._retired_tx = DirectionCounters()
        self._retired_rx = DirectionCounters()
        self._retired_count = 0
        # Dead slots' (tx, rx): appended by finalizers on any thread,
        # folded under the lock.
        self._dead: deque = deque()
        self._lock = threading.Lock()

    def session(self, name: str) -> SessionMetrics:
        """Create (or return the live) metrics slot for ``name``."""
        self._settle()  # keeps the dead-slot queue bounded
        with self._lock:
            metrics = self._live.get(name)
            if metrics is None:
                metrics = self._live[name] = SessionMetrics(self._clock)
                weakref.finalize(metrics, self._dead.append,
                                 (metrics.tx, metrics.rx))
        return metrics

    def _settle(self) -> tuple:
        """Fold dead slots; returns ``(live, tx, rx, retired)``: the live
        ``(name, slot)`` pairs (taken first, so none dies mid-read) and
        copies of the retired aggregates and count."""
        with self._lock:
            live = list(self._live.items())
            while self._dead:
                tx, rx = self._dead.popleft()
                self._retired_tx.add(tx)
                self._retired_rx.add(rx)
                self._retired_count += 1
            tx, rx = DirectionCounters(), DirectionCounters()
            tx.add(self._retired_tx)
            rx.add(self._retired_rx)
            return live, tx, rx, self._retired_count

    @property
    def sessions(self) -> dict[str, SessionMetrics]:
        """The live slots by name (a copy)."""
        return dict(self._settle()[0])

    @property
    def total_sessions(self) -> int:
        """Lifetime session count: live slots plus retired ones."""
        live, _, _, retired = self._settle()
        return len(live) + retired

    def aggregate(self) -> tuple[DirectionCounters, DirectionCounters]:
        """Summed ``(tx, rx)`` counters across live *and* retired sessions."""
        live, tx, rx, _ = self._settle()
        for _, metrics in live:
            tx.add(metrics.tx)
            rx.add(metrics.rx)
        return tx, rx

    def render(self) -> str:
        """All live sessions plus retired and total rows."""
        live, retired_tx, retired_rx, retired = self._settle()
        if not live and not retired:
            return "no sessions"
        parts = [metrics.render(name) for name, metrics in sorted(live)]
        if retired:
            parts.append(
                f"{'retired':<12} {retired} sessions, "
                f"tx {retired_tx.packets} pkts / "
                f"{retired_tx.payload_bytes} B, "
                f"rx {retired_rx.packets} pkts / "
                f"{retired_rx.payload_bytes} B"
            )
        tx, rx = self.aggregate()
        parts.append(
            f"{'total':<12} tx {tx.packets} pkts / {tx.payload_bytes} B, "
            f"rx {rx.packets} pkts / {rx.payload_bytes} B, "
            f"{rx.crc_failures} crc fail, {rx.replays} replays, "
            f"{rx.rekeys} rekeys"
        )
        return "\n".join(parts)
