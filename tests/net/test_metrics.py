"""Tests for the link metrics layer (deterministic via a fake clock)."""

import pytest

from repro.net.metrics import DirectionCounters, MetricsRegistry, SessionMetrics


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestSessionMetrics:
    def test_mbps_from_payload_bytes(self):
        clock = FakeClock()
        metrics = SessionMetrics(clock)
        metrics.rx.payload_bytes = 1_000_000
        metrics.rx.wire_bytes = 1_500_000
        clock.now += 2.0
        assert metrics.mbps("rx") == pytest.approx(4.0)
        assert metrics.wire_mbps("rx") == pytest.approx(6.0)
        assert metrics.mbps("tx") == 0.0

    def test_elapsed_never_zero(self):
        metrics = SessionMetrics(FakeClock())
        assert metrics.elapsed() > 0

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            SessionMetrics(FakeClock()).mbps("sideways")

    def test_snapshot_keys(self):
        metrics = SessionMetrics(FakeClock())
        metrics.tx.packets = 3
        snap = metrics.snapshot()
        assert snap["tx_packets"] == 3
        assert snap["rx_packets"] == 0
        assert "rx_mbps" in snap and "elapsed_s" in snap

    def test_render_mentions_both_directions(self):
        text = SessionMetrics(FakeClock()).render("mylink")
        assert "mylink" in text
        assert "tx" in text and "rx" in text


class TestDirectionCounters:
    def test_add_accumulates_every_field(self):
        a = DirectionCounters(packets=1, payload_bytes=10, wire_bytes=20,
                              crc_failures=1, replays=2, gaps=3, rekeys=4)
        b = DirectionCounters(packets=2, payload_bytes=5, wire_bytes=7,
                              crc_failures=1, replays=1, gaps=1, rekeys=1)
        a.add(b)
        assert a == DirectionCounters(packets=3, payload_bytes=15,
                                      wire_bytes=27, crc_failures=2,
                                      replays=3, gaps=4, rekeys=5)

    def test_overhead_ratio(self):
        counters = DirectionCounters(payload_bytes=100, wire_bytes=150)
        assert counters.overhead_ratio == pytest.approx(1.5)
        assert DirectionCounters().overhead_ratio == 0.0


class TestRegistry:
    def test_session_slots_are_stable(self):
        registry = MetricsRegistry(FakeClock())
        first = registry.session("peer-0")
        assert registry.session("peer-0") is first

    def test_aggregate_sums_sessions(self):
        registry = MetricsRegistry(FakeClock())
        registry.session("a").rx.packets = 2
        registry.session("b").rx.packets = 5
        registry.session("b").tx.payload_bytes = 11
        tx, rx = registry.aggregate()
        assert rx.packets == 7
        assert tx.payload_bytes == 11

    def test_render_empty_and_populated(self):
        registry = MetricsRegistry(FakeClock())
        assert registry.render() == "no sessions"
        slot = registry.session("peer-0")
        slot.rx.packets = 1
        text = registry.render()
        assert "peer-0" in text and "total" in text


class TestRegistryEviction:
    """The registry must stay bounded by the sessions that exist."""

    def test_dropped_session_folds_counters_into_lifetime_aggregate(self):
        registry = MetricsRegistry(FakeClock())
        a, b = registry.session("a"), registry.session("b")
        a.record_rx(100, 150)
        a.record_tx(40, 60)
        b.record_rx(10, 15)
        del a
        assert "a" not in registry.sessions
        assert registry.total_sessions == 2  # one live + one retired
        tx, rx = registry.aggregate()
        assert rx.packets == 2
        assert rx.payload_bytes == 110
        assert tx.payload_bytes == 40

    def test_dict_stays_bounded_under_churn(self):
        registry = MetricsRegistry(FakeClock())
        for i in range(1000):
            registry.session(f"peer-{i}").record_rx(1, 2)
        assert registry.sessions == {}
        assert registry.total_sessions == 1000
        _, rx = registry.aggregate()
        assert rx.packets == 1000

    def test_render_shows_retired_row(self):
        registry = MetricsRegistry(FakeClock())
        registry.session("a").record_rx(3, 5)
        text = registry.render()
        assert "retired" in text
        assert "total" in text
        assert registry.render() != "no sessions"
