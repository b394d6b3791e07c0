"""Instrument math and registry semantics (clock-injected, deterministic)."""

import pytest

from repro.obs import core as obs
from repro.obs.core import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    NULL_INSTRUMENT,
    ObsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("repro_things_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_rejects_negative_increments(self):
        counter = Counter("repro_things_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)
        assert counter.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("repro_level")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(12)
        assert gauge.value == 3
        gauge.dec(10)
        assert gauge.value == -7  # unlike counters, gauges may go down


class TestHistogram:
    def test_bucket_assignment_inclusive_upper_bounds(self):
        histogram = Histogram("repro_lat_seconds", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.001, 0.005, 0.05, 0.5):
            histogram.observe(value)
        # 0.001 lands in its own (inclusive) bucket, 0.5 in +Inf.
        assert histogram.bucket_counts == (2, 1, 1, 1)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(0.5565)

    def test_quantile_interpolates_within_bucket(self):
        histogram = Histogram("repro_lat_seconds", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 0.5):
            histogram.observe(value)
        # rank(0.5) = 2 -> second bucket (0.001, 0.01], full fraction.
        assert histogram.quantile(0.5) == pytest.approx(0.01)
        # rank(0.25) = 1 -> first bucket, interpolated from 0.
        assert histogram.quantile(0.25) == pytest.approx(0.001)

    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram("repro_lat_seconds").quantile(0.99) == 0.0

    def test_quantile_beyond_last_bound_reports_the_bound(self):
        histogram = Histogram("repro_lat_seconds", buckets=(0.001, 0.01))
        histogram.observe(99.0)  # +Inf bucket
        assert histogram.quantile(0.5) == 0.01

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram("repro_lat_seconds").quantile(1.5)

    def test_buckets_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("repro_lat_seconds", buckets=(0.1, 0.1))
        with pytest.raises(ValueError, match="ascending"):
            Histogram("repro_lat_seconds", buckets=())

    def test_default_buckets_cover_cipher_to_pool_scale(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-4)
        assert DEFAULT_LATENCY_BUCKETS[-1] == pytest.approx(5.0)
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestRegistry:
    def test_same_name_and_labels_is_the_same_instrument(self, registry):
        one = registry.counter("repro_x_total", op="encrypt")
        two = registry.counter("repro_x_total", op="encrypt")
        other = registry.counter("repro_x_total", op="decrypt")
        assert one is two
        assert one is not other

    def test_label_order_is_irrelevant(self, registry):
        assert (registry.counter("repro_x_total", a="1", b="2")
                is registry.counter("repro_x_total", b="2", a="1"))

    def test_kind_conflict_raises(self, registry):
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("repro_x_total")
        with pytest.raises(ValueError, match="is a counter"):
            registry.histogram("repro_x_total", op="other-labels-too")

    def test_invalid_names_and_labels_rejected(self, registry):
        with pytest.raises(ValueError, match="metric name"):
            registry.counter("repro bad name")
        with pytest.raises(ValueError, match="label name"):
            registry.counter("repro_ok_total", **{"bad-label": "x"})

    def test_time_block_uses_the_injected_clock(self, registry, clock):
        start = registry.clock()
        assert start == clock.now
        clock.advance(0.25)
        registry.histogram("repro_op_seconds").observe(registry.clock() - start)
        histogram = registry.histogram("repro_op_seconds")
        assert histogram.count == 1
        assert histogram.sum == pytest.approx(0.25)

    def test_snapshot_keys_and_histogram_stats(self, registry):
        registry.counter("repro_ops_total", op="encrypt").inc(3)
        registry.gauge("repro_active").set(2)
        registry.histogram("repro_op_seconds").observe(0.02)
        snap = registry.snapshot()
        assert snap["enabled"] is True
        assert snap["counters"] == {"repro_ops_total{op=encrypt}": 3}
        assert snap["gauges"] == {"repro_active": 2}
        stats = snap["histograms"]["repro_op_seconds"]
        assert stats["count"] == 1
        assert stats["sum"] == pytest.approx(0.02)
        assert 0.0 < stats["p50"] <= 0.025

    def test_snapshot_is_json_able(self, registry):
        import json

        registry.counter("repro_ops_total").inc()
        registry.histogram("repro_lat_seconds").observe(0.01)
        json.dumps(registry.snapshot())  # must not raise

    def test_reset_drops_instruments(self, registry):
        registry.counter("repro_ops_total").inc(7)
        registry.reset()
        assert registry.snapshot()["counters"] == {}
        # Recreated fresh after reset.
        assert registry.counter("repro_ops_total").value == 0

    def test_render_lists_every_series(self, registry):
        registry.counter("repro_ops_total", op="encrypt").inc(5)
        registry.histogram("repro_lat_seconds").observe(0.003)
        text = registry.render()
        assert "repro_ops_total{op=encrypt}" in text
        assert "repro_lat_seconds" in text
        assert "n=1" in text

    def test_render_empty_registry(self, registry):
        assert registry.render() == "obs: no instruments recorded"


class TestGlobalRegistry:
    def test_enable_disable_round_trip(self):
        obs.set_registry(None)
        assert not obs.get_registry().enabled
        live = obs.enable()
        assert obs.get_registry().enabled
        assert obs.get_registry() is live
        assert obs.enable() is live  # idempotent without an argument
        obs.disable()
        assert not obs.get_registry().enabled
        assert obs.get_registry().counter("repro_x_total") is NULL_INSTRUMENT

    def test_set_registry_returns_previous(self):
        first = ObsRegistry()
        previous = obs.set_registry(first)
        try:
            second = ObsRegistry()
            assert obs.set_registry(second) is first
            assert obs.get_registry() is second
        finally:
            obs.set_registry(previous if previous.enabled else None)
