"""Metrics registry: instruments, snapshots, and the shared quantile."""

import pytest

from repro.obs import MetricsRegistry, quantile, quantile_sorted
from repro.obs.registry import HISTOGRAM_RESERVOIR


class TestQuantile:
    def test_empty_returns_none(self):
        # Never an exception, never a fabricated zero.
        assert quantile([], 0.5) is None
        assert quantile_sorted([], 0.99) is None

    def test_single_sample(self):
        assert quantile([7.0], 0.0) == 7.0
        assert quantile([7.0], 1.0) == 7.0

    def test_nearest_rank_with_rounding(self):
        ordered = list(map(float, range(101)))
        assert quantile_sorted(ordered, 0.50) == 50.0
        assert quantile_sorted(ordered, 0.95) == 95.0
        assert quantile_sorted(ordered, 1.0) == 100.0

    def test_unsorted_input_is_sorted_first(self):
        assert quantile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_extreme_q_is_clamped(self):
        assert quantile_sorted([1.0, 2.0], 5.0) == 2.0
        assert quantile_sorted([1.0, 2.0], -5.0) == 1.0


class TestInstruments:
    def test_counter(self):
        registry = MetricsRegistry()
        c = registry.counter("net.messages_sent")
        c.inc()
        c.value += 2  # the hot-path form
        assert registry.counter("net.messages_sent") is c
        assert registry.counter_value("net.messages_sent") == 3
        assert registry.counter_value("never.touched") == 0

    def test_gauge(self):
        registry = MetricsRegistry()
        g = registry.gauge("store.convergence.lag_ms")
        assert g.value is None  # never observed
        g.set(12.5)
        assert registry.gauge("store.convergence.lag_ms").value == 12.5

    def test_histogram_aggregates(self):
        registry = MetricsRegistry()
        h = registry.histogram("client.latency_ms")
        for value in (1.0, 2.0, 3.0, 4.0):
            h.record(value)
        assert h.count == 4
        assert h.mean == 2.5
        assert (h.minimum, h.maximum) == (1.0, 4.0)
        assert h.percentile(0.5) == pytest.approx(3.0)

    def test_histogram_empty(self):
        h = MetricsRegistry().histogram("empty")
        assert h.mean is None
        assert h.percentile(0.95) is None
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["p95"] is None

    def test_histogram_reservoir_bounds_memory(self):
        h = MetricsRegistry().histogram("big")
        for index in range(HISTOGRAM_RESERVOIR + 100):
            h.record(float(index))
        # Exact aggregates keep counting past the reservoir ...
        assert h.count == HISTOGRAM_RESERVOIR + 100
        assert h.maximum == float(HISTOGRAM_RESERVOIR + 99)
        # ... while the sample buffer stops growing.
        assert len(h.samples) == HISTOGRAM_RESERVOIR


class TestRegistry:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a.hits").inc(5)
        registry.gauge("b.depth").set(2.0)
        registry.histogram("c.ms").record(10.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"a.hits": 5}
        assert snap["gauges"] == {"b.depth": 2.0}
        assert snap["histograms"]["c.ms"]["count"] == 1
        # JSON-safe throughout.
        import json

        json.dumps(snap)

    def test_counters_view_is_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc()
        registry.counter("a.first").inc(2)
        assert list(registry.counters()) == ["a.first", "z.last"]
        assert registry.counters() == {"a.first": 2, "z.last": 1}

    def test_names_union(self):
        registry = MetricsRegistry()
        registry.counter("one")
        registry.gauge("two")
        registry.histogram("three")
        assert registry.names() == ["one", "three", "two"]

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.clear()
        assert registry.names() == []
        assert registry.counter_value("x") == 0
