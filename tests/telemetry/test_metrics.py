"""Unit tests for the metrics registry and Prometheus exposition."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    MetricsRegistry,
)
from repro.telemetry import counter_delta


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total")
        counter.inc()
        counter.inc(3)
        assert registry.counter_values()["repro_test_total"] == 4.0

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")

    def test_labeled_children_are_cached(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_transport_bytes_total")
        data = family.labels(channel="data")
        assert family.labels(channel="data") is data
        assert family.labels(channel="jobs") is not data

    def test_label_order_is_canonical(self):
        family = MetricsRegistry().counter("x_total")
        assert family.labels(a=1, b=2) is family.labels(b=2, a=1)

    def test_untouched_default_series_not_rendered(self):
        registry = MetricsRegistry()
        registry.counter("quiet_total", help="never incremented")
        text = registry.render_prometheus()
        assert "# TYPE quiet_total counter" in text
        assert "\nquiet_total " not in text

    def test_counter_values_excludes_other_kinds(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        registry.gauge("g").set(7)
        registry.histogram("h_seconds").observe(0.2)
        assert set(registry.counter_values()) == {"c_total"}


class TestGauge:
    def test_set_and_inc(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_queue_depth")
        gauge.set(5)
        gauge.inc(2)
        assert registry.values()["repro_queue_depth"] == 7.0

    def test_zero_gauge_still_rendered(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(0)
        assert "\ndepth 0" in "\n" + registry.render_prometheus()


class TestHistogram:
    def test_observe_fills_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = registry.render_prometheus()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_sum 5.55" in text
        assert "lat_seconds_count 3" in text

    def test_default_buckets_are_latency_shaped(self):
        assert DEFAULT_BUCKETS[0] == 0.001
        assert DEFAULT_BUCKETS[-1] == 10.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_values_exposes_count_and_sum(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds").observe(0.25)
        values = registry.values()
        assert values["h_seconds_count"] == 1.0
        assert values["h_seconds_sum"] == 0.25


class TestRegistry:
    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("thing_total")

    def test_families_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("z_total")
        registry.counter("a_total")
        assert [f.name for f in registry.families()] == ["a_total", "z_total"]

    def test_render_prometheus_shape(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_msgs_total", help="messages moved")
        family.labels(channel="data").inc(10)
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert "# HELP repro_msgs_total messages moved" in lines
        assert "# TYPE repro_msgs_total counter" in lines
        assert 'repro_msgs_total{channel="data"} 10' in lines
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestCounterDelta:
    def test_counts_from_zero_for_new_series(self):
        assert counter_delta({}, {"a_total": 3.0}) == {"a_total": 3.0}

    def test_zero_deltas_dropped(self):
        before = {"a_total": 3.0, "b_total": 1.0}
        after = {"a_total": 3.0, "b_total": 4.0}
        assert counter_delta(before, after) == {"b_total": 3.0}

    def test_keys_filter(self):
        after = {"a_total": 1.0, "b_total": 2.0}
        assert counter_delta({}, after, keys=["b_total", "missing"]) == {"b_total": 2.0}


class TestAddCounterValues:
    def test_round_trips_counter_values_with_labels(self):
        source = MetricsRegistry()
        source.counter("a_total").inc(2)
        source.counter("b_total").labels(channel="data").inc(3)
        target = MetricsRegistry()
        target.counter("a_total").inc(1)
        target.add_counter_values(source.counter_values())
        assert target.counter_values() == {"a_total": 3.0, 'b_total{channel="data"}': 3.0}

    def test_concurrent_folds_lose_no_increment(self):
        # More folding threads than cores, switching as often as the
        # interpreter allows: an unguarded `+=` loses increments here.
        registry = MetricsRegistry()
        delta = {"a_total": 1.0, 'b_total{channel="data"}': 2.0}
        n_threads, n_folds = 8, 2000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda: [registry.add_counter_values(delta) for _ in range(n_folds)]
                )
                for _ in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        total = n_threads * n_folds
        assert registry.counter_values() == {"a_total": total, 'b_total{channel="data"}': 2 * total}


class TestNullSeries:
    def test_all_updates_are_noops(self):
        NULL_COUNTER.inc()
        NULL_GAUGE.set(10)
        NULL_HISTOGRAM.observe(1.0)
        assert NULL_COUNTER.labels(channel="data") is NULL_COUNTER
