"""Tests for the fleet metrics registry (repro.obs.metrics)."""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    merge_snapshots,
)
from repro.options import METRICS_ENV_VAR, RunOptions


class TestCounterGauge:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_counter_rejects_negative(self):
        counter = Counter("c")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_gauge_set_and_set_max(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set_max(2.0)
        assert gauge.value == 3.0
        gauge.set_max(7.0)
        assert gauge.value == 7.0


class TestHistogramBuckets:
    """The fixed-log-bucket boundary semantics: bucket i covers
    [start * factor**i, start * factor**(i+1)), half-open."""

    def make(self, start=1.0, factor=2.0, n_buckets=4):
        return Histogram("h", start=start, factor=factor,
                         n_buckets=n_buckets)

    def test_underflow(self):
        hist = self.make()
        assert hist.bucket_index(0.999) == -1
        assert hist.bucket_index(0.0) == -1
        hist.observe(0.5)
        assert hist.underflow == 1
        assert sum(hist.counts) == 0

    def test_overflow(self):
        hist = self.make()  # top edge = 1 * 2**4 = 16
        assert hist.bucket_index(16.0) == 4
        assert hist.bucket_index(1e300) == 4
        hist.observe(16.0)
        assert hist.overflow == 1

    def test_exact_lower_edges_belong_to_their_bucket(self):
        hist = self.make()
        for i, edge in enumerate((1.0, 2.0, 4.0, 8.0)):
            assert hist.bucket_index(edge) == i, edge

    def test_values_just_below_edges(self):
        hist = self.make()
        assert hist.bucket_index(1.9999999) == 0
        assert hist.bucket_index(3.9999999) == 1
        assert hist.bucket_index(15.9999999) == 3

    def test_observe_tracks_sum_and_count(self):
        hist = self.make()
        for value in (0.5, 1.0, 3.0, 100.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(104.5)

    def test_non_integer_factor_edges(self):
        # factor 1.5 exercises float-log rounding against the
        # precomputed edges.
        hist = self.make(start=50.0, factor=1.5, n_buckets=24)
        for i in range(24):
            edge = 50.0 * 1.5 ** i
            assert hist.bucket_index(edge) == i
            assert hist.bucket_index(math.nextafter(edge, 0.0)) == i - 1

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", start=0.0, factor=2.0, n_buckets=4)
        with pytest.raises(ConfigurationError):
            Histogram("h", start=1.0, factor=1.0, n_buckets=4)
        with pytest.raises(ConfigurationError):
            Histogram("h", start=1.0, factor=2.0, n_buckets=0)


def snap_a():
    registry = MetricsRegistry(enabled=True)
    registry.counter("cells").inc(3)
    registry.gauge("rss").set(100.0)
    hist = registry.histogram("lat", start=1.0, factor=2.0, n_buckets=4)
    hist.observe(1.5)
    hist.observe(0.2)
    return registry.snapshot()


def snap_b():
    registry = MetricsRegistry(enabled=True)
    registry.counter("cells").inc(4)
    registry.counter("extra").inc(1)
    registry.gauge("rss").set(250.0)
    hist = registry.histogram("lat", start=1.0, factor=2.0, n_buckets=4)
    hist.observe(40.0)
    return registry.snapshot()


def snap_c():
    registry = MetricsRegistry(enabled=True)
    registry.gauge("rss").set(50.0)
    hist = registry.histogram("lat", start=1.0, factor=2.0, n_buckets=4)
    hist.observe(2.0)
    hist.observe(8.0)
    return registry.snapshot()


class TestSnapshotMerge:
    def test_counters_sum_gauges_max_histograms_add(self):
        merged = snap_a().merge(snap_b())
        assert merged.counters["cells"] == 7
        assert merged.counters["extra"] == 1
        assert merged.gauges["rss"] == 250.0
        hist = merged.histograms["lat"]
        assert hist["count"] == 3
        assert hist["underflow"] == 1
        assert hist["overflow"] == 1
        assert sum(hist["counts"]) == 1

    def test_merge_associative_and_commutative(self):
        snaps = [snap_a(), snap_b(), snap_c()]
        left = snaps[0].merge(snaps[1]).merge(snaps[2])
        right = snaps[0].merge(snaps[1].merge(snaps[2]))
        folded = merge_snapshots(list(reversed(snaps)))
        assert left.to_dict() == right.to_dict()
        assert left.to_dict() == folded.to_dict()

    def test_merge_rejects_geometry_mismatch(self):
        registry = MetricsRegistry(enabled=True)
        registry.histogram("lat", start=2.0, factor=2.0, n_buckets=4)
        with pytest.raises(ConfigurationError):
            snap_a().merge(registry.snapshot())

    def test_empty_merge_is_identity(self):
        snapshot = snap_a()
        merged = MetricsSnapshot().merge(snapshot)
        assert merged.to_dict() == snapshot.to_dict()


class TestSerialization:
    def test_json_round_trip(self):
        snapshot = snap_a()
        data = json.loads(snapshot.to_json())
        assert data["metrics_schema"] == METRICS_SCHEMA_VERSION
        restored = MetricsSnapshot.from_dict(data)
        assert restored.to_dict() == snapshot.to_dict()

    def test_schema_mismatch_rejected(self):
        data = snap_a().to_dict()
        data["metrics_schema"] = 999
        with pytest.raises(ConfigurationError):
            MetricsSnapshot.from_dict(data)

    def test_prometheus_text_format(self):
        text = snap_a().to_prometheus_text()
        assert "# TYPE cells counter" in text
        assert "cells 3" in text
        assert "# TYPE rss gauge" in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_count 2" in text
        # Cumulative buckets never decrease.
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines()
                  if line.startswith("lat_bucket")]
        assert counts == sorted(counts)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry(enabled=True)
        assert registry.counter("c") is registry.counter("c")

    def test_cross_type_name_rejected(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_histogram_geometry_mismatch_rejected(self):
        registry = MetricsRegistry(enabled=True)
        registry.histogram("h", start=1.0, factor=2.0, n_buckets=4)
        with pytest.raises(ConfigurationError):
            registry.histogram("h", start=1.0, factor=4.0, n_buckets=4)

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("c")
        counter.inc(5)
        hist = registry.histogram("h", start=1.0, factor=2.0, n_buckets=4)
        hist.observe(3.0)
        registry.reset()
        assert registry.counter("c") is counter
        assert counter.value == 0
        assert hist.count == 0
        assert sum(hist.counts) == 0

    def test_absorb_accumulates_worker_snapshot(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("cells").inc(1)
        registry.absorb(snap_a())
        registry.absorb(snap_b())
        snapshot = registry.snapshot()
        assert snapshot.counters["cells"] == 8
        assert snapshot.gauges["rss"] == 250.0
        assert snapshot.histograms["lat"]["count"] == 3

    def test_disabled_by_default_guard_contract(self):
        # Sites guard with `if registry.enabled:`; a fresh registry is
        # disabled so guarded sites register nothing at all.
        registry = MetricsRegistry()
        assert not registry.enabled
        if registry.enabled:  # the guard every instrumentation site uses
            registry.counter("c").inc()
        assert registry.snapshot().counters == {}


class TestEnablement:
    def test_env_round_trip(self, monkeypatch):
        monkeypatch.delenv(METRICS_ENV_VAR, raising=False)
        assert not RunOptions.from_env().metrics
        monkeypatch.setenv(METRICS_ENV_VAR, "1")
        assert RunOptions.from_env().metrics
        monkeypatch.delenv(METRICS_ENV_VAR)
        assert not RunOptions.from_env().metrics

    def test_falsey_values(self, monkeypatch):
        for value in ("", "0", "false", "no", "off"):
            monkeypatch.setenv(METRICS_ENV_VAR, value)
            assert not RunOptions.from_env().metrics
        monkeypatch.setenv(METRICS_ENV_VAR, "1")
        assert RunOptions.from_env().metrics
