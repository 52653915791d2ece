"""Tests for the metrics registry."""

from __future__ import annotations

import json
import pickle
import threading

import pytest

from repro.obs import SNAPSHOT_SCHEMA, MetricsRegistry, atomic_write_text
from repro.obs.metrics import Counter, Gauge, Histogram


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="only increase"):
            MetricsRegistry().counter("c").inc(-1)

    def test_same_name_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="is a counter"):
            registry.gauge("x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")


class TestGauge:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("g")
        assert gauge.value is None
        gauge.set(1.5)
        gauge.set(2.5)
        assert gauge.value == 2.5


class TestHistogram:
    def test_streaming_summary(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.count == 0 and hist.mean is None
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.min == 1.0 and hist.max == 3.0
        assert hist.mean == pytest.approx(2.0)


class TestMerge:
    def test_counters_and_histograms_accumulate(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.histogram("h").observe(1.0)
        b.gauge("g").set(7.0)
        a.merge(b)
        assert a.counter("c").value == 5
        assert a.histogram("h").count == 1
        assert a.gauge("g").value == 7.0

    def test_merge_creates_zero_valued_metrics(self):
        """A merged snapshot carries the full catalogue, even untouched
        metrics — consumers assert == 0 instead of special-casing absence."""
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("never_incremented")
        a.merge(b)
        assert "never_incremented" in a
        assert a.value("never_incremented") == 0

    def test_unset_gauge_does_not_clobber(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g")
        a.merge(b)
        assert a.gauge("g").value == 1.0


class TestSnapshot:
    def test_schema_and_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(0.5)
        registry.histogram("h").observe(2.0)
        snapshot = registry.snapshot()
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert snapshot["metrics"]["c"] == {"type": "counter", "value": 1}
        assert snapshot["metrics"]["g"] == {"type": "gauge", "value": 0.5}
        hist = snapshot["metrics"]["h"]
        assert hist["type"] == "histogram"
        assert hist["count"] == 1 and hist["mean"] == 2.0

    def test_write_json_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(9)
        path = registry.write_json(tmp_path / "deep" / "metrics.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == SNAPSHOT_SCHEMA
        assert payload["metrics"]["c"]["value"] == 9

    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = atomic_write_text(tmp_path / "out.json", "old\n")

        def crash(source, target):
            raise OSError("disk gone")

        monkeypatch.setattr("repro.obs.metrics.os.replace", crash)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write_text(path, "new\n")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestConcurrencyAndPickling:
    def test_threaded_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000

    def test_pickle_round_trip_preserves_values(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(4)
        registry.histogram("h").observe(1.5)
        restored = pickle.loads(pickle.dumps(registry))
        assert restored.counter("c").value == 4
        assert restored.histogram("h").total == 1.5
        # The restored registry is fully usable (lock recreated).
        restored.counter("c").inc()
        assert restored.counter("c").value == 5

    def test_metric_classes_exported(self):
        registry = MetricsRegistry()
        assert isinstance(registry.counter("c"), Counter)
        assert isinstance(registry.gauge("g"), Gauge)
        assert isinstance(registry.histogram("h"), Histogram)
