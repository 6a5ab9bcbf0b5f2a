"""Metrics registry unit tests: instruments and snapshots."""

from __future__ import annotations

import pytest

from repro.observability.metrics import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counters_accumulate(self, registry):
        registry.inc("store.hits")
        registry.inc("store.hits", 4)
        assert registry.counter("store.hits") == 5
        assert registry.counter("never.touched") == 0

    def test_counters_reject_negative(self, registry):
        with pytest.raises(ValueError):
            registry.inc("store.hits", -1)

    def test_gauges_keep_last_value(self, registry):
        registry.set_gauge("workers", 2)
        registry.set_gauge("workers", 4)
        assert registry.gauge("workers") == 4
        assert registry.gauge("missing") is None

    def test_histogram_tracks_distribution(self, registry):
        for value in (0.5, 1.5, 8.0):
            registry.observe("stage.seconds", value)
        hist = registry.histogram("stage.seconds")
        assert hist["count"] == 3
        assert hist["min"] == 0.5
        assert hist["max"] == 8.0
        assert hist["sum"] == pytest.approx(10.0)
        assert hist["mean"] == pytest.approx(10.0 / 3)


class TestSnapshotDiffMerge:
    def test_snapshot_shape(self, registry):
        registry.inc("c")
        registry.set_gauge("g", 1)
        registry.observe("h", 2.0)
        snap = registry.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]["c"] == 1

    def test_reset(self, registry):
        registry.inc("c")
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
