"""Lightweight metrics registry: counters, gauges, histograms.

Besides the span stream, the pipeline counts things in two other shapes
— the artifact store's per-kind :class:`~repro.pipeline.store.KindStats`
and the engine throughput counters in :mod:`repro.cachesim.stats` and
:mod:`repro.framework.fasttrace`.  The registry is the one surface that
can absorb them: flat dot-separated metric names, three instrument
types, and a snapshot / diff / merge lifecycle for shipping worker
deltas to the grid parent.

Instruments
-----------
* **counter** — monotonically increasing float/int (``inc``);
* **gauge** — last-written value (``set_gauge``); merging keeps the
  maximum, which is the useful aggregate for high-water marks;
* **histogram** — streaming count/sum/min/max plus power-of-two bucket
  counts (``observe``), cheap enough for per-span latencies.

Snapshots are plain dicts (JSON-ready).  Each observed run owns a
registry (:attr:`repro.observability.run.RunContext.metrics`) and its
manifest embeds that registry's snapshot.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "diff_metrics",
    "absorb_store_stats",
    "engine_counters",
]

#: Upper bucket bounds: powers of two from 1 µs up to ~17 min, in seconds
#: (also serviceable for byte sizes when observing in bytes).
_BUCKET_BOUNDS = tuple(2.0**e for e in range(-20, 11))


class Histogram:
    """Streaming histogram with fixed power-of-two buckets."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets = [0] * (len(_BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(_BUCKET_BOUNDS):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
        }

    def merge(self, other: dict) -> None:
        """Fold a snapshot dict produced by :meth:`as_dict` into this."""
        if not other.get("count"):
            return
        self.count += other["count"]
        self.total += other["sum"]
        self.min = min(self.min, other["min"])
        self.max = max(self.max, other["max"])


class MetricsRegistry:
    """Lock-guarded name-keyed instruments with snapshot/diff/merge."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- writers -------------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add to a counter (created at zero on first use)."""
        if value < 0:
            raise ValueError(f"counter {name!r} cannot decrease (got {value})")
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into a histogram."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    # -- readers -------------------------------------------------------------
    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        with self._lock:
            return self._gauges.get(name)

    def histogram(self, name: str) -> dict | None:
        with self._lock:
            hist = self._histograms.get(name)
            return hist.as_dict() if hist else None

    def snapshot(self) -> dict:
        """JSON-ready copy: ``{"counters": ..., "gauges": ..., "histograms": ...}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: h.as_dict() for k, h in self._histograms.items()},
            }

    # -- lifecycle -----------------------------------------------------------
    def merge(self, delta: dict) -> None:
        """Fold another snapshot (e.g. from a grid worker) into this one.

        Counters and histogram totals add; gauges keep the maximum seen
        (the aggregate that stays meaningful for high-water marks).
        """
        for name, value in delta.get("counters", {}).items():
            self.inc(name, value)
        with self._lock:
            for name, value in delta.get("gauges", {}).items():
                current = self._gauges.get(name)
                self._gauges[name] = value if current is None else max(current, value)
            for name, snap in delta.get("histograms", {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = Histogram()
                hist.merge(snap)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def diff_metrics(after: dict, before: dict) -> dict:
    """Counter-wise difference of two snapshots (worker job deltas).

    Gauges and histograms are carried from ``after`` as-is when changed —
    gauges have no meaningful subtraction, and histogram deltas beyond
    count/sum are not needed by any consumer.
    """
    counters = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0)
        if delta:
            counters[name] = delta
    gauges = {
        name: value
        for name, value in after.get("gauges", {}).items()
        if before.get("gauges", {}).get(name) != value
    }
    histograms = {
        name: snap
        for name, snap in after.get("histograms", {}).items()
        if before.get("histograms", {}).get(name) != snap
    }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


# -- adapters for the pre-existing counter surfaces --------------------------

def absorb_store_stats(registry: MetricsRegistry, store_stats) -> None:
    """Fold a :class:`~repro.pipeline.store.StoreStats` into the registry.

    Emits ``store.<kind>.<field>`` counters (hits, misses, stores,
    quarantined, put_errors, bytes read/written) so store activity and
    span timings live behind one query surface.
    """
    for kind, stats in store_stats.snapshot().items():
        for field, value in stats.as_dict().items():
            if value:
                registry.inc(f"store.{kind}.{field}", value)


def engine_counters() -> dict:
    """This process's engine throughput counters, as a metrics snapshot.

    Covers the cache-simulation counters (:mod:`repro.cachesim.stats`)
    and the trace-builder counters (``repro.framework.fasttrace``) as
    ``engine.<domain>.<engine>.<field>`` counters.  They accumulate for
    the process lifetime, so callers report :func:`diff_metrics` of two
    readings: a run from its start, a grid worker per job.
    """
    from repro.cachesim import stats as sim_stats
    from repro.framework.fasttrace import BUILD_STATS

    counters = {}
    for domain, engines in (
        ("cachesim", sim_stats.snapshot()),
        ("tracebuild", BUILD_STATS.snapshot()),
    ):
        for engine, s in engines.items():
            for field in ("calls", "runs", "accesses", "seconds"):
                counters[f"engine.{domain}.{engine}.{field}"] = getattr(s, field)
    return {"counters": counters, "gauges": {}, "histograms": {}}
