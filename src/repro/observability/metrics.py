"""Lightweight metrics registry: counters, gauges, histograms.

Stage spans say where a run's time went and which engine ran; the
registry holds the few numbers that are not spans.  The serving layer
counts requests, sources and queue depth in one, and each observed run
owns one (:attr:`repro.observability.run.RunContext.metrics`) that its
callers publish gauges into, for example the ablation harness's
headline metrics.  The run's manifest embeds that registry's snapshot.

Instruments
-----------
* **counter** — monotonically increasing float/int (``inc``);
* **gauge** — last-written value (``set_gauge``);
* **histogram** — streaming count/sum/min/max (``observe``), cheap
  enough for per-request latencies.

Snapshots are plain dicts (JSON-ready).
"""

from __future__ import annotations

import math
import threading

__all__ = ["Histogram", "MetricsRegistry"]


class Histogram:
    """Streaming count, sum, minimum and maximum of observed values."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

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


class MetricsRegistry:
    """Lock-guarded name-keyed instruments with JSON-ready snapshots."""

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

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
