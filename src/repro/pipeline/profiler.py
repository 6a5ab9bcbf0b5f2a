"""Per-cell pipeline stage profiler for the experiment engine.

Producing one grid cell walks a fixed pipeline — generate the dataset,
compute the mapping, relabel the CSR, build the super-step trace, simulate
it, convert counters to cycles.  Which stage dominates decides what is
worth optimizing next (PR 1's compiled simulator moved the bottleneck from
``simulate`` into ``trace``/``mapping``; this PR's trace kernels move it
again), so :class:`ExperimentRunner` times every stage it executes against
the process-global :data:`PROFILER`.

Counters are process-local.  The parallel grid runner snapshots the
profiler around each cell inside every worker and ships the per-cell
deltas back with the result, so :meth:`ExperimentRunner.run_grid`
aggregates one coherent breakdown no matter how the cells were
distributed.  Cache hits count as (cheap) calls of the stage they
short-circuit — a warm cache shows up as near-zero stage time, not as
missing data.

Since the observability subsystem landed, the profiler is a *consumer*
of the span stream rather than an independent clock: :meth:`StageProfiler.stage`
opens a span on the process-global :data:`repro.observability.TRACER`
(tagged ``kind="stage"``) and records the span's measured wall time into
its accumulators, and :meth:`StageProfiler.count_cache_hit` emits the
matching ``kind="cache_hit"`` point event.  One measurement feeds both
the per-run ``events.jsonl`` and this breakdown, so the two can never
disagree about where the time went.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.observability.tracing import TRACER

__all__ = [
    "STAGES",
    "StageStats",
    "StageProfiler",
    "PROFILER",
    "diff_snapshots",
]

#: Pipeline stages in execution order (display order, too).
#: ``plan`` records an application's execution plan on the original
#: ordering (memory-resident; every technique's trace remaps it).
#: ``trace+simulate`` is the fused streaming alternative to the
#: trace → simulate pair, selected per cell by the byte budget.
STAGES = (
    "generate",
    "mapping",
    "relabel",
    "plan",
    "trace",
    "simulate",
    "trace+simulate",
    "model",
)


@dataclass
class StageStats:
    """Accumulated wall time and call count for one stage."""

    calls: int = 0
    seconds: float = 0.0
    #: Calls served from the disk cache instead of computed.
    cache_hits: int = 0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "cache_hits": self.cache_hits,
        }


class StageProfiler:
    """Lock-guarded per-stage wall-time accumulators."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: dict[str, StageStats] = {}

    @contextmanager
    def stage(self, name: str, **tags):
        """Time a ``with`` block against stage ``name``.

        The block runs inside a tracer span (``kind="stage"`` plus any
        extra ``tags``); the span's wall clock is the single measurement
        recorded here *and* streamed to the run's event log.
        """
        span_ctx = TRACER.span(name, kind="stage", **tags)
        span = span_ctx.__enter__()
        try:
            yield
        except BaseException:
            span_ctx.__exit__(*sys.exc_info())
            self.record(name, span.wall_s)
            raise
        span_ctx.__exit__(None, None, None)
        self.record(name, span.wall_s)

    def record(
        self, name: str, seconds: float, calls: int = 1, cache_hits: int = 0
    ) -> None:
        with self._lock:
            stats = self._stages.setdefault(name, StageStats())
            stats.calls += calls
            stats.seconds += seconds
            stats.cache_hits += cache_hits

    def count_cache_hit(self, name: str, **tags) -> None:
        """Mark one call of ``name`` as served from cache (no extra time)."""
        TRACER.event(name, kind="cache_hit", **tags)
        self.record(name, 0.0, calls=0, cache_hits=1)

    def snapshot(self) -> dict[str, StageStats]:
        """Copy of the per-stage counters accumulated so far."""
        with self._lock:
            return {
                name: StageStats(s.calls, s.seconds, s.cache_hits)
                for name, s in self._stages.items()
            }

    def merge(self, delta: dict[str, StageStats]) -> None:
        """Fold another snapshot (e.g. from a grid worker) into this one."""
        for name, s in delta.items():
            self.record(name, s.seconds, calls=s.calls, cache_hits=s.cache_hits)

    def reset(self) -> None:
        with self._lock:
            self._stages.clear()

    def format_snapshot(self, counters: dict[str, StageStats] | None = None) -> str:
        """Human-readable breakdown, known stages first, heaviest visible."""
        counters = self.snapshot() if counters is None else counters
        if not counters:
            return "pipeline: no stages recorded"
        total = sum(s.seconds for s in counters.values())
        names = [n for n in STAGES if n in counters]
        names += sorted(n for n in counters if n not in STAGES)
        lines = []
        for name in names:
            s = counters[name]
            share = 100.0 * s.seconds / total if total > 0 else 0.0
            hit = f", {s.cache_hits} cached" if s.cache_hits else ""
            lines.append(
                f"{name:>9}: {s.seconds:8.3f}s  {share:5.1f}%  ({s.calls} calls{hit})"
            )
        return "\n".join(lines)


def diff_snapshots(
    after: dict[str, StageStats], before: dict[str, StageStats]
) -> dict[str, StageStats]:
    """Per-stage difference ``after - before`` (for worker cell deltas)."""
    delta: dict[str, StageStats] = {}
    for name, s in after.items():
        b = before.get(name, StageStats())
        calls = s.calls - b.calls
        seconds = s.seconds - b.seconds
        hits = s.cache_hits - b.cache_hits
        if calls or hits or seconds > 0:
            delta[name] = StageStats(calls, seconds, hits)
    return delta


#: Process-global profiler the experiment engine records into.
PROFILER = StageProfiler()
