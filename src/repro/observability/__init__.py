"""Run-level observability for the experiment pipeline.

Three cooperating pieces:

* :mod:`repro.observability.tracing` — :class:`Tracer`/:class:`Span`:
  nested spans with wall/CPU durations, current RSS and tags, plus
  zero-duration point events, buffered per process and merged across
  grid workers.  Stage spans are the only record of pipeline work:
  what ran, how long it took and which engine ran it;
* :mod:`repro.observability.metrics` — :class:`MetricsRegistry`:
  counters / gauges / histograms for the numbers that are not spans
  (serve request counts, a run's published gauges);
* :mod:`repro.observability.run` — :class:`RunContext`: the per-run
  directory ``runs/<run_id>/`` with the append-only ``events.jsonl``
  and the atomically published ``manifest.json``, plus the one fold of
  stage events into per-stage totals and the one table that prints them.

``repro-status`` (:mod:`repro.tools.status_tool`) inspects and compares
the run directories this package writes.
"""

from repro.observability.metrics import MetricsRegistry
from repro.observability.run import (
    MANIFEST_SCHEMA,
    STAGES,
    RunContext,
    current_run,
    default_runs_dir,
    fold_stage_event,
    fold_stage_events,
    format_stage_table,
    iter_events,
    list_runs,
    load_manifest,
    manifest_recompute_spans,
    new_run_id,
    recompute_spans,
    stage_totals,
    start_run,
)
from repro.observability.tracing import TRACER, Span, Tracer

__all__ = [
    "MANIFEST_SCHEMA",
    "STAGES",
    "MetricsRegistry",
    "RunContext",
    "Span",
    "TRACER",
    "Tracer",
    "current_run",
    "default_runs_dir",
    "fold_stage_event",
    "fold_stage_events",
    "format_stage_table",
    "iter_events",
    "list_runs",
    "load_manifest",
    "manifest_recompute_spans",
    "new_run_id",
    "recompute_spans",
    "stage_totals",
    "start_run",
]
