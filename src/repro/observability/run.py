"""Run directories: the append-only event log and the run manifest.

A *run* is one observed experiment session (typically one grid).  It
owns a directory ``runs/<run_id>/`` holding exactly two files:

* ``events.jsonl`` — the merged span/event stream (one JSON object per
  line, appended as events arrive; worker events are folded in by the
  grid scheduler with each job result);
* ``manifest.json`` — the provenance record, written atomically (and
  rewritten on completion): config hash, engine resolution, dataset
  seeds, store hit/miss summary, git SHA, per-stage timings aggregated
  from the event stream, the run's metrics, and any recorded failures.

Stage spans are the only record of pipeline work: their count, their
time, and (through the ``graph_engine``, ``trace_engine`` and
``sim_engine`` tags) which engine ran.  :func:`fold_stage_event` is the
one aggregation over them: the live manifest, :func:`stage_totals` (the
same fold re-read from ``events.jsonl``), :func:`recompute_spans` and
``--profile`` all use it, and :func:`format_stage_table` is the one way
to print the result.

:func:`start_run` opens a run and makes it current; the pipeline layers
(:mod:`repro.pipeline.grid`, the CLIs) pick the current run up through
:func:`current_run` instead of threading a handle through every call.
A failing grid still gets a manifest — ``status: "failed"`` with the
error recorded — so a dead worker is diagnosable after the fact rather
than silently dropping the run record.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import threading
import time
from pathlib import Path

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TRACER

__all__ = [
    "MANIFEST_SCHEMA",
    "STAGES",
    "RunContext",
    "start_run",
    "current_run",
    "default_runs_dir",
    "new_run_id",
    "load_manifest",
    "iter_events",
    "list_runs",
    "fold_stage_event",
    "fold_stage_events",
    "stage_totals",
    "format_stage_table",
    "recompute_spans",
    "manifest_recompute_spans",
]

#: Manifest format version (bumped when fields change incompatibly).
MANIFEST_SCHEMA = 3

#: The one list of pipeline stage names, in execution order, which is
#: also the display order of every stage table.  ``plan`` records an
#: application's execution plan on the original ordering
#: (memory-resident; every technique's trace remaps it).
#: ``trace+simulate`` is the fused streaming alternative to the trace →
#: simulate pair, selected per cell by the byte budget.
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

#: Environment override for the runs root directory.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

_RUN_COUNTER = 0
_CURRENT: "RunContext | None" = None


def default_runs_dir() -> Path:
    """Resolve the runs root (env override, else repo-local ``runs/``)."""
    env = os.environ.get(RUNS_DIR_ENV)
    if env:
        return Path(env)
    return Path.cwd() / "runs"


def new_run_id() -> str:
    """Unique, sortable run id: ``<utc stamp>-<pid>-<counter>``."""
    global _RUN_COUNTER
    _RUN_COUNTER += 1
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{os.getpid()}-{_RUN_COUNTER:02d}"


def _git_sha() -> str | None:
    """Best-effort commit SHA of the working tree (None outside a repo)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _kernel_report() -> dict:
    """Scaling knobs in effect for this run's kernels.

    Captures what the timing numbers in the manifest depend on beyond
    the engine choices: the fused trace→simulate byte budget and the
    process's peak RSS at manifest time.  The import is deferred — the
    pipeline imports observability at module load, not vice versa.
    """
    from repro.pipeline import stages

    return {
        "fused_trace_bytes": stages.fused_trace_budget(),
        "peak_rss_kb": _peak_rss_kb(),
    }


def _peak_rss_kb() -> int | None:
    """Process peak RSS (KiB, ``ru_maxrss``); None where unavailable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - resource is POSIX-only
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _json_default(value):
    """Last-resort JSON encoding for numpy scalars and similar."""
    if hasattr(value, "item"):
        return value.item()
    return repr(value)


class RunContext:
    """One observed run: event sink, provenance accumulator, manifest writer."""

    def __init__(self, run_dir: Path, run_id: str) -> None:
        self.run_dir = Path(run_dir)
        self.run_id = run_id
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.events_path = self.run_dir / "events.jsonl"
        self.manifest_path = self.run_dir / "manifest.json"
        self._lock = threading.Lock()
        # "w": a fresh run owns its directory — a reused run id (e.g. a
        # re-executed CI script) must not interleave two runs' streams.
        # Within the run's lifetime the log is append-only.
        self._events_file = open(self.events_path, "w", encoding="utf-8", buffering=1)
        self._started = time.time()
        self._stage_totals: dict[str, dict] = {}
        #: This run's metrics: gauges its callers set (the ablation
        #: harness's headline numbers).
        self.metrics = MetricsRegistry()
        self._grids: list[dict] = []
        self._datasets: dict[str, dict] = {}
        self._failures: list[dict] = []
        self._config: dict | None = None
        self._store = None
        self._status = "running"
        self._closed = False
        TRACER.subscribe(self.write_event)

    # -- event sink ----------------------------------------------------------
    def write_event(self, event: dict) -> None:
        """Append one event to ``events.jsonl`` (and fold stage totals)."""
        with self._lock:
            if self._closed:
                return
            fold_stage_event(self._stage_totals, event)
            self._events_file.write(json.dumps(event, default=_json_default) + "\n")

    def write_events(self, events: list[dict]) -> None:
        """Append a batch of events drained from a worker process."""
        with self._lock:
            if self._closed:
                return
            lines = []
            for event in events:
                fold_stage_event(self._stage_totals, event)
                lines.append(json.dumps(event, default=_json_default))
            if lines:
                self._events_file.write("\n".join(lines) + "\n")
            self._events_file.flush()

    # -- provenance accumulation ---------------------------------------------
    def set_config(self, config) -> None:
        """Record the experiment configuration (hashed cache key)."""
        key = repr(config.cache_key())
        self._config = {
            "hash": hashlib.sha256(key.encode()).hexdigest()[:32],
            "key": key,
            "scale": getattr(config, "scale", None),
            "num_roots": getattr(config, "num_roots", None),
        }

    def attach_store(self, store) -> None:
        """Store whose statistics the final manifest summarizes."""
        self._store = store

    def add_grid(
        self,
        apps: list[str],
        datasets: list[str],
        techniques: list[str],
        workers: int | None,
        policies: list[str] | None = None,
    ) -> None:
        """Record one grid's shape and the seeds of the datasets it touches."""
        with self._lock:
            self._grids.append(
                {
                    "apps": list(apps),
                    "datasets": list(datasets),
                    "techniques": list(techniques),
                    "policies": list(policies) if policies else None,
                    "workers": workers,
                    "cells": len(apps)
                    * len(datasets)
                    * len(techniques)
                    * (len(policies) if policies else 1),
                }
            )
        try:
            from repro.graph.generators.datasets import DATASETS

            for name in datasets:
                spec = DATASETS.get(name)
                if spec is not None and name not in self._datasets:
                    self._datasets[name] = {
                        "seed": getattr(spec, "seed", None),
                        "num_vertices": getattr(spec, "num_vertices", None),
                    }
        except ImportError:  # pragma: no cover - generators always importable
            pass

    def record_failure(self, phase: str, detail: str, **tags) -> None:
        """Record a failure in the manifest and the event stream."""
        with self._lock:
            self._failures.append(
                {"phase": phase, "detail": detail, "ts": time.time(), **tags}
            )
            self._status = "failed"
        TRACER.event("failure", kind="failure", phase=phase, detail=detail, **tags)

    # -- manifest ------------------------------------------------------------
    def timings(self) -> dict:
        """The manifest's timings block: per-stage totals folded so far."""
        with self._lock:
            stages = {
                name: dict(totals) for name, totals in self._stage_totals.items()
            }
        staged = sum(t["seconds"] for t in stages.values())
        return {"staged_seconds": staged, "stages": stages}

    def manifest(self) -> dict:
        """The manifest payload reflecting everything recorded so far."""
        from repro import engines

        timings = self.timings()
        with self._lock:
            grids = list(self._grids)
            datasets = dict(self._datasets)
            failures = list(self._failures)
            status = self._status
            config = self._config
        store_summary = None
        if self._store is not None:
            store_summary = {
                "directory": str(self._store.directory),
                "kinds": self._store.stats.as_dict(),
            }
        try:
            engine_report = engines.status()
        except Exception as exc:  # pragma: no cover - defensive
            engine_report = {"error": repr(exc)}
        try:
            kernel_report = _kernel_report()
        except Exception as exc:  # pragma: no cover - defensive
            kernel_report = {"error": repr(exc)}
        return {
            "manifest_schema": MANIFEST_SCHEMA,
            "run_id": self.run_id,
            "status": status,
            "created": self._started,
            "finished": time.time(),
            "wall_s": time.time() - self._started,
            "git_sha": _git_sha(),
            "config": config,
            "engines": engine_report,
            "kernels": kernel_report,
            "grids": grids,
            "datasets": datasets,
            "store": store_summary,
            "timings": timings,
            "metrics": self.metrics.snapshot(),
            "failures": failures,
            "events_file": self.events_path.name,
            "dropped_events": TRACER.dropped,
        }

    def write_manifest(self) -> Path:
        """Atomically publish ``manifest.json`` (tmp + rename)."""
        payload = json.dumps(
            self.manifest(), indent=2, sort_keys=True, default=_json_default
        )
        tmp = self.manifest_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(payload + "\n", encoding="utf-8")
        os.replace(tmp, self.manifest_path)
        return self.manifest_path

    # -- lifecycle -----------------------------------------------------------
    def finish(self, status: str | None = None) -> Path:
        """Stop observing and write the final manifest."""
        global _CURRENT
        TRACER.unsubscribe(self.write_event)
        with self._lock:
            if status is not None:
                self._status = status
            elif self._status == "running":
                self._status = "ok"
        path = self.write_manifest()
        with self._lock:
            self._closed = True
            self._events_file.close()
        if _CURRENT is self:
            _CURRENT = None
        return path

    def __enter__(self) -> "RunContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self._status == "running":
            self.record_failure("run", f"{exc_type.__name__}: {exc}")
        self.finish()


def start_run(
    root: Path | str | None = None, run_id: str | None = None
) -> RunContext:
    """Open a new run directory and make it the process-current run."""
    global _CURRENT
    run_id = run_id or new_run_id()
    root = Path(root) if root is not None else default_runs_dir()
    run = RunContext(root / run_id, run_id)
    _CURRENT = run
    return run


def current_run() -> RunContext | None:
    """The active run, or ``None`` when nothing is being observed."""
    return _CURRENT


# -- reading runs back (repro-status, tests) ---------------------------------

def load_manifest(run_dir: Path | str) -> dict | None:
    """Parse ``manifest.json``; ``None`` when absent or unreadable."""
    path = Path(run_dir) / "manifest.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def iter_events(run_dir: Path | str):
    """Yield events from ``events.jsonl``, skipping unparseable lines.

    A run killed mid-write may leave a truncated final line; a missing
    file yields nothing — partial runs are inspectable, never fatal.
    """
    path = Path(run_dir) / "events.jsonl"
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError:
        return
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue


def list_runs(root: Path | str | None = None) -> list[Path]:
    """Run directories under ``root``, newest id first (ids sort by time)."""
    root = Path(root) if root is not None else default_runs_dir()
    if not root.is_dir():
        return []
    return sorted(
        (p for p in root.iterdir() if p.is_dir()),
        key=lambda p: p.name,
        reverse=True,
    )


def recompute_spans(stages: dict[str, dict]) -> int:
    """Executed (non-cache-hit) stage span count in a timings block.

    ``stages`` is the ``timings.stages`` mapping of a manifest (or the
    output of :func:`stage_totals`).  Every folded ``kind="stage"`` span
    is work the store did not short-circuit, so this is the sum of all
    stages' ``calls``; zero means the run replayed entirely from the
    artifact store.
    """
    return sum(int(entry.get("calls", 0)) for entry in stages.values())


def manifest_recompute_spans(run_dir: Path | str) -> int:
    """Recompute-span count for a run directory (manifest or event stream)."""
    manifest = load_manifest(run_dir)
    if manifest is not None:
        stages = (manifest.get("timings") or {}).get("stages") or {}
    else:
        stages = stage_totals(run_dir)
    return recompute_spans(stages)


def _empty_stage_entry() -> dict:
    return {"calls": 0, "seconds": 0.0, "cpu_seconds": 0.0, "cache_hits": 0}


def fold_stage_event(totals: dict[str, dict], event: dict) -> None:
    """Fold one traced event into per-stage totals, in place.

    A ``kind="stage"`` span is one call of its stage and adds its wall
    and CPU time — also when it ended in an error, since the stage ran.
    A ``kind="cache_hit"`` event counts a call the store short-circuited
    and adds no time.  Every other event is ignored.
    """
    kind = (event.get("tags") or {}).get("kind")
    if kind == "stage" and event.get("type") == "span":
        entry = totals.setdefault(event["name"], _empty_stage_entry())
        entry["calls"] += 1
        entry["seconds"] += event.get("wall_s", 0.0)
        entry["cpu_seconds"] += event.get("cpu_s", 0.0)
    elif kind == "cache_hit":
        totals.setdefault(event["name"], _empty_stage_entry())["cache_hits"] += 1


def fold_stage_events(events) -> dict[str, dict]:
    """Per-stage totals of an event sequence (see :func:`fold_stage_event`)."""
    totals: dict[str, dict] = {}
    for event in events:
        fold_stage_event(totals, event)
    return totals


def stage_totals(run_dir: Path | str) -> dict[str, dict]:
    """Per-stage totals recomputed from a run's raw event stream.

    Folds the same events the manifest's timings block folded live, so
    the two are equal; partial runs (no manifest) are read this way.
    """
    return fold_stage_events(iter_events(run_dir))


def format_stage_table(stages: dict[str, dict]) -> str:
    """Per-stage time, share and call counts; known stages first."""
    if not stages:
        return "  (no stage spans recorded)"
    total = sum(entry.get("seconds", 0.0) for entry in stages.values())
    names = [name for name in STAGES if name in stages]
    names += sorted(name for name in stages if name not in STAGES)
    lines = []
    for name in names:
        entry = stages[name]
        seconds = entry.get("seconds", 0.0)
        share = 100.0 * seconds / total if total > 0 else 0.0
        hits = entry.get("cache_hits", 0)
        hit = f", {hits} cached" if hits else ""
        lines.append(
            f"  {name:>9}: {seconds:8.3f}s  {share:5.1f}%  "
            f"({entry.get('calls', 0)} calls{hit})"
        )
    return "\n".join(lines)
