"""Structured span tracing for the experiment pipeline.

A *span* is one timed region of pipeline work — a stage execution, a
whole cell, a grid phase — with a name, free-form tags, wall and CPU
durations, and a parent link, so nested work reconstructs as a tree.  A
*point event* is a zero-duration observation (a cache hit, a quarantine,
a failed store publish) in the same stream.

Every process owns one :data:`TRACER`.  Spans nest through a
thread-local stack, so concurrently traced threads cannot corrupt each
other's parentage.  Events accumulate in a bounded in-memory buffer;
the grid scheduler drains each worker's buffer with every job result
and the parent folds the events into the per-run ``events.jsonl``
(:mod:`repro.observability.run`), so one run produces one merged event
stream no matter how stages were distributed across processes.

Clock model
-----------
Durations come from the monotonic clock (and :func:`time.thread_time`
for CPU time), so they never jump with wall-clock adjustments.  Event
*timestamps* are wall-anchored monotonic readings: at tracer creation
each process records the pair ``(time.time(), time.monotonic())`` and
every event timestamp is ``wall_anchor + (mono - mono_anchor)``.  Within
a process timestamps are therefore strictly consistent with measured
durations, and across processes they are comparable because every
anchor samples the same system wall clock — the reconciliation the
parent needs when merging worker events recorded on private monotonic
clocks.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

__all__ = ["Span", "Tracer", "TRACER"]

#: Buffer cap per process; beyond it the oldest events are dropped (and
#: counted) rather than growing without bound in long sessions.
MAX_BUFFERED_EVENTS = 200_000


class Span:
    """One in-flight (then finished) traced region."""

    __slots__ = (
        "name",
        "tags",
        "span_id",
        "parent_id",
        "start",
        "wall_s",
        "cpu_s",
        "rss_kb",
        "_mono0",
        "_cpu0",
    )

    def __init__(
        self, name: str, tags: dict, span_id: str, parent_id: str | None, start: float
    ) -> None:
        self.name = name
        self.tags = tags
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start  #: wall-anchored timestamp (seconds since epoch)
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.rss_kb = None
        self._mono0 = time.monotonic()
        self._cpu0 = time.thread_time()

    def finish(self) -> None:
        self.wall_s = time.monotonic() - self._mono0
        self.cpu_s = time.thread_time() - self._cpu0
        self.rss_kb = _current_rss_kb()

    def as_event(self, pid: int) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": pid,
            "ts": self.start,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "rss_kb": self.rss_kb,
            "tags": self.tags,
        }


#: Page size in KiB, for converting ``statm`` page counts.
_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024 if hasattr(os, "sysconf") else 4


def _current_rss_kb() -> int | None:
    """Resident set size (KiB) right now; None where ``/proc`` is absent.

    Read from the resident-pages field of ``/proc/self/statm``, so a
    span's number says what the process held when the span closed, and
    falls again after a stage frees its buffers.  The file is reopened
    on every read: a descriptor opened before a fork would keep
    reporting the parent's pages in the child.
    """
    try:
        with open("/proc/self/statm", "rb") as statm:
            resident_pages = int(statm.read().split()[1])
    except OSError:
        return None
    return resident_pages * _PAGE_KB


class _SpanContext:
    """Context manager yielded by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        span.finish()
        if exc_type is not None:
            span.tags = dict(span.tags, error=exc_type.__name__)
        self._tracer._pop(span)
        self._tracer._emit(span.as_event(self._tracer.pid))


class Tracer:
    """Process-local span/event recorder with a bounded buffer."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self._dropped = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._subscribers: list = []
        self._wall_anchor = time.time()
        self._mono_anchor = time.monotonic()

    # -- clock ---------------------------------------------------------------
    def now(self) -> float:
        """Wall-anchored monotonic timestamp (see module docstring)."""
        return self._wall_anchor + (time.monotonic() - self._mono_anchor)

    def _reanchor(self) -> None:
        """Reset for a forked child: fresh pid, anchors, buffer, sinks.

        A forked grid worker must not re-ship the parent's buffered
        events with its first job delta, and must not write into the
        parent's run-log file through an inherited subscription — its
        events travel back with job results instead.
        """
        self.pid = os.getpid()
        self._wall_anchor = time.time()
        self._mono_anchor = time.monotonic()
        self._events = []
        self._dropped = 0
        self._subscribers = []

    # -- span stack ----------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current_span(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- recording -----------------------------------------------------------
    def span(self, name: str, **tags) -> _SpanContext:
        """Open a traced region: ``with TRACER.span("mapping", dataset="lj"):``"""
        parent = self.current_span()
        span = Span(
            name,
            tags,
            span_id=f"{self.pid:x}-{next(self._ids):x}",
            parent_id=parent.span_id if parent else None,
            start=self.now(),
        )
        return _SpanContext(self, span)

    def record_span(
        self,
        name: str,
        start: float,
        wall_s: float,
        cpu_s: float = 0.0,
        parent_id: str | None = None,
        **tags,
    ) -> str:
        """Record a completed span measured externally; returns its id.

        The context-manager form (:meth:`span`) nests through a
        thread-local stack, which cannot express work interleaved on one
        thread — an asyncio server awaits between a request's start and
        finish while other requests open their own spans.  Such callers
        time the region themselves and record it here; the event lands in
        the same stream with the same shape.
        """
        span_id = f"{self.pid:x}-{next(self._ids):x}"
        self._emit(
            {
                "type": "span",
                "name": name,
                "span_id": span_id,
                "parent_id": parent_id,
                "pid": self.pid,
                "ts": start,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "rss_kb": None,
                "tags": tags,
            }
        )
        return span_id

    def event(self, name: str, **tags) -> None:
        """Record a zero-duration point event into the stream."""
        parent = self.current_span()
        self._emit(
            {
                "type": "event",
                "name": name,
                "span_id": f"{self.pid:x}-{next(self._ids):x}",
                "parent_id": parent.span_id if parent else None,
                "pid": self.pid,
                "ts": self.now(),
                "tags": tags,
            }
        )

    def _emit(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)
            if len(self._events) > MAX_BUFFERED_EVENTS:
                overflow = len(self._events) - MAX_BUFFERED_EVENTS
                del self._events[:overflow]
                self._dropped += overflow
            subscribers = list(self._subscribers)
        for fn in subscribers:
            fn(event)

    # -- consumption ---------------------------------------------------------
    def subscribe(self, fn) -> None:
        """Stream every future event to ``fn(event_dict)`` (run-log sink)."""
        with self._lock:
            if fn not in self._subscribers:
                self._subscribers.append(fn)

    def unsubscribe(self, fn) -> None:
        with self._lock:
            if fn in self._subscribers:
                self._subscribers.remove(fn)

    def snapshot(self) -> list[dict]:
        """Copy of the buffered events (oldest first)."""
        with self._lock:
            return list(self._events)

    def drain(self) -> list[dict]:
        """Remove and return the buffered events (worker job deltas)."""
        with self._lock:
            events, self._events = self._events, []
            return events

    def merge(self, events: list[dict]) -> None:
        """Fold events drained from another process into this buffer."""
        with self._lock:
            self._events.extend(events)
            if len(self._events) > MAX_BUFFERED_EVENTS:
                overflow = len(self._events) - MAX_BUFFERED_EVENTS
                del self._events[:overflow]
                self._dropped += overflow

    @property
    def buffered(self) -> int:
        """Events in the buffer now."""
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events lost to the buffer cap since the last reset."""
        with self._lock:
            return self._dropped

    def reset(self) -> None:
        with self._lock:
            self._events.clear()
            self._dropped = 0


#: Process-global tracer every subsystem records into.  Grid workers are
#: forked/spawned with a fresh buffer (the grid's worker initializer
#: drains it), and their events travel back with each job result.
TRACER = Tracer()

os.register_at_fork(after_in_child=TRACER._reanchor)
