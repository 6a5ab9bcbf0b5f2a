"""Outside-in spans: wrappers around the program's public calls.

:func:`install` replaces a fixed list of public functions and methods,
at the module or class where the program looks each one up, with a
wrapper that records a span ``(name, start, end, parent, extra)``.  The
program's code is not changed and it never sees the tracer.

Spans live in memory, one buffer per process, and are written once as
``spans-<pid>.jsonl`` in the trace directory.  Pool workers forked after
:func:`install` inherit the wrappers; the first wrapped call in a new
process starts a fresh buffer and registers its flush with
:class:`multiprocessing.util.Finalize`.  The registration has to happen
there and not at fork time: a multiprocessing child clears its finalizer
registry while it starts, after the fork hooks have run, and it leaves
through ``os._exit``, so ``atexit`` never fires in it.  The process that
called :func:`install` calls :func:`flush` itself (the serve launcher
registers it with ``atexit``).

Timestamps are ``time.monotonic()``, one system-wide clock, so spans from
different processes and the memory samples of :mod:`benchlib.procs` line
up.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from pathlib import Path

__all__ = ["install", "flush", "load", "LIGHTWEIGHT", "Span"]

#: compute_mapping classes reported together as ``reorder.lightweight``.
LIGHTWEIGHT = ("Sort", "HubSort", "HubCluster", "DBG")

_STATE: dict = {"dir": None, "pid": None, "main": None, "spans": {}, "ids": None}
_LOCAL = threading.local()


def _buffer() -> dict:
    pid = os.getpid()
    if _STATE["pid"] != pid:
        _STATE.update(pid=pid, spans={}, ids=itertools.count())
        _LOCAL.__dict__.clear()
        if pid != _STATE["main"]:
            multiprocessing.util.Finalize(None, flush, exitpriority=100)
    return _STATE["spans"]


def _stack() -> list[int]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _wrap(name, fn, extra=None):
    """Span-recording wrapper; ``name`` may be a function of the arguments."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        spans = _buffer()
        stack = _stack()
        idx = next(_STATE["ids"])
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.monotonic()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.monotonic()
            stack.pop()
            label = name(args) if callable(name) else name
            info = extra(args, kwargs, result) if extra is not None else None
            spans[idx] = (label, start, end, parent, info)

    return wrapper


class _Stepped:
    """Awaitable driving a coroutine while timing each of its steps.

    The span of a coroutine spans every ``await`` inside it; for a request
    reader on a keep-alive connection that is mostly the client's think
    time.  The ``busy`` extra is the time the coroutine itself ran.
    """

    def __init__(self, name: str, coro) -> None:
        self._name = name
        self._coro = coro

    def __await__(self):
        coro, busy, start = self._coro, 0.0, time.monotonic()
        value, error = None, None
        try:
            while True:
                step = time.monotonic()
                try:
                    future = coro.send(value) if error is None else coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    busy += time.monotonic() - step
                try:
                    value, error = (yield future), None
                except BaseException as exc:  # handed on into the coroutine
                    value, error = None, exc
        finally:
            spans = _buffer()
            spans[next(_STATE["ids"])] = (
                self._name, start, time.monotonic(), -1, {"busy": busy}
            )


def _wrap_async(name: str, fn):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        return await _Stepped(name, fn(*args, **kwargs))

    return wrapper


def _patch(owner, attr: str, wrapper_factory) -> None:
    setattr(owner, attr, wrapper_factory(getattr(owner, attr)))


def _accesses(_args, _kwargs, result):
    return None if result is None else {"accesses": int(result.accesses)}


def _trace_accesses(_args, _kwargs, result):
    return None if result is None else {"accesses": result.trace.total_accesses}


def _plan_identity(args, kwargs, _result):
    app, graph = args[0], args[1]
    root = kwargs.get("root")
    return {"plan": f"{type(app).__name__}/{graph.num_vertices}/{graph.num_edges}/{root}"}


def _get_bytes(args, _kwargs, result):
    if result is None:
        return {"hit": 0}
    store, kind, key = args[0], args[1], args[2]
    try:
        return {"hit": 1, "bytes": store.path_for(kind, key).stat().st_size}
    except OSError:
        return {"hit": 1}


def _put_bytes(_args, _kwargs, result):
    try:
        return {"bytes": result.stat().st_size} if result is not None else None
    except OSError:
        return None


def install(trace_dir: Path | str, serve: bool = False) -> None:
    """Wrap the traced calls; this process becomes the flushing "main".

    ``serve`` adds ``Connection.read_request``, which only the server
    process calls.
    """
    import repro.pipeline
    import repro.pipeline.cells
    import repro.pipeline.grid
    import repro.serve.pipeline
    from repro.apps.base import GraphApp
    from repro.graph.csr import Graph
    from repro.perfmodel.cost import ReorderCostModel
    from repro.pipeline.cells import CellPipeline
    from repro.pipeline.store import ArtifactStore
    from repro.reorder import Composed
    from repro.reorder.registry import TECHNIQUES

    if _STATE["dir"] is not None:
        raise RuntimeError("tracing already installed")
    _STATE.update(dir=Path(trace_dir), main=os.getpid(), pid=None)
    Path(trace_dir).mkdir(parents=True, exist_ok=True)

    def span(name, extra=None):
        return lambda fn: _wrap(name, fn, extra)

    _patch(repro.serve.pipeline, "from_edges", span("graph.from_edges"))
    _patch(Graph, "relabel", span("graph.relabel"))
    for cls in {*TECHNIQUES.values(), Composed}:
        if isinstance(cls, type) and "compute_mapping" in cls.__dict__:
            _patch(
                cls,
                "compute_mapping",
                span(lambda args: f"reorder.{type(args[0]).__name__}"),
            )
    _patch(GraphApp, "plan", span("apps.plan", _plan_identity))
    _patch(GraphApp, "trace", span("apps.trace", _trace_accesses))
    _patch(repro.pipeline.cells, "simulate_trace", span("cachesim.simulate", _accesses))
    _patch(repro.pipeline.cells, "superstep_cycles", span("perfmodel.superstep_cycles"))
    _patch(ReorderCostModel, "total_cycles", span("perfmodel.total_cycles"))
    _patch(ArtifactStore, "get", span("pipeline.store.get", _get_bytes))
    _patch(ArtifactStore, "put", span("pipeline.store.put", _put_bytes))
    for attr in ("cell", "mapping", "compute_mapping_stage", "compute_trace_stage"):
        _patch(CellPipeline, attr, span(f"pipeline.{attr}"))
    for module in (repro.pipeline, repro.pipeline.grid):
        _patch(module, "run_grid", span("pipeline.run_grid"))
    if serve:
        from repro.serve.http import Connection

        _patch(
            Connection,
            "read_request",
            lambda fn: _wrap_async("serve.read_request", fn),
        )


def flush() -> None:
    """Write this process's spans to ``spans-<pid>.jsonl`` and drop them."""
    if _STATE["dir"] is None or _STATE["pid"] != os.getpid():
        return
    spans, _STATE["spans"] = _STATE["spans"], {}
    path = Path(_STATE["dir"]) / f"spans-{os.getpid()}.jsonl"
    with open(path, "a") as handle:
        for idx, record in sorted(spans.items()):
            handle.write(json.dumps([idx, *record]) + "\n")


class Span:
    """One recorded span, as read back by :func:`load`."""

    __slots__ = ("pid", "idx", "name", "start", "end", "parent", "extra")

    def __init__(self, pid, idx, name, start, end, parent, extra) -> None:
        self.pid = pid
        self.idx = idx
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.extra = extra or {}

    @property
    def wall(self) -> float:
        return self.end - self.start


def load(trace_dir: Path | str) -> list[Span]:
    """Every span flushed into ``trace_dir``, from every process."""
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path) as handle:
            for line in handle:
                spans.append(Span(pid, *json.loads(line)))
    return spans
