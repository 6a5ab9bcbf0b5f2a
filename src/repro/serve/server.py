"""`ReorderService`: the reordering-as-a-service HTTP endpoint.

Request lifecycle (the order is the perf story)::

    parse -> derive artifact address -> warm? serve from store
                                     -> in flight? coalesce onto ticket
                                     -> admit to priority queue -> pool

Endpoints (JSON in / JSON out):

* ``POST /v1/graphs`` — upload an edge list into the tenant's store
  namespace; returns the content-addressed ``upload:<digest>`` key.
* ``POST /v1/reorder`` — ``{graph, technique, tenant?, degree_kind?,
  priority?, include_mapping?}`` → permutation summary (optionally the
  permutation itself).
* ``POST /v1/analyze`` — ``{graph, technique, app, tenant?, config?,
  policy?, priority?}`` → full cache-analysis cell result (MPKI, miss
  breakdown, modelled cycles).  ``policy`` is shorthand for
  ``config.replacement`` — any registered replacement policy
  (``lru``/``fifo``/``lip``/``grasp``/...), validated at admission.
* ``GET /v1/stats`` — scheduler + store counters (``?usage=1`` adds the
  per-namespace on-disk accounting).
* ``GET /healthz`` — liveness.

Every response carries a ``meta`` block: request span id (the span is
recorded into the process tracer, so an observed run's ``events.jsonl``
sees every request), the serve source (``warm`` / ``coalesced`` /
``cold``), queue/compute latencies and the artifact address served.
"""

from __future__ import annotations

import asyncio
import functools
import time

from repro import engines
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TRACER
from repro.apps import make_app
from repro.pipeline.cells import ExperimentConfig
from repro.pipeline.grid import StageExecutor
from repro.pipeline.store import ArtifactStore, _NAMESPACE_RE
from repro.serve.http import Connection, HttpError, Request, encode_response
from repro.serve.jobs import run_job, warm_worker
from repro.serve.pipeline import (
    UPLOAD_KIND,
    UPLOAD_PREFIX,
    ServePipeline,
    UnknownGraphError,
    canonical_config_spec,
    config_from_spec,
    mapping_summary,
    upload_graph_key,
    upload_payload,
)
from repro.serve.scheduler import QueueFullError, ServeScheduler

__all__ = ["ClientDisconnected", "ReorderService"]

#: Tenant requests carry no namespace unless they target an upload.
DEFAULT_TENANT = "anon"

#: Request identities whose store address the service keeps derived;
#: past it the oldest entry is dropped.
MAX_ADDRESSES = 4096
#: Stored mappings whose ``mapping_summary`` the service keeps, by path.
MAX_SUMMARIES = 1024
#: Trace events the service lets its tracer buffer.  Nothing in the
#: server reads that buffer (an observed run streams events through
#: ``TRACER.subscribe``), so past this the service discards it.
MAX_RETAINED_EVENTS = 1024


def _remember(memo: dict, key, value, bound: int) -> None:
    """Store ``value``, first dropping the oldest entry of a full memo."""
    if len(memo) >= bound:
        del memo[next(iter(memo))]
    memo[key] = value


class ClientDisconnected(Exception):
    """The requesting client went away while its job was in flight."""


def _json_default(value):
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    return repr(value)


def _error_status(exc: BaseException) -> int:
    if isinstance(exc, UnknownGraphError):
        return 404
    if isinstance(exc, (KeyError, ValueError)):
        return 400
    return 500


def _error_message(exc: BaseException) -> str:
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return f"{type(exc).__name__}: {exc}"


class ReorderService:
    """Asyncio HTTP service over one store + one stage-executor pool."""

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        store: ArtifactStore | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_queue: int = 256,
        tenant_priority: dict[str, int] | None = None,
        default_priority: int = 10,
        idle_timeout: float = 60.0,
    ) -> None:
        self.config = config or ExperimentConfig()
        self.store = store or ArtifactStore()
        self.host = host
        self.port = port
        self.workers = workers
        self.max_queue = max_queue
        self.tenant_priority = dict(tenant_priority or {})
        self.default_priority = default_priority
        self.idle_timeout = idle_timeout
        self.metrics = MetricsRegistry()
        self._pipeline = ServePipeline(self.config, store=self.store)
        self._executor: StageExecutor | None = None
        self.scheduler: ServeScheduler | None = None
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        #: Request identity -> (store, kind, key, path); see :meth:`_address`.
        self._addresses: dict[tuple, tuple] = {}
        #: Artifact path -> ``mapping_summary`` of the mapping stored there.
        self._summaries: dict = {}
        self._started = time.monotonic()

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Validate engines, spin up the pool, bind the listening socket."""
        engines.validate_env()
        self._engines = {
            domain: info.get("engine") for domain, info in engines.status().items()
        }
        self._executor = StageExecutor(
            self._pipeline, self.workers, pipeline_cls=ServePipeline
        )
        # Spawn (and warm) every worker process NOW, while this process
        # holds no sockets: a worker forked later would inherit client
        # connection fds, keeping them open after the client closes and
        # blinding the disconnect watcher.  Also moves fork+init cost out
        # of the first request's latency.
        await asyncio.gather(
            *(
                asyncio.wrap_future(self._executor.submit(warm_worker, None))
                for _ in range(self.workers)
            )
        )
        self.scheduler = ServeScheduler(
            self._executor, run_job, max_queue=self.max_queue, metrics=self.metrics
        )
        self.scheduler.start()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: Connection(self._client), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()
        TRACER.event("serve_start", kind="serve", host=self.host, port=self.port)

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        if server is not None:
            # After the handlers closed their connections: from Python
            # 3.12 on this waits for every connection to close.
            await server.wait_closed()
        if self.scheduler is not None:
            await self.scheduler.stop()
        if self._executor is not None:
            await asyncio.get_running_loop().run_in_executor(
                None,
                functools.partial(
                    self._executor.shutdown, wait=True, cancel_pending=True
                ),
            )
            self._executor = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() the service first"
        await self._server.serve_forever()

    # -- connection handling -------------------------------------------------
    async def _client(self, conn: Connection) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await conn.read_request(timeout=self.idle_timeout)
                except HttpError as exc:
                    await conn.send(
                        encode_response(
                            exc.status, {"error": exc.message}, keep_alive=False
                        )
                    )
                    break
                if request is None:
                    break
                try:
                    status, payload = await self._dispatch(request, conn)
                except ClientDisconnected:
                    break
                except HttpError as exc:
                    status, payload = exc.status, {"error": exc.message}
                except QueueFullError as exc:
                    status, payload = 503, {"error": str(exc)}
                except Exception as exc:  # worker/compute failure -> client
                    status = _error_status(exc)
                    payload = {"error": _error_message(exc)}
                await conn.send(
                    encode_response(
                        status,
                        payload,
                        keep_alive=request.keep_alive,
                        default=_json_default,
                    )
                )
                if not request.keep_alive:
                    break
        except ConnectionError:
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            conn.close()

    async def _dispatch(self, request: Request, conn: Connection) -> tuple[int, dict]:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return 200, {"status": "ok"}
        if route == ("GET", "/v1/stats"):
            return 200, self._stats(full="usage=1" in request.query)
        if route == ("POST", "/v1/graphs"):
            return await self._upload(request)
        if route == ("POST", "/v1/reorder"):
            return await self._job(request, conn, op="mapping")
        if route == ("POST", "/v1/analyze"):
            return await self._job(request, conn, op="cell")
        if request.path in ("/healthz", "/v1/stats", "/v1/graphs", "/v1/reorder", "/v1/analyze"):
            raise HttpError(405, f"{request.method} not allowed on {request.path}")
        raise HttpError(404, f"unknown endpoint {request.path}")

    # -- endpoints -----------------------------------------------------------
    def _stats(self, full: bool = False) -> dict:
        stats = self.scheduler.stats() if self.scheduler else {}
        stats["server"] = {
            "uptime_s": time.monotonic() - self._started,
            "workers": self.workers,
            "max_queue": self.max_queue,
            "engines": getattr(self, "_engines", {}),
        }
        stats["store"] = self.store.stats.as_dict()
        if full:
            stats["usage"] = self.store.usage()
        return stats

    def _tenant(self, body: dict) -> str:
        tenant = str(body.get("tenant") or DEFAULT_TENANT)
        if not _NAMESPACE_RE.match(tenant):
            raise HttpError(400, f"bad tenant {tenant!r} (want [a-z0-9][a-z0-9_.-]*)")
        return tenant

    async def _upload(self, request: Request) -> tuple[int, dict]:
        body = request.json()
        tenant = self._tenant(body)
        try:
            payload = upload_payload(
                body.get("num_vertices", 0),
                body.get("edges", []),
                body.get("weights"),
                body.get("symmetrize", False),
            )
        except (ValueError, TypeError) as exc:
            raise HttpError(400, f"bad upload: {exc}") from None
        graph_key = upload_graph_key(payload)
        store = self.store.namespaced(tenant)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, functools.partial(store.put, UPLOAD_KIND, graph_key, payload)
        )
        self.metrics.inc("serve.uploads")
        return 200, {
            "graph_key": graph_key,
            "namespace": tenant,
            "num_vertices": payload["num_vertices"],
            "num_edges": int(payload["edges"].shape[0]),
        }

    def _keyer(self, namespace: str | None, config_spec: tuple | None) -> ServePipeline:
        """The key/warm-path pipeline of one request (a tenant view)."""
        config = config_from_spec(self.config, config_spec)
        return self._pipeline.tenant(namespace, config)

    def _address(self, identity: tuple) -> tuple:
        """``(store, kind, key, path)`` of a validated request identity.

        An identity is ``(op, namespace, canonical config spec, graph,
        technique, degree_kind, app)``: everything the artifact address
        depends on, so it is derived (config, view, key, path) and
        validated once, then memoised; an invalid identity raises and is
        never stored.
        """
        op, namespace, config_spec, graph, technique, degree_kind, app = identity
        keyer = self._keyer(namespace, config_spec)
        try:
            if op == "mapping":
                if technique == "Original":
                    raise HttpError(
                        400, "'Original' is the identity ordering; nothing to compute"
                    )
                kind = "mapping"
                key = keyer.mapping_store_key(graph, technique, degree_kind or "out")
            else:
                if not app:
                    raise HttpError(400, "'app' is required for /v1/analyze")
                make_app(app)  # validate before queueing
                kind = "cell"
                key = keyer.cell_store_key(app, graph, technique)
        except KeyError as exc:
            raise HttpError(400, _error_message(exc)) from None
        address = (keyer.store, kind, key, keyer.store.path_for(kind, key))
        _remember(self._addresses, identity, address, MAX_ADDRESSES)
        return address

    def _summary(self, path, mapping) -> dict:
        """``mapping_summary`` of the mapping stored at ``path``, hashed once.

        An address names one content, so the summary of a mapping read
        from a path never changes; a file that fails its envelope is
        quarantined by the read and never reaches here.
        """
        summary = self._summaries.get(path)
        if summary is None:
            summary = mapping_summary(mapping)
            _remember(self._summaries, path, summary, MAX_SUMMARIES)
        return dict(summary)

    async def _job(self, request: Request, conn: Connection, op: str) -> tuple[int, dict]:
        start_mono = time.monotonic()
        start_ts = TRACER.now()
        body = request.json()
        tenant = self._tenant(body)
        graph = body.get("graph")
        technique = body.get("technique")
        if not graph or not technique:
            raise HttpError(400, "'graph' and 'technique' are required")
        if not isinstance(graph, str) or not isinstance(technique, str):
            raise HttpError(400, "'graph' and 'technique' must be strings")
        spec = dict(body.get("config") or {})
        if body.get("policy") is not None:
            # Top-level shorthand for the common sweep axis; folded into
            # the config spec so it shares addressing/coalescing with the
            # equivalent {"config": {"policy": ...}} request.
            spec.setdefault("policy", body["policy"])
        try:
            config_spec = canonical_config_spec(spec)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        namespace = tenant if graph.startswith(UPLOAD_PREFIX) else None
        degree_kind = body.get("degree_kind")
        app = body.get("app")
        identity = (op, namespace, config_spec, graph, technique, degree_kind, app)
        try:
            address = self._addresses.get(identity)
        except TypeError:  # a JSON list or object where a value belongs
            raise HttpError(400, "request fields must be strings or numbers") from None
        if address is None:
            address = self._address(identity)
        store, kind, key, path = address
        artifact = path.name
        self.metrics.inc("serve.requests")
        self.metrics.inc(f"serve.op.{op}")

        # Read on the loop thread: a warm artifact is a ~1 KB cell or a
        # mapping read in ~50 us, and a hop through the thread executor
        # costs ~350 us of CPU.  A large mapping stalls the loop for its
        # read; its summary is hashed once per address.
        cached = store.get(kind, key, _path=path)
        queue_ms = compute_ms = 0.0
        if cached is not None:
            source = "warm"
            payload = self._summary(path, cached) if op == "mapping" else dict(cached)
        else:
            job = {
                "op": op,
                "graph": graph,
                "technique": technique,
                "degree_kind": degree_kind,
                "app": app,
                "namespace": namespace,
                "config": config_spec,
            }
            priority = int(
                body.get(
                    "priority",
                    self.tenant_priority.get(tenant, self.default_priority),
                )
            )
            waiter, ticket, coalesced = self.scheduler.submit(
                (namespace or "", artifact), job, priority
            )
            source = "coalesced" if coalesced else "cold"
            payload = dict(await self._await_result(conn, waiter, ticket))
            queue_ms = 1000.0 * ticket.queue_seconds()
            compute_ms = 1000.0 * (ticket.compute_s or 0.0)
        if op == "mapping" and body.get("include_mapping"):
            mapping = cached
            if mapping is None:  # computed by the pool just now
                mapping = store.get(kind, key, _path=path)
            if mapping is not None:
                payload["mapping"] = [int(v) for v in mapping]

        total_ms = 1000.0 * (time.monotonic() - start_mono)
        self.metrics.inc(f"serve.source.{source}")
        self.metrics.observe(f"serve.{source}_s", total_ms / 1000.0)
        span_id = TRACER.record_span(
            "serve.request",
            start=start_ts,
            wall_s=total_ms / 1000.0,
            kind="serve",
            op=op,
            graph=graph,
            technique=technique,
            tenant=tenant,
            source=source,
        )
        if TRACER.buffered > MAX_RETAINED_EVENTS:
            TRACER.drain()
        return 200, {
            "result": payload,
            "meta": {
                "request_id": span_id,
                "source": source,
                "artifact": artifact,
                "namespace": namespace or "",
                "queue_ms": round(queue_ms, 3),
                "compute_ms": round(compute_ms, 3),
                "total_ms": round(total_ms, 3),
                "queue_depth": self.scheduler.queue_depth(),
            },
        }

    async def _await_result(self, conn: Connection, waiter, ticket):
        """Wait on a job while watching the client for disconnection.

        A vanished client detaches its waiter (cancelling the job when it
        was the last interested party and still queued) — the coalescing
        contract that sibling requests keep their result either way.
        """
        watch = asyncio.ensure_future(conn.wait_disconnect())
        try:
            await asyncio.wait({waiter, watch}, return_when=asyncio.FIRST_COMPLETED)
            if waiter.done():
                return waiter.result()
            self.scheduler.detach(ticket, waiter)
            raise ClientDisconnected()
        finally:
            watch.cancel()
