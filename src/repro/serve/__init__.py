"""Reordering-as-a-service: asyncio HTTP serving of the repro pipeline.

The package turns the batch experiment pipeline into a long-lived,
multi-tenant service without adding any dependency beyond the stdlib:

* :mod:`repro.serve.http` — minimal HTTP/1.1 as one asyncio protocol
  per connection: its own read buffer, one deadline per request, strict
  framing and client-disconnect detection;
* :mod:`repro.serve.scheduler` — the perf core: request coalescing onto
  store artifact addresses, bounded priority admission, cancellation;
* :mod:`repro.serve.pipeline` — uploaded-graph resolution and
  per-request cache-config overrides on top of the cell pipeline;
* :mod:`repro.serve.jobs` — worker-side job execution on the shared
  :class:`~repro.pipeline.grid.StageExecutor` pool;
* :mod:`repro.serve.server` — :class:`ReorderService`, the endpoint set;
* :mod:`repro.serve.client` — a small keep-alive JSON client used by the
  load benchmark, CI smoke job and tests.
"""

from repro.serve.pipeline import (
    ServePipeline,
    UnknownGraphError,
    upload_graph_key,
    upload_payload,
)
from repro.serve.scheduler import JobTicket, QueueFullError, ServeScheduler
from repro.serve.server import ClientDisconnected, ReorderService

__all__ = [
    "ClientDisconnected",
    "JobTicket",
    "QueueFullError",
    "ReorderService",
    "ServePipeline",
    "ServeScheduler",
    "UnknownGraphError",
    "upload_graph_key",
    "upload_payload",
]
