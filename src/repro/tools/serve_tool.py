"""``repro-serve`` — run the reordering-as-a-service HTTP endpoint.

Boots a :class:`~repro.serve.server.ReorderService` over the standard
artifact store and a worker pool of pipeline processes::

    repro-serve --port 8080 --workers 4 --scale 1.0
    repro-serve --tenant-priority gold=1 --tenant-priority batch=50

The service prints its bound address (useful with ``--port 0`` for an
ephemeral port) and serves until interrupted (SIGINT or SIGTERM; either
stops the worker pool before exiting).  See DESIGN.md ("Serving
architecture") for the endpoint set and the coalescing/batching model.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.pipeline.cells import ExperimentConfig
from repro.pipeline.store import ArtifactStore, default_store_dir
from repro.serve.server import ReorderService

__all__ = ["build_service", "main"]


def _tenant_priority(pairs: list[str]) -> dict[str, int]:
    priorities: dict[str, int] = {}
    for pair in pairs:
        tenant, sep, value = pair.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"bad --tenant-priority {pair!r} (want tenant=priority)"
            )
        priorities[tenant] = int(value)
    return priorities


def build_service(args: argparse.Namespace) -> ReorderService:
    config = ExperimentConfig(scale=args.scale, num_roots=args.num_roots)
    store = ArtifactStore(args.store_dir or default_store_dir())
    return ReorderService(
        config=config,
        store=store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        tenant_priority=_tenant_priority(args.tenant_priority),
        default_priority=args.default_priority,
        idle_timeout=args.idle_timeout,
    )


async def _serve(args: argparse.Namespace) -> int:
    service = build_service(args)
    await service.start()
    serving = asyncio.ensure_future(service.serve_forever())
    # SIGTERM cancels the serve task, so the ``finally`` below stops the
    # worker pool instead of the signal killing only this process and
    # orphaning its workers.  Registered after start() has forked the
    # pool, so the workers keep the default SIGTERM action.
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, serving.cancel)
    print(f"repro-serve listening on {service.host}:{service.port}", flush=True)
    try:
        await serving
    except asyncio.CancelledError:
        pass
    finally:
        await service.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve reorder mappings and cache analyses over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080, help="TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="pipeline worker processes"
    )
    parser.add_argument(
        "--max-queue", type=int, default=256, help="admission queue bound"
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="base experiment scale factor"
    )
    parser.add_argument(
        "--num-roots", type=int, default=2, help="roots per rooted application"
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help="artifact store root (default: $REPRO_CACHE_DIR or ./.repro_cache)",
    )
    parser.add_argument(
        "--tenant-priority",
        action="append",
        default=[],
        metavar="TENANT=PRIO",
        help="per-tenant queue priority (lower runs sooner; repeatable)",
    )
    parser.add_argument(
        "--default-priority", type=int, default=10, help="priority for other tenants"
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=60.0,
        help="seconds before an idle keep-alive connection is closed",
    )
    args = parser.parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
