"""Worker-side execution of serving jobs.

The serving scheduler feeds jobs to the same
:class:`~repro.pipeline.grid.StageExecutor` pool the experiment grid
uses; :func:`run_job` is the module-level function those pool workers
execute.  A job is a plain picklable dict::

    {"op": "mapping" | "cell",
     "graph": "<dataset>" | "upload:<digest>",
     "technique": "DBG", "degree_kind": "out" | None,
     "app": "PR" | None,
     "namespace": "<tenant>" | None,
     "config": canonical override tuple | None}

Workers keep one :class:`~repro.serve.pipeline.ServePipeline` per
namespace and run each config as a view of it
(:meth:`ServePipeline.tenant <repro.serve.pipeline.ServePipeline.tenant>`),
so graphs, plans, mappings and relabelled graphs loaded for one request
amortize over every later request on the same namespace and scale,
whatever its hierarchy or policy — the serving analog of the grid
worker reusing its pipeline across jobs.  Every namespaced store shares
the root store's statistics object, so the store-stats delta each job
ships back to the parent (next to its trace events) stays coherent
regardless of which tenant namespace a job touched.
"""

from __future__ import annotations

from repro.pipeline import grid
from repro.serve.pipeline import ServePipeline, config_from_spec, mapping_summary

__all__ = ["run_job", "warm_worker"]


def warm_worker(_job: dict | None = None) -> tuple:
    """No-op pool job: forces worker spawn + per-worker pipeline init.

    The service submits one of these per worker at startup, *before* the
    listening socket exists, so every worker process is forked while the
    parent holds no connection fds — a forked child inheriting a live
    client socket would keep it open and mask that client's disconnect.
    """
    before = grid.job_snapshot()
    grid.worker_pipeline()
    return None, grid.job_deltas(before)


def _pipeline_for(namespace: str | None, config_spec: tuple | None) -> ServePipeline:
    base = grid.worker_pipeline()
    return base.tenant(namespace, config_from_spec(base.config, config_spec))


def run_job(job: dict) -> tuple:
    """Execute one serving job; returns ``(payload, deltas)``.

    The payload is the JSON-ready response body fragment; the deltas are
    the standard :func:`repro.pipeline.grid.job_deltas` the pool parent
    folds in.
    """
    before = grid.job_snapshot()
    pipe = _pipeline_for(job.get("namespace"), job.get("config"))
    if job["op"] == "mapping":
        mapping = pipe.mapping(
            job["graph"], job["technique"], job.get("degree_kind") or "out"
        )
        payload = mapping_summary(mapping)
    elif job["op"] == "cell":
        result = pipe.cell(job["app"], job["graph"], job["technique"])
        payload = {
            name: getattr(result, name) for name in result.__dataclass_fields__
        }
    else:
        raise ValueError(f"unknown serve job op {job['op']!r}")
    return payload, grid.job_deltas(before)
