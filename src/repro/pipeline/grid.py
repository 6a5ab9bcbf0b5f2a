"""Stage-granular scheduling of experiment grids.

:func:`run_grid` produces every cell of an (apps x datasets x
techniques) cross-product.  Serially that is just :meth:`CellPipeline.cell`
in a loop; with ``workers > 1`` the scheduler plans work at *stage*
granularity instead of handing whole cells to the pool:

1. **Plan** — peek the artifact store (by path, no payload reads) for
   cells whose results are missing, then derive the deduplicated sets of
   mapping artifacts ``(dataset, technique)`` and trace artifacts
   ``(app, dataset, technique, root)`` those cells will need.
2. **Share** — build each dataset analog the missing cells touch once,
   in the parent, and export the immutable CSR arrays to POSIX shared
   memory; workers attach zero-copy views through the pipeline's
   :meth:`~repro.pipeline.cells.CellPipeline.seed_graphs` hook (any
   shared-memory failure degrades to per-worker regeneration).
3. **Execute** — run the mapping phase, then the trace phase, then the
   cell phase over one ``ProcessPoolExecutor``.  Because every artifact
   in a phase is scheduled exactly once (and earlier phases publish the
   artifacts later phases consume), each unique mapping and trace is
   *computed* exactly once across all cells and workers.  Mapping jobs
   dedupe on the technique's canonical identity, so a technique that
   ignores degree kind (Gorder) is computed once per dataset for push
   and pull apps alike.  Trace jobs are *plan-affine*: one job per
   ``(app, dataset, root)`` traces every technique of that group, so
   each application plan is built in exactly one worker too.  Trace
   parallelism is therefore bounded by the number of such groups.

Workers return their stage-profiler, store-statistics and tracer-event
deltas with each job; the parent folds all three into its own
accumulators, so a grid reports one coherent timing breakdown, one
"was anything recomputed?" answer and one merged span stream regardless
of how stages were distributed.  Results come back in cross-product
order (apps outermost, techniques innermost), identical to the serial
loop.

When a run is being observed (:func:`repro.observability.current_run`),
the grid records its shape, config hash and store into the run, streams
every span — parent and worker — into the run's ``events.jsonl``, and
publishes the run manifest at grid completion.  A worker that dies
mid-stage still produces a manifest: the failure is recorded (phase,
job, error) and the manifest is written with ``status: "failed"``
before the exception propagates.
"""

from __future__ import annotations

import itertools
import tempfile
import threading
from concurrent.futures import Future, ProcessPoolExecutor

from repro import observability
from repro.observability import TRACER
from repro.pipeline import sharedgraph, stages
from repro.pipeline.profiler import PROFILER, diff_snapshots
from repro.pipeline.cells import ROOT_APPS, CellPipeline, CellResult, ExperimentConfig
from repro.pipeline.stages import PIPELINE
from repro.pipeline.store import ArtifactStore, diff_store_snapshots

__all__ = ["run_grid", "plan_stage_jobs", "StageExecutor"]


def plan_stage_jobs(
    pipeline: CellPipeline,
    cells: list[tuple[str, str, str]],
    policies: list[str] | None = None,
) -> tuple[list[tuple], list[tuple], list[tuple]]:
    """Derive the deduplicated stage jobs an uncached grid needs.

    Returns ``(missing_cells, mapping_jobs, trace_jobs)`` where
    ``mapping_jobs`` are ``(dataset, technique, degree_kind)`` and
    ``trace_jobs`` are ``(app, dataset, technique, root)`` — one job per
    *unique artifact address* not yet in the store (addresses use the
    technique's ``cache_token()``, so labels naming one permutation
    collapse to one job).  Peeks use path existence only, so planning
    never perturbs the store statistics the exactly-once accounting is
    judged by.

    With a ``policies`` axis, missing cells come back as 4-tuples
    ``(app, dataset, technique, policy)`` in policy-outermost order.
    Mapping and trace artifacts are policy-independent, so the dedup
    sets collapse them across policies: N policies over the same cells
    schedule exactly the stage jobs one policy would.
    """
    store = pipeline.store
    missing: list[tuple] = []
    for policy in policies or [None]:
        view = pipeline.policy_view(policy)
        for spec in cells:
            if not store.path_for("cell", view.cell_store_key(*spec)).exists():
                missing.append(spec if policies is None else (*spec, policy))
    mapping_jobs: list[tuple] = []
    trace_jobs: list[tuple] = []
    seen_mappings: set = set()
    seen_traces: set = set()
    for spec in missing:
        app_name, dataset, technique_name = spec[:3]
        degree_kind = pipeline.degree_kind_for(app_name, technique_name)
        if technique_name != "Original":
            mkey = pipeline.mapping_store_key(dataset, technique_name, degree_kind)
            if mkey not in seen_mappings:
                seen_mappings.add(mkey)
                if not store.path_for("mapping", mkey).exists():
                    mapping_jobs.append((dataset, technique_name, degree_kind))
        if pipeline.fused_cell(dataset):
            # Fused cells stream trace→simulate inside the cell phase;
            # scheduling a trace job would materialize exactly the
            # artifact the fused path exists to avoid.
            continue
        roots = pipeline.roots(dataset) if app_name in ROOT_APPS else [None]
        for root in roots:
            tkey = pipeline.trace_store_key(
                app_name, dataset, technique_name, degree_kind, root
            )
            if tkey not in seen_traces:
                seen_traces.add(tkey)
                if not store.path_for("trace", tkey).exists():
                    trace_jobs.append((app_name, dataset, technique_name, root))
    return missing, mapping_jobs, trace_jobs


def _export_grid_graphs(
    pipeline: CellPipeline, missing: list[tuple]
) -> tuple[list, dict | None]:
    """Build + export the graphs the store-missing cells will need.

    Each needed (dataset, weighted) graph is built once, here in the
    parent, under the usual ``generate`` profiler stage.  Shared memory
    is tried first, then the disk/mmap spill transport; returns
    ``([], None)`` when nothing needs sharing or both transports are
    unavailable (workers regenerate).
    """
    if not missing:
        return [], None
    needed: dict[tuple, object] = {}
    for spec in missing:
        app_name, dataset = spec[0], spec[1]
        # Every cell touches the unweighted graph (roots, mappings);
        # SSSP cells additionally trace the weighted variant.
        needed[(dataset, False)] = None
        if app_name == "SSSP":
            needed[(dataset, True)] = None
    for dataset, weighted in needed:
        needed[(dataset, weighted)] = pipeline.graph(dataset, weighted)
    try:
        return sharedgraph.export_graphs(needed)
    except sharedgraph.SharedMemoryUnavailable:
        pass
    try:
        # No usable POSIX shm (or segments too large for /dev/shm):
        # spill to disk and let workers mmap the one page-cache copy.
        spill = tempfile.mkdtemp(prefix="repro-grid-graphs-")
        return sharedgraph.export_graphs_mmap(needed, spill)
    except sharedgraph.SharedMemoryUnavailable:
        return [], None


def run_grid(
    pipeline: CellPipeline,
    apps: list[str],
    datasets: list[str],
    techniques: list[str],
    workers: int | None = None,
    share_graphs: bool = True,
    policies: list[str] | None = None,
) -> list[CellResult]:
    """All cells of the cross-product, scheduled at stage granularity.

    See the module docstring for the parallel phase plan.  Every worker
    shares the pipeline's artifact store (safe: writes are atomic and
    deterministic per key), so a parallel warm-up accelerates every
    later serial run against the same store.

    ``policies`` adds a replacement-policy axis: results come back in
    policy-outermost order (then apps, datasets, techniques as before),
    each policy's cells simulated through
    :meth:`CellPipeline.policy_view`.  Mappings and traces are
    policy-independent, so the extra axis reuses every stage artifact
    the first policy produced — only simulate/model re-run.
    """
    # Fail fast on misconfigured engine env vars — before any graph is
    # built or worker spawned, not mid-campaign in a worker traceback.
    PIPELINE.validate_engines()
    stages.fused_trace_budget()
    if policies:
        from repro import engines

        for policy in policies:
            engines.validate_policy(policy, context="run_grid policies")
    cells = list(itertools.product(apps, datasets, techniques))
    full_cells: list[tuple] = (
        cells
        if not policies
        else [(*spec, policy) for policy in policies for spec in cells]
    )
    run = observability.current_run()
    if run is not None:
        run.set_config(pipeline.config)
        run.attach_store(pipeline.store)
        run.add_grid(apps, datasets, techniques, workers, policies=policies)
    _PHASE["name"] = "plan"
    try:
        with TRACER.span(
            "grid", kind="grid", cells=len(full_cells), workers=workers or 1
        ):
            if workers is None or workers <= 1:
                _PHASE["name"] = "cells"
                if policies:
                    results = [
                        pipeline.policy_view(spec[3]).cell(*spec[:3])
                        for spec in full_cells
                    ]
                else:
                    results = [pipeline.cell(*spec) for spec in cells]
            else:
                results = _run_grid_parallel(
                    pipeline, cells, workers, share_graphs, policies
                )
    except Exception as exc:
        if run is not None:
            run.record_failure(_PHASE["name"], f"{type(exc).__name__}: {exc}")
            run.write_manifest()
        raise
    if run is not None:
        run.write_manifest()
    return results


#: Phase the scheduler is currently executing, for failure attribution
#: in the run manifest (single-threaded orchestration; a dict so the
#: failure handler sees the value live at raise time).
_PHASE: dict = {"name": "plan"}


def _run_grid_parallel(
    pipeline: CellPipeline,
    cells: list[tuple[str, str, str]],
    workers: int,
    share_graphs: bool,
    policies: list[str] | None = None,
) -> list[CellResult]:
    missing, mapping_jobs, trace_jobs = plan_stage_jobs(pipeline, cells, policies)
    manifest = None
    handles: list = []
    if share_graphs:
        _PHASE["name"] = "share-graphs"
        handles, manifest = _export_grid_graphs(pipeline, missing)
    full_cells: list[tuple] = (
        cells
        if not policies
        else [(*spec, policy) for policy in policies for spec in cells]
    )
    try:
        with StageExecutor(pipeline, workers, manifest=manifest) as executor:
            # Phase barriers are what make "exactly once" true: a phase's
            # artifacts are all published before any consumer starts.
            _PHASE["name"] = "mapping"
            for future in [executor.submit_mapping(*job) for job in mapping_jobs]:
                future.result()
            _PHASE["name"] = "trace"
            groups = _plan_affine_groups(trace_jobs)
            for future in [executor.submit_trace(*group) for group in groups]:
                future.result()
            _PHASE["name"] = "cells"
            futures = [executor.submit_cell(*spec) for spec in full_cells]
            return [future.result() for future in futures]
    finally:
        # The name disappears now; the OS frees the memory when the
        # last worker mapping is gone (already, at this point).
        sharedgraph.release_graphs(handles)


def _plan_affine_groups(trace_jobs: list[tuple]) -> list[tuple]:
    """Group trace jobs by the plan they remap: ``(app, dataset, root)``.

    Every technique's trace of one ``(app, dataset, root)`` remaps the
    same application plan, so one worker tracing the whole group builds
    that plan exactly once.  Returns ``(app, dataset, root, techniques)``
    in first-seen order.
    """
    groups: dict[tuple, list[str]] = {}
    for app_name, dataset, technique_name, root in trace_jobs:
        groups.setdefault((app_name, dataset, root), []).append(technique_name)
    return [(*plan, tuple(techniques)) for plan, techniques in groups.items()]


class _StageFuture(Future):
    """Future for one submitted stage job, linked to its pool future.

    Cancelling it propagates to the underlying pool submission, so a
    queued-but-unstarted job (e.g. every client of a coalesced serve
    request disconnected) never occupies a worker.
    """

    def __init__(self, inner: Future) -> None:
        super().__init__()
        self._inner = inner

    def cancel(self) -> bool:  # noqa: D102 - contract inherited from Future
        self._inner.cancel()
        return super().cancel()


class StageExecutor:
    """Persistent stage-granular worker pool with an incremental submit API.

    :func:`run_grid` drives it in batch mode — submit a whole phase, wait
    on the phase's futures, move on — while the serving layer
    (:mod:`repro.serve`) keeps one executor alive across requests and
    feeds it jobs one at a time as clients arrive.  Either way, every job
    ships its (profiler, store-stats, tracer-events) deltas back with the
    result and the executor folds them into the owning pipeline under a
    lock, so accounting stays exactly as coherent as the historical
    phase-mapped pools.

    ``pipeline_cls`` lets a caller run a :class:`CellPipeline` subclass
    in the workers (the serving layer's upload-aware pipeline); it must
    be constructible as ``cls(config, store=ArtifactStore(dir))``.
    """

    def __init__(
        self,
        pipeline: CellPipeline,
        workers: int,
        manifest: dict | None = None,
        pipeline_cls: type | None = None,
    ) -> None:
        self._pipeline = pipeline
        self._merge_lock = threading.Lock()
        self.workers = workers
        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(
                pipeline.config,
                str(pipeline.store.directory),
                manifest,
                pipeline_cls or type(pipeline),
            ),
        )

    # -- submit API ----------------------------------------------------------
    def submit(self, fn, job) -> Future:
        """Submit ``fn(job)`` (a module-level worker returning
        ``(payload, deltas)``) and return a future for the payload.

        Delta folding happens in the pool's completion callback under the
        executor's lock — safe because every merge target (profiler,
        store stats, tracer, run log) is itself lock-guarded.
        """
        inner = self._pool.submit(fn, job)
        outer = _StageFuture(inner)

        def _done(finished: Future) -> None:
            if finished.cancelled():
                return
            exc = finished.exception()
            if exc is not None:
                if not outer.cancelled():
                    outer.set_exception(exc)
                return
            payload, deltas = finished.result()
            with self._merge_lock:
                _merge_deltas(self._pipeline, deltas)
            if not outer.cancelled():
                outer.set_result(payload)

        inner.add_done_callback(_done)
        return outer

    def submit_mapping(self, dataset: str, technique: str, degree_kind: str) -> Future:
        return self.submit(_worker_mapping, (dataset, technique, degree_kind))

    def submit_trace(
        self, app: str, dataset: str, root: int | None, techniques: tuple[str, ...]
    ) -> Future:
        """Trace every technique of one ``(app, dataset, root)`` in one job.

        The techniques share one application plan, which the worker then
        builds once for all of them.
        """
        return self.submit(_worker_trace, (app, dataset, root, tuple(techniques)))

    def submit_cell(
        self, app: str, dataset: str, technique: str, policy: str | None = None
    ) -> Future:
        spec = (app, dataset, technique)
        return self.submit(_worker_cell, spec if policy is None else (*spec, policy))

    # -- lifecycle -----------------------------------------------------------
    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=cancel_pending)

    def __enter__(self) -> "StageExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On failure, drop jobs still queued behind the failing one; jobs
        # already running finish (their artifacts stay valid and warm).
        self.shutdown(wait=True, cancel_pending=exc_type is not None)


def _merge_deltas(pipeline: CellPipeline, deltas: tuple) -> None:
    """Fold one worker job's (profiler, store-stats, events) deltas in.

    Keeps the grid's stage-timing breakdown, hit/miss accounting and
    span stream coherent regardless of how jobs were distributed across
    processes.  Worker events land in the active run's ``events.jsonl``
    when one is being observed, else in the parent tracer's buffer.
    """
    profile_delta, store_delta, events = deltas
    PROFILER.merge(profile_delta)
    pipeline.store.stats.merge(store_delta)
    run = observability.current_run()
    if run is not None:
        run.write_events(events)
    else:
        TRACER.merge(events)


#: Per-process pipeline reused across the jobs a grid worker receives, so
#: graphs/plans/mappings loaded for one job amortize over its siblings.
_WORKER: CellPipeline | None = None


def _worker_init(
    config: ExperimentConfig,
    store_dir: str,
    manifest: dict | None = None,
    pipeline_cls: type | None = None,
) -> None:
    global _WORKER
    cls = pipeline_cls or CellPipeline
    _WORKER = cls(config, store=ArtifactStore(store_dir))
    if manifest:
        try:
            _WORKER.seed_graphs(sharedgraph.attach_graphs(manifest))
        except sharedgraph.SharedMemoryUnavailable:
            pass  # regenerate per worker, as before graph sharing


def worker_pipeline() -> CellPipeline:
    """The per-process pipeline a pool worker was initialized with.

    Entry point for worker functions living outside this module (the
    serving layer's job runners); raises if called off a pool worker.
    """
    if _WORKER is None:
        raise RuntimeError("worker_pipeline() called outside an initialized worker")
    return _WORKER


def job_deltas(before_profile, before_store) -> tuple:
    """(profiler, store-stats, events) accumulated since the snapshots."""
    assert _WORKER is not None
    return (
        diff_snapshots(PROFILER.snapshot(), before_profile),
        diff_store_snapshots(_WORKER.store.stats.snapshot(), before_store),
        # Everything traced since the previous job (or worker start);
        # the parent folds it into the run's merged event stream.
        TRACER.drain(),
    )


def job_snapshots() -> tuple:
    """Profiler + store-stats snapshots taken at job start."""
    assert _WORKER is not None, "worker used without initializer"
    return (PROFILER.snapshot(), _WORKER.store.stats.snapshot())


def _worker_mapping(job: tuple) -> tuple:
    before = job_snapshots()
    _WORKER.compute_mapping_stage(*job)
    return None, job_deltas(*before)


def _worker_trace(job: tuple) -> tuple:
    app_name, dataset, root, techniques = job
    before = job_snapshots()
    for technique_name in techniques:
        _WORKER.compute_trace_stage(app_name, dataset, technique_name, root)
    return None, job_deltas(*before)


def _worker_cell(spec: tuple) -> tuple:
    """One cell job: 3-tuple cell spec, optionally + a policy override."""
    before = job_snapshots()
    if len(spec) == 4:
        result = _WORKER.policy_view(spec[3]).cell(*spec[:3])
    else:
        result = _WORKER.cell(*spec)
    return result, job_deltas(*before)
