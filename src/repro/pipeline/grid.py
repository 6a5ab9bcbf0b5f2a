"""Scheduling of experiment grids: mappings, then (app, dataset) groups.

:func:`run_grid` produces every cell of an (apps x datasets x
techniques) cross-product as one :meth:`CellPipeline.group
<repro.pipeline.cells.CellPipeline.group>` per ``(app, dataset)``.  A
group builds each root's plan once, each technique's trace of each root
once, and simulates that trace under every policy whose cell is
missing; traces never leave their group and only cell results are
stored.  Serially the groups run in-process, in a loop.  With
``workers > 1`` the same groups become pool jobs:

1. **Plan** — peek the artifact store (by path, no payload reads) for
   cells whose results are missing, then derive the deduplicated set of
   mapping artifacts ``(dataset, technique)`` those cells will need.
2. **Share** — build each dataset analog the missing cells touch once,
   in the parent, and hand the graphs to the pool's worker initializer,
   which seeds them through the pipeline's
   :meth:`~repro.pipeline.cells.CellPipeline.seed_graphs` hook.  Under
   the ``fork`` start method the initializer arguments are inherited,
   not pickled, so every worker reads the parent's never-written arrays
   copy-on-write: one physical copy, nothing to create, unlink or leak.
   Under ``spawn``/``forkserver`` the pool pickles them and each worker
   holds one private copy; either way no worker regenerates a graph.
3. **Execute** — run the mapping phase, then one group job per
   ``(app, dataset)``, over one ``ProcessPoolExecutor``.  Mappings get
   their own phase because apps share them: the phase barrier publishes
   every mapping before any group reads one, so each unique mapping is
   *computed* exactly once across all groups and workers.  Mapping jobs
   dedupe on the technique's canonical identity, so a technique that
   ignores degree kind (Gorder) is computed once per dataset for push
   and pull apps alike.  Plans and traces belong to exactly one group,
   so they are built exactly once too; group parallelism is bounded by
   the number of ``(app, dataset)`` pairs.

Workers return their store-statistics delta and traced events with each
job.  The parent folds them into its store statistics and the active
run's ``events.jsonl``, or into its own tracer buffer when no run is
observed, so a grid reports one "was anything recomputed?" answer and
one merged span stream, from which the per-stage timings and the
engines that ran are read, regardless of how groups were distributed.
Results come back in cross-product order (apps outermost, techniques
innermost), identical to the serial loop.

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
import threading
from concurrent.futures import Future, ProcessPoolExecutor

from repro import engines, observability
from repro.graph.csr import Graph
from repro.observability import TRACER, Span
from repro.pipeline import stages
from repro.pipeline.cells import CellPipeline, CellResult, ExperimentConfig
from repro.pipeline.store import ArtifactStore, diff_store_snapshots

__all__ = ["run_grid", "plan_stage_jobs", "StageExecutor"]


def plan_stage_jobs(
    pipeline: CellPipeline,
    cells: list[tuple[str, str, str]],
    policies: list[str] | None = None,
) -> tuple[list[tuple], list[tuple]]:
    """Derive the missing cells and the deduplicated mapping jobs they need.

    Returns ``(missing_cells, mapping_jobs)`` where ``mapping_jobs`` are
    ``(dataset, technique, degree_kind)`` — one job per *unique artifact
    address* not yet in the store (addresses use the technique's
    ``cache_token()``, so labels naming one permutation collapse to one
    job).  Peeks use path existence only, so planning never perturbs the
    store statistics the exactly-once accounting is judged by.

    With a ``policies`` axis, missing cells come back as 4-tuples
    ``(app, dataset, technique, policy)`` in policy-outermost order.
    Mappings are policy-independent, so the dedup set collapses them
    across policies: N policies over the same cells schedule exactly the
    mapping jobs one policy would.
    """
    store = pipeline.store
    missing: list[tuple] = []
    for policy in policies or [None]:
        view = pipeline.policy_view(policy)
        for spec in cells:
            if not store.path_for("cell", view.cell_store_key(*spec)).exists():
                missing.append(spec if policies is None else (*spec, policy))
    mapping_jobs: list[tuple] = []
    seen_mappings: set = set()
    for spec in missing:
        app_name, dataset, technique_name = spec[:3]
        if technique_name == "Original":
            continue
        degree_kind = pipeline.degree_kind_for(app_name, technique_name)
        mkey = pipeline.mapping_store_key(dataset, technique_name, degree_kind)
        if mkey not in seen_mappings:
            seen_mappings.add(mkey)
            if not store.path_for("mapping", mkey).exists():
                mapping_jobs.append((dataset, technique_name, degree_kind))
    return missing, mapping_jobs


def _grid_graphs(pipeline: CellPipeline, missing: list[tuple]) -> dict | None:
    """Build the graphs the store-missing cells will need, in the parent.

    Each needed (dataset, weighted) graph is built once, here, under the
    usual ``generate`` stage span; the pool's workers inherit the
    returned ``{(dataset, weighted): Graph}`` dict.  Returns ``None``
    when no cell is missing (a warm grid builds nothing).
    """
    if not missing:
        return None
    needed: dict[tuple, Graph] = {}
    for spec in missing:
        app_name, dataset = spec[0], spec[1]
        # Every cell touches the unweighted graph (roots, mappings);
        # SSSP cells additionally trace the weighted variant.
        for weighted in (False, True) if app_name == "SSSP" else (False,):
            if (dataset, weighted) not in needed:
                needed[(dataset, weighted)] = pipeline.graph(dataset, weighted)
    return needed


def run_grid(
    pipeline: CellPipeline,
    apps: list[str],
    datasets: list[str],
    techniques: list[str],
    workers: int | None = None,
    policies: list[str] | None = None,
) -> list[CellResult]:
    """All cells of the cross-product, one group per ``(app, dataset)``.

    See the module docstring for the parallel phase plan.  Every worker
    shares the pipeline's artifact store (safe: writes are atomic and
    deterministic per key), so a parallel warm-up accelerates every
    later serial run against the same store.  The ``grid`` span's
    ``shared_graphs`` tag counts the graphs the workers inherited: 0
    for serial and warm grids.

    ``policies`` adds a replacement-policy axis: results come back in
    policy-outermost order (then apps, datasets, techniques as before),
    each policy's cells simulated through
    :meth:`CellPipeline.policy_view`.  Mappings, plans and traces are
    policy-independent: a group simulates each trace under every policy
    whose cell is missing, so only simulate/model re-run per policy.
    """
    # Fail fast on misconfigured engine env vars — before any graph is
    # built or worker spawned, not mid-campaign in a worker traceback.
    engines.validate_env()
    stages.fused_trace_budget()
    if policies:
        for policy in policies:
            engines.validate_policy(policy, context="run_grid policies")
    groups = list(itertools.product(apps, datasets))
    num_cells = len(groups) * len(techniques) * len(policies or [None])
    run = observability.current_run()
    if run is not None:
        run.set_config(pipeline.config)
        run.attach_store(pipeline.store)
        run.add_grid(apps, datasets, techniques, workers, policies=policies)
    _PHASE["name"] = "plan"
    try:
        with TRACER.span(
            "grid",
            kind="grid",
            cells=num_cells,
            workers=workers or 1,
            shared_graphs=0,
        ) as span:
            if workers is None or workers <= 1:
                _PHASE["name"] = "groups"
                done = [
                    pipeline.group(app, dataset, techniques, policies)
                    for app, dataset in groups
                ]
            else:
                done = _run_grid_parallel(
                    pipeline, groups, techniques, workers, policies, span
                )
    except Exception as exc:
        if run is not None:
            run.record_failure(_PHASE["name"], f"{type(exc).__name__}: {exc}")
            run.write_manifest()
        raise
    if run is not None:
        run.write_manifest()
    # Each group's cells are policy-outermost; interleave them back into
    # the cross-product's policy > app > dataset > technique order.
    width = len(techniques)
    return [
        result
        for i in range(len(policies or [None]))
        for group in done
        for result in group[i * width : (i + 1) * width]
    ]


#: Phase the scheduler is currently executing, for failure attribution
#: in the run manifest (single-threaded orchestration; a dict so the
#: failure handler sees the value live at raise time).
_PHASE: dict = {"name": "plan"}


def _run_grid_parallel(
    pipeline: CellPipeline,
    groups: list[tuple[str, str]],
    techniques: list[str],
    workers: int,
    policies: list[str] | None,
    span: Span,
) -> list[list[CellResult]]:
    cells = [(app, dataset, t) for app, dataset in groups for t in techniques]
    missing, mapping_jobs = plan_stage_jobs(pipeline, cells, policies)
    _PHASE["name"] = "share-graphs"
    graphs = _grid_graphs(pipeline, missing)
    # How many graphs the workers inherit (a warm grid builds none).
    span.tags["shared_graphs"] = len(graphs or ())
    with StageExecutor(pipeline, workers, graphs=graphs) as executor:
        # The barrier is what makes mappings "exactly once": every
        # mapping is published before any group starts.
        _PHASE["name"] = "mapping"
        for future in [executor.submit_mapping(*job) for job in mapping_jobs]:
            future.result()
        _PHASE["name"] = "groups"
        futures = [
            executor.submit_group(app, dataset, techniques, policies)
            for app, dataset in groups
        ]
        return [future.result() for future in futures]


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
    """Persistent grid worker pool with an incremental submit API.

    :func:`run_grid` drives it in batch mode — submit a whole phase, wait
    on the phase's futures, move on — while the serving layer
    (:mod:`repro.serve`) keeps one executor alive across requests and
    feeds it jobs one at a time as clients arrive.  Either way, every job
    ships its (store-stats, tracer-events) deltas back with the result
    and the executor folds them in under a lock, so accounting stays
    coherent however jobs were distributed.

    ``graphs`` (``{(dataset, weighted): Graph}``, built in the parent)
    seed every worker's generate stage; the workers inherit them
    copy-on-write under ``fork`` and receive a pickled copy under
    ``spawn``/``forkserver``.  ``pipeline_cls`` lets a caller run a
    :class:`CellPipeline` subclass in the workers (the serving layer's
    upload-aware pipeline); it must be constructible as
    ``cls(config, store=ArtifactStore(dir))``.
    """

    def __init__(
        self,
        pipeline: CellPipeline,
        workers: int,
        graphs: dict | None = None,
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
                graphs,
                pipeline_cls or type(pipeline),
            ),
        )

    # -- submit API ----------------------------------------------------------
    def submit(self, fn, job) -> Future:
        """Submit ``fn(job)`` (a module-level worker returning
        ``(payload, deltas)``) and return a future for the payload.

        Delta folding happens in the pool's completion callback under the
        executor's lock — safe because every merge target (store stats,
        tracer, run log) is itself lock-guarded.
        """
        inner = self._pool.submit(fn, job)
        outer = _StageFuture(inner)

        def _done(finished: Future) -> None:
            if finished.cancelled():
                return
            try:
                payload, deltas = finished.result()
                with self._merge_lock:
                    _merge_deltas(self._pipeline, deltas)
            except BaseException as exc:
                # A worker error, or deltas that could not be folded in:
                # either way the waiter gets the error, never a hang.
                if not outer.cancelled():
                    outer.set_exception(exc)
                return
            if not outer.cancelled():
                outer.set_result(payload)

        inner.add_done_callback(_done)
        return outer

    def submit_mapping(self, dataset: str, technique: str, degree_kind: str) -> Future:
        return self.submit(_worker_mapping, (dataset, technique, degree_kind))

    def submit_group(
        self,
        app: str,
        dataset: str,
        techniques: list[str],
        policies: list[str] | None = None,
    ) -> Future:
        """Every cell of one ``(app, dataset)`` group, in one job.

        The future resolves to :meth:`CellPipeline.group`'s results.
        """
        return self.submit(_worker_group, (app, dataset, techniques, policies))

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
    """Fold one worker job's (store-stats, events) deltas in.

    Worker events land in the active run's ``events.jsonl`` when one is
    being observed; else they join the parent tracer's buffer, where a
    stage fold of :meth:`~repro.observability.Tracer.snapshot` finds
    them.
    """
    store_delta, events = deltas
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
    graphs: dict | None = None,
    pipeline_cls: type | None = None,
) -> None:
    global _WORKER
    cls = pipeline_cls or CellPipeline
    _WORKER = cls(config, store=ArtifactStore(store_dir))
    if graphs:
        _WORKER.seed_graphs(graphs)


def worker_pipeline() -> CellPipeline:
    """The per-process pipeline a pool worker was initialized with.

    Entry point for worker functions living outside this module (the
    serving layer's job runners); raises if called off a pool worker.
    """
    if _WORKER is None:
        raise RuntimeError("worker_pipeline() called outside an initialized worker")
    return _WORKER


def job_deltas(before_store) -> tuple:
    """(store-stats, events) accumulated since the snapshot."""
    assert _WORKER is not None
    return (
        diff_store_snapshots(_WORKER.store.stats.snapshot(), before_store),
        # Everything traced since the previous job (or worker start);
        # the parent folds it into the run's merged event stream.
        TRACER.drain(),
    )


def job_snapshot() -> dict:
    """Store-stats snapshot taken at job start."""
    assert _WORKER is not None, "worker used without initializer"
    return _WORKER.store.stats.snapshot()


def _worker_mapping(job: tuple) -> tuple:
    before = job_snapshot()
    _WORKER.compute_mapping_stage(*job)
    return None, job_deltas(before)


def _worker_group(job: tuple) -> tuple:
    """One group job: ``(app, dataset, techniques, policies)``."""
    before = job_snapshot()
    results = _WORKER.group(*job)
    return results, job_deltas(before)
