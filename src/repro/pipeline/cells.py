"""Stage execution for one experiment cell.

One *cell* of the paper's evaluation grid is (application, dataset,
reordering technique).  Producing a cell runs these stages, in the order
of :data:`repro.observability.run.STAGES`:

1. **generate** — build (or fetch) the dataset analog;
2. **mapping** — instantiate the technique with the degree kind the paper
   uses for that application (Table VIII) and compute the permutation;
3. **relabel** — rebuild the CSR under the permutation;
4. **plan** — record the application's execution plan on the original
   ordering;
5. **trace** — remap the plan and build the representative-super-step
   memory trace;
6. **simulate** — run the trace through the cache simulator (or, for a
   cell over the fused-trace budget, one **trace+simulate** stage that
   streams the trace into the simulator);
7. **model** — convert miss counts and reordering cost to cycles and
   aggregate the persisted :class:`CellResult`.

:class:`CellPipeline` executes those stages against one
:class:`~repro.pipeline.store.ArtifactStore`; any other configuration
runs as a :meth:`~CellPipeline.view` over the same store, which shares
the memory-resident stages when the scale matches.  Cells are produced per
``(app, dataset)`` group (:meth:`CellPipeline.group`; a single
:meth:`~CellPipeline.cell` is a one-cell group): each trace is built
once and simulated under every policy that needs it, inside the group,
and never leaves it.  Only mappings and cell results are persisted,
content-addressed through the key builders in
:mod:`repro.pipeline.stages`.  Every stage execution runs inside a
``kind="stage"`` span on the process-global tracer and every store hit
emits a ``kind="cache_hit"`` event; those spans are the only record of
pipeline work (:func:`repro.observability.run.fold_stage_event` sums
them).  The ``plan``, ``trace``, ``simulate`` and ``trace+simulate``
spans also name the engine that ran in a ``graph_engine``,
``trace_engine`` or ``sim_engine`` tag.  The parallel grid's worker
processes receive the parent's graphs through one hook
(:meth:`CellPipeline.seed_graphs`) instead of having them threaded
through call sites.

Memory-resident stages (generate / relabel / trace, plus application
plans) live in per-process memory only: graphs are large and
regenerate quickly, and the grid scheduler builds them once in the
parent, whose pool workers inherit them, instead of pickling them to
disk.
"""

from __future__ import annotations

import dataclasses
from dataclasses import astuple, dataclass, field

import numpy as np

from repro.observability import TRACER
from repro.apps import make_app
from repro.cachesim import DEFAULT_HIERARCHY, HierarchyConfig, get_policy, simulate_trace
from repro.cachesim.hierarchy import engine_to_run
from repro.framework import fasttrace
from repro.graph import fastgraph
from repro.graph.csr import Graph
from repro.graph.generators import load_dataset
from repro.perfmodel.cost import ReorderCostModel
from repro.perfmodel.timing import LatencyModel, superstep_cycles
from repro.pipeline import stages
from repro.pipeline.store import ArtifactStore
from repro.reorder import make_technique
from repro.reorder.base import identity_mapping

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "CellPipeline",
    "ROOT_APPS",
    "PAPER_TRAVERSALS",
]

#: Apps whose runtime depends on a traversal root (paper runs 8 roots).
ROOT_APPS = ("SSSP", "BC")
#: Traversals the paper aggregates for root-dependent applications.
PAPER_TRAVERSALS = 8


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by a whole experiment campaign."""

    scale: float = 1.0
    hierarchy: HierarchyConfig = DEFAULT_HIERARCHY
    latencies: LatencyModel = field(default_factory=LatencyModel)
    cost_model: ReorderCostModel = field(default_factory=ReorderCostModel)
    #: Roots sampled (and averaged) per root-dependent cell.
    num_roots: int = 2
    #: Traversal count used when reporting whole-run times for root apps.
    traversals: int = PAPER_TRAVERSALS

    def cache_key(self) -> tuple:
        """Everything a persisted cell result depends on.

        The hierarchy ``engine`` knob is deliberately excluded: engines
        are bit-identical, so switching them must *hit* the same slots.
        The latency and cost models are folded in field by field — cached
        cycle counts are stale the moment either model changes.

        Built once per config object: every field is frozen, so the tuple
        cannot go stale.  It is kept in the instance ``__dict__``, not in
        a field, so ``fields()``, ``==``, ``hash`` and ``repr`` never see
        it, and :meth:`__getstate__` leaves it out of pickles.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            h = self.hierarchy
            key = (
                self.scale,
                (h.l1.size_bytes, h.l1.associativity),
                (h.l2.size_bytes, h.l2.associativity),
                (h.l3.size_bytes, h.l3.associativity),
                h.replacement,
                h.cores_per_socket,
                h.ownership_blocks,
                astuple(self.latencies),
                astuple(self.cost_model),
                self.num_roots,
                self.traversals,
            )
            object.__setattr__(self, "_cache_key", key)
        return key

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_cache_key", None)
        return state


@dataclass
class CellResult:
    """Counters for one (app, dataset, technique) cell.

    ``superstep_cycles`` / ``run_cycles`` are modelled execution cycles for
    one work unit (PR iteration, one traversal's representative step) and
    for the whole run respectively; ``reorder_cycles`` is the modelled
    end-to-end reordering cost in the same domain.
    """

    app: str
    dataset: str
    technique: str
    mpki: dict
    l2_breakdown: dict
    l2_misses: int
    instructions: int
    superstep_cycles: float
    unit_cycles: float  #: cycles per work unit (iteration / traversal)
    run_cycles: float  #: whole run, excluding reordering
    reorder_cycles: float


class CellPipeline:
    """Runs the pipeline stages for one experiment configuration."""

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        store: ArtifactStore | None = None,
    ) -> None:
        self.config = config or ExperimentConfig()
        self.store = store or ArtifactStore()
        self._graphs: dict[tuple, Graph] = {}
        self._plans: dict[tuple, object] = {}
        self._mappings: dict[tuple, np.ndarray] = {}
        self._reordered: dict[tuple, Graph] = {}
        #: Hot-block classifications for skew-aware policies, keyed by
        #: (app, dataset, technique, degree_kind) — policy-independent.
        self._hot_blocks: dict[tuple, np.ndarray] = {}
        #: Views of this pipeline per full config (:meth:`view`).
        self._views: dict[ExperimentConfig, CellPipeline] = {}

    #: Memory caches a view at the same scale shares with its parent by
    #: reference.  None depends on the hierarchy, the policy or
    #: ``num_roots``: hot-block ids use the fixed 64-byte ``BLOCK_BYTES``
    #: and plans are keyed by root.  The view cache is shared too, so a
    #: view of a view is the one pipeline of its config.
    _SHARED_CACHES = (
        "_graphs", "_plans", "_mappings", "_reordered", "_hot_blocks", "_views"
    )

    def view(self, config: ExperimentConfig) -> "CellPipeline":
        """A pipeline over ``config`` and the same store; the one way to
        run under another config.

        Cached per full ``config`` (not :meth:`ExperimentConfig.cache_key`,
        which omits the hierarchy's engine).  At the same scale the view
        shares every memo in :data:`_SHARED_CACHES`, so graphs, plans,
        mappings, relabelled graphs and hot-block classifications are
        built once across hierarchies and policies; at another scale it
        shares nothing.  An unknown replacement policy raises
        :class:`~repro.cachesim.policies.UnknownPolicyError`.
        """
        if config == self.config:
            return self
        view = self._views.get(config)
        if view is None:
            get_policy(config.hierarchy.replacement, context="CellPipeline.view")
            view = type(self)(config, store=self.store)
            if config.scale == self.config.scale:
                # Registered only once it has a view, so a pipeline
                # without views holds no reference cycle and is freed
                # (graphs and all) as soon as its caller drops it.
                self._views.setdefault(self.config, self)
                for name in self._SHARED_CACHES:
                    setattr(view, name, getattr(self, name))
            self._views[config] = view
        return view

    def policy_view(self, policy: str | None) -> "CellPipeline":
        """:meth:`view` simulating under ``policy``; ``None`` returns ``self``."""
        if policy is None:
            return self
        hierarchy = dataclasses.replace(self.config.hierarchy, replacement=policy)
        return self.view(dataclasses.replace(self.config, hierarchy=hierarchy))

    # -- hooks ---------------------------------------------------------------
    def seed_graphs(self, graphs: dict) -> None:
        """Pre-populate the generate stage's memory cache.

        The hook a parallel grid's workers are initialized through: each
        worker seeds the ``Graph`` objects the parent built (inherited
        copy-on-write under ``fork``), and the generate stage serves
        them instead of regenerating (:mod:`repro.pipeline.grid`).
        """
        self._graphs.update(graphs)

    # -- stage: generate -----------------------------------------------------
    def graph(self, dataset: str, weighted: bool = False) -> Graph:
        key = (dataset, weighted)
        if key not in self._graphs:
            with TRACER.span(
                "generate", kind="stage", dataset=dataset, weighted=weighted
            ):
                self._graphs[key] = load_dataset(
                    dataset, scale=self.config.scale, weighted=weighted
                )
        return self._graphs[key]

    def roots(self, dataset: str) -> list[int]:
        """Deterministic traversal roots with non-trivial out-degree."""
        graph = self.graph(dataset)
        seed = int.from_bytes(dataset.encode(), "little") % (2**32)
        rng = np.random.default_rng(seed)
        candidates = np.flatnonzero(graph.out_degrees() >= graph.average_degree())
        if candidates.size == 0:
            candidates = np.arange(graph.num_vertices)
        picks = rng.choice(
            candidates, size=min(self.config.num_roots, candidates.size), replace=False
        )
        return [int(p) for p in picks]

    # -- stage: mapping ------------------------------------------------------
    def degree_kind_for(self, app_name: str, technique_name: str) -> str:
        """Degree kind a cell reorders by: app default, '@' label override."""
        default = make_app(app_name).reorder_degree_kind
        return make_technique(technique_name, default).degree_kind

    def technique_token(self, technique_name: str, degree_kind: str) -> object:
        """Stable artifact-key identity of a technique label."""
        if technique_name == "Original":
            return "Original"
        return make_technique(technique_name, degree_kind).cache_token()

    def mapping_store_key(
        self, dataset: str, technique_name: str, degree_kind: str
    ) -> tuple:
        return stages.mapping_key(
            self.config.scale,
            dataset,
            self.technique_token(technique_name, degree_kind),
        )

    def mapping(self, dataset: str, technique_name: str, degree_kind: str) -> np.ndarray:
        """Permutation for (dataset, technique); store-memoized.

        Memoized in memory under the technique's canonical identity, like
        the store: labels that name the same permutation (``Gorder`` for a
        push and a pull app, ``DBG@out`` and ``DBG`` under PR) share one
        entry.
        """
        token = self.technique_token(technique_name, degree_kind)
        key = (dataset, token)
        if key in self._mappings:
            return self._mappings[key]
        if technique_name == "Original":
            mapping = identity_mapping(self.graph(dataset).num_vertices)
        else:
            technique = make_technique(technique_name, degree_kind)
            store_key = stages.mapping_key(self.config.scale, dataset, token)
            tags = {"dataset": dataset, "technique": technique_name}
            mapping = self.store.get("mapping", store_key)
            if mapping is not None:
                TRACER.event("mapping", kind="cache_hit", **tags)
            else:
                with TRACER.span("mapping", kind="stage", **tags):
                    mapping = technique.compute_mapping(self.graph(dataset))
                self.store.put("mapping", store_key, mapping)
        self._mappings[key] = mapping
        return mapping

    # -- stage: relabel ------------------------------------------------------
    def reordered_graph(
        self, dataset: str, technique_name: str, degree_kind: str, weighted: bool
    ) -> Graph:
        """The dataset's graph relabelled by the technique's permutation.

        ``Original`` is the identity, whose relabel reproduces every CSR
        array byte for byte, so it shares the generated graph and runs
        no ``relabel`` stage.
        """
        if technique_name == "Original":
            return self.graph(dataset, weighted)
        key = (dataset, self.technique_token(technique_name, degree_kind), weighted)
        if key not in self._reordered:
            mapping = self.mapping(dataset, technique_name, degree_kind)
            graph = self.graph(dataset, weighted)
            with TRACER.span(
                "relabel", kind="stage", dataset=dataset, technique=technique_name
            ):
                self._reordered[key] = graph.relabel(mapping)
        return self._reordered[key]

    # -- stage: trace --------------------------------------------------------
    def plan(self, app_name: str, dataset: str, root: int | None = None):
        """Application execution plan recorded on the original ordering.

        Built under a ``plan`` stage span, so run manifests account
        for plan time alongside the persisted stages.  The span's
        ``graph_engine`` tag names the engine the round kernels of
        :mod:`repro.graph.fastgraph` dispatch to (``fast`` or
        ``reference``).
        """
        key = (app_name, dataset, root)
        if key not in self._plans:
            app = make_app(app_name)
            weighted = app_name == "SSSP"
            graph = self.graph(dataset, weighted)
            kwargs = {} if root is None else {"root": root}
            graph_engine = "fast" if fastgraph.use_fast() else "reference"
            with TRACER.span(
                "plan",
                kind="stage",
                app=app_name,
                dataset=dataset,
                root=root,
                graph_engine=graph_engine,
            ):
                self._plans[key] = app.plan(graph, **kwargs)
        return self._plans[key]

    def fused_cell(self, dataset: str) -> bool:
        """Whether this dataset's cells take the fused trace+simulate path.

        Routed on the graph's edge count against the campaign byte budget
        (``REPRO_FUSED_TRACE_BYTES``).
        """
        return stages.use_fused_trace(self.graph(dataset).num_edges)

    def fused_trace_and_simulate(
        self,
        app,
        app_name: str,
        dataset: str,
        technique_name: str,
        degree_kind: str,
        root: int | None,
    ):
        """Fused stage: stream the super-step trace straight into the simulator.

        Returns ``(app_trace, stats)`` where ``app_trace.trace`` is the
        consumed :class:`~repro.framework.trace.StreamingTrace` — counters
        are bit-identical to building the whole trace and simulating it,
        but the full trace never exists in memory.  The span's
        ``trace_engine`` and ``sim_engine`` tags name the trace generator
        and the simulator that ran, as the ``trace`` and ``simulate``
        spans' do.
        """
        weighted = app_name == "SSSP"
        graph = self.reordered_graph(dataset, technique_name, degree_kind, weighted)
        mapping = self.mapping(dataset, technique_name, degree_kind)
        plan = self.plan(app_name, dataset, root).remap(mapping)
        hot_blocks = self.hot_blocks_for(
            app, app_name, dataset, technique_name, degree_kind
        )
        trace_engine = "fast" if fasttrace.use_fast() else "reference"
        with TRACER.span(
            "trace+simulate",
            kind="stage",
            app=app_name,
            dataset=dataset,
            technique=technique_name,
            fused=True,
            trace_engine=trace_engine,
            sim_engine=engine_to_run(config=self.config.hierarchy),
        ):
            app_trace = app.trace_streaming(graph, plan)
            stats = simulate_trace(
                app_trace.trace, self.config.hierarchy, hot_blocks=hot_blocks
            )
        return app_trace, stats

    def hot_blocks_for(
        self,
        app,
        app_name: str,
        dataset: str,
        technique_name: str,
        degree_kind: str,
    ) -> np.ndarray | None:
        """Hot-block classification for the configured policy, or ``None``.

        Computed only when the replacement policy declares
        ``needs_hot_blocks`` (``grasp``), from the *relabelled* graph —
        block IDs live in the reordered address space — and memoized per
        (app, dataset, technique, degree kind).  The classification
        itself (above-average degree, the technique's degree kind) is
        policy-independent, so the memo is shared across policy views.
        """
        policy = get_policy(
            self.config.hierarchy.replacement, context="HierarchyConfig.replacement"
        )
        if not policy.needs_hot_blocks:
            return None
        key = (app_name, dataset, technique_name, degree_kind)
        if key not in self._hot_blocks:
            weighted = app_name == "SSSP"
            graph = self.reordered_graph(dataset, technique_name, degree_kind, weighted)
            self._hot_blocks[key] = app.hot_property_blocks(graph)
        return self._hot_blocks[key]

    def compute_trace_stage(
        self, app_name: str, dataset: str, technique_name: str, root: int | None
    ):
        """Build the :class:`AppTrace` of one (cell, root); nothing is stored.

        The one trace builder.  A trace lives only as long as the group
        that simulates it (:meth:`group`), so it never reaches the store.
        Upstream stages (mapping / relabel / plan) run *outside* the
        trace stage's timer, so the breakdown attributes their cost to
        the stages that paid it.  The span's ``trace_engine`` tag names
        the trace generator that ran (``fast`` or ``reference``).
        """
        degree_kind = self.degree_kind_for(app_name, technique_name)
        weighted = app_name == "SSSP"
        graph = self.reordered_graph(dataset, technique_name, degree_kind, weighted)
        mapping = self.mapping(dataset, technique_name, degree_kind)
        plan = self.plan(app_name, dataset, root).remap(mapping)
        trace_engine = "fast" if fasttrace.use_fast() else "reference"
        with TRACER.span(
            "trace",
            kind="stage",
            app=app_name,
            dataset=dataset,
            technique=technique_name,
            root=root,
            trace_engine=trace_engine,
        ):
            return make_app(app_name).trace(graph, plan)

    # -- stages: simulate + model (the cell aggregate) -----------------------
    def cell_store_key(self, app_name: str, dataset: str, technique_name: str) -> tuple:
        policy = get_policy(
            self.config.hierarchy.replacement, context="HierarchyConfig.replacement"
        )
        return stages.cell_key(
            self.config.cache_key(),
            app_name,
            dataset,
            technique_name,
            policy.cache_token(),
        )

    def cell(self, app_name: str, dataset: str, technique_name: str) -> CellResult:
        """Memoized counters for one grid cell: a one-cell :meth:`group`."""
        return self.group(app_name, dataset, [technique_name])[0]

    def group(
        self,
        app_name: str,
        dataset: str,
        techniques: list[str],
        policies: list[str] | None = None,
    ) -> list[CellResult]:
        """Every cell of one ``(app, dataset)`` group, policy-outermost.

        Stored cells come back as hits (``cache_hit`` events of ``cell``).
        For the rest, each technique's trace of each root is built once
        (:meth:`compute_trace_stage`, over the root's one plan) and
        simulated under every policy view whose cell is missing; only
        the finished cell results are stored.  The group is
        ``(app, dataset)``, not ``(app, dataset, root)``, because a
        root-app cell averages over its roots.  ``policies`` defaults to
        the configured policy.
        """
        views = [self.policy_view(policy) for policy in policies or [None]]
        done: dict[tuple, CellResult] = {}
        missing: dict[str, list[CellPipeline]] = {}
        for view in dict.fromkeys(views):
            for technique_name in dict.fromkeys(techniques):
                key = view.cell_store_key(app_name, dataset, technique_name)
                cached = self.store.get("cell", key)
                if cached is None:
                    missing.setdefault(technique_name, []).append(view)
                    continue
                TRACER.event(
                    "cell",
                    kind="cache_hit",
                    app=app_name,
                    dataset=dataset,
                    technique=technique_name,
                )
                done[(view, technique_name)] = CellResult(**cached)
        for technique_name, todo in missing.items():
            with TRACER.span(
                "cell",
                kind="cell",
                app=app_name,
                dataset=dataset,
                technique=technique_name,
                policies=[view.config.hierarchy.replacement for view in todo],
            ):
                results = self._compute_cells(app_name, dataset, technique_name, todo)
            for view, result in zip(todo, results):
                key = view.cell_store_key(app_name, dataset, technique_name)
                self.store.put("cell", key, dataclasses.asdict(result))
                done[(view, technique_name)] = result
        return [done[(view, t)] for view in views for t in techniques]

    def _compute_cells(
        self,
        app_name: str,
        dataset: str,
        technique_name: str,
        views: list["CellPipeline"],
    ) -> list[CellResult]:
        """One technique's cells under each of ``views``, one trace per root."""
        app = make_app(app_name)
        degree_kind = self.degree_kind_for(app_name, technique_name)
        roots = self.roots(dataset) if app_name in ROOT_APPS else [None]
        fused = self.fused_cell(dataset)
        #: Per view, one (instructions, multiplier, stats, cycles) per root.
        runs: list[list[tuple]] = [[] for _ in views]
        for root in roots:
            if not fused:
                app_trace = self.compute_trace_stage(
                    app_name, dataset, technique_name, root
                )
            for view, view_runs in zip(views, runs):
                if fused:
                    # A streamed trace is consumed by one simulation.
                    app_trace, stats = view.fused_trace_and_simulate(
                        app, app_name, dataset, technique_name, degree_kind, root
                    )
                else:
                    hot_blocks = view.hot_blocks_for(
                        app, app_name, dataset, technique_name, degree_kind
                    )
                    with TRACER.span(
                        "simulate",
                        kind="stage",
                        sim_engine=engine_to_run(config=view.config.hierarchy),
                    ):
                        stats = simulate_trace(
                            app_trace.trace,
                            view.config.hierarchy,
                            hot_blocks=hot_blocks,
                        )
                with TRACER.span("model", kind="stage"):
                    cycles = superstep_cycles(app_trace, stats, view.config.latencies)
                multiplier = app_trace.superstep_multiplier
                view_runs.append((app_trace.instructions, multiplier, stats, cycles))
            app_trace = None  # free this root's trace before the next one
        return [
            view._cell_result(app_name, dataset, technique_name, degree_kind, view_runs)
            for view, view_runs in zip(views, runs)
        ]

    def _cell_result(
        self,
        app_name: str,
        dataset: str,
        technique_name: str,
        degree_kind: str,
        runs: list[tuple],
    ) -> CellResult:
        """Aggregate one cell's per-root runs and model its reordering cost."""
        breakdown = {"l3_hit": 0, "snoop_local": 0, "snoop_remote": 0, "offchip": 0}
        for _, _, stats, _ in runs:
            for k in breakdown:
                breakdown[k] += stats.l2_miss_breakdown[k]
        total_instr = sum(instructions for instructions, _, _, _ in runs)
        total_l2m = sum(stats.l2_misses for _, _, stats, _ in runs)
        kilo = max(total_instr, 1) / 1000.0
        mean_step = float(np.mean([cycles for _, _, _, cycles in runs]))
        # One traversal / whole iterative run per root.
        mean_unit = float(np.mean([cycles * mult for _, mult, _, cycles in runs]))
        if app_name in ROOT_APPS:
            # Paper aggregates 8 traversals; we extrapolate the mean root.
            total_run = mean_unit * self.config.traversals
        else:
            total_run = mean_unit
        technique = make_technique(technique_name, degree_kind)
        with TRACER.span("model", kind="stage"):
            reorder_cycles = self.config.cost_model.total_cycles(
                technique, self.graph(dataset, app_name == "SSSP")
            )
        return CellResult(
            app=app_name,
            dataset=dataset,
            technique=technique_name,
            mpki={
                "l1": sum(stats.l1_misses for _, _, stats, _ in runs) / kilo,
                "l2": total_l2m / kilo,
                "l3": sum(stats.l3_misses for _, _, stats, _ in runs) / kilo,
            },
            l2_breakdown=breakdown,
            l2_misses=total_l2m,
            instructions=total_instr,
            superstep_cycles=mean_step,
            unit_cycles=mean_unit,
            run_cycles=total_run,
            reorder_cycles=reorder_cycles,
        )

    # -- standalone stage entry point (grid scheduler mapping phase) ---------
    def compute_mapping_stage(
        self, dataset: str, technique_name: str, degree_kind: str
    ) -> None:
        """Materialize one mapping artifact (scheduler phase entry)."""
        self.mapping(dataset, technique_name, degree_kind)
