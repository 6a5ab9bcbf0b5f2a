"""Stage-graph execution for one experiment cell.

One *cell* of the paper's evaluation grid is (application, dataset,
reordering technique).  Producing a cell walks the declared stage DAG
(:data:`repro.pipeline.stages.PIPELINE`):

1. **generate** — build (or fetch) the dataset analog;
2. **mapping** — instantiate the technique with the degree kind the paper
   uses for that application (Table VIII) and compute the permutation;
3. **relabel** — rebuild the CSR under the permutation;
4. **trace** — remap the application's recorded execution plan and build
   the representative-super-step memory trace;
5. **simulate** — run the trace through the cache simulator;
6. **model** — convert miss counts and reordering cost to cycles and
   aggregate the persisted :class:`CellResult`.

:class:`CellPipeline` executes those stages against one
:class:`~repro.pipeline.store.ArtifactStore`: the persisted stages
(mapping / trace / cell) are content-addressed through the key builders
in :mod:`repro.pipeline.stages`, and every stage execution or store hit
is accounted to the process-global stage profiler — the profiler and the
shared-memory graph transport attach through the two hook points
(:meth:`CellPipeline._persisted` and :meth:`CellPipeline.seed_graphs`)
instead of being threaded through call sites.

Memory-resident stages (generate / relabel, plus application plans) are
memoized per process only: graphs are large and regenerate quickly, and
the grid scheduler ships them zero-copy through shared memory instead of
pickling them to disk.
"""

from __future__ import annotations

import dataclasses
from dataclasses import astuple, dataclass, field

import numpy as np

from repro.observability import TRACER
from repro.pipeline.profiler import PROFILER
from repro.apps import make_app
from repro.cachesim import DEFAULT_HIERARCHY, HierarchyConfig, get_policy, simulate_trace
from repro.graph.csr import Graph
from repro.graph.generators import load_dataset
from repro.perfmodel.cost import ReorderCostModel
from repro.perfmodel.timing import LatencyModel, superstep_cycles
from repro.pipeline import stages
from repro.pipeline.stages import PIPELINE
from repro.pipeline.store import ArtifactStore
from repro.reorder import Composed, Gorder, make_technique
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
        """
        h = self.hierarchy
        return (
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
    """Executes the stage graph for one experiment configuration."""

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
        self._policy_views: dict[str, "CellPipeline"] = {}

    #: Memory caches a policy view shares with its parent pipeline by
    #: reference (everything policy-independent: graphs, plans, mappings,
    #: relabelled graphs and hot-block classifications).
    _SHARED_CACHES = ("_graphs", "_plans", "_mappings", "_reordered", "_hot_blocks")

    def policy_view(self, policy: str | None) -> "CellPipeline":
        """A pipeline view simulating under ``policy``, sharing everything else.

        The policy axis only affects the simulate/model stages: graphs,
        plans, mappings, relabelled graphs and traces are identical
        across policies, so the view shares those memory caches (and the
        store) with its parent by reference — this is what gives
        ``run_grid``'s policy axis the same exactly-once stage dedup the
        technique axis has.  ``None`` or the current policy returns
        ``self``; unknown names raise
        :class:`~repro.cachesim.policies.UnknownPolicyError`.
        """
        if policy is None or policy == self.config.hierarchy.replacement:
            return self
        view = self._policy_views.get(policy)
        if view is None:
            get_policy(policy, context="policy_view")
            config = dataclasses.replace(
                self.config,
                hierarchy=dataclasses.replace(
                    self.config.hierarchy, replacement=policy
                ),
            )
            view = type(self)(config, store=self.store)
            for name in self._SHARED_CACHES:
                setattr(view, name, getattr(self, name))
            self._policy_views[policy] = view
        return view

    # -- hooks ---------------------------------------------------------------
    def seed_graphs(self, graphs: dict) -> None:
        """Pre-populate the generate stage's memory cache.

        The hook the shared-memory grid transport attaches through: a
        worker seeds the zero-copy ``Graph`` views it mapped from the
        parent's segments, and the generate stage serves them instead of
        regenerating (:mod:`repro.pipeline.sharedgraph`).
        """
        self._graphs.update(graphs)

    def _persisted(self, stage_name: str, key: tuple, compute, **tags):
        """Run a persisted stage: store hit, else profile + compute + put.

        The one code path every store-backed stage funnels through, so
        the profiler/tracer hook (stage spans; hits counted as cheap
        calls of the stage they short-circuit) and the store's
        hit/miss/byte accounting cover the whole pipeline uniformly.
        ``tags`` annotate the emitted span/event with cell identity.
        """
        kind = PIPELINE.spec(stage_name).artifact_kind
        cached = self.store.get(kind, key)
        if cached is not None:
            PROFILER.count_cache_hit(stage_name, **tags)
            return cached
        with PROFILER.stage(stage_name, **tags):
            value = compute()
        self.store.put(kind, key, value)
        return value

    # -- stage: generate -----------------------------------------------------
    def graph(self, dataset: str, weighted: bool = False) -> Graph:
        key = (dataset, weighted)
        if key not in self._graphs:
            with PROFILER.stage("generate", dataset=dataset, weighted=weighted):
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
    def make_technique(self, technique_name: str, degree_kind: str):
        """Instantiate a technique from its (possibly parameterized) label."""
        # Ablation labels may pin the degree kind: "DBG@in".
        if "@" in technique_name:
            technique_name, _, degree_kind = technique_name.partition("@")
        if technique_name == "Gorder+DBG":
            return Composed([Gorder(degree_kind), make_technique("DBG", degree_kind)])
        if technique_name.startswith("Gorder-w"):
            # Ablation labels: Gorder with an explicit window size.
            return Gorder(degree_kind, window=int(technique_name[8:]))
        if technique_name.startswith("DBG-g"):
            # Ablation labels: DBG with an explicit hot-group count.
            return make_technique(
                "DBG", degree_kind, num_hot_groups=int(technique_name[5:])
            )
        if technique_name.startswith("DBG-t"):
            # Ablation labels: DBG with a scaled hot threshold.
            return make_technique(
                "DBG", degree_kind, boundary_scale=float(technique_name[5:])
            )
        return make_technique(technique_name, degree_kind)

    def degree_kind_for(self, app_name: str, technique_name: str) -> str:
        """Degree kind a cell reorders by: app default, '@' label override."""
        if "@" in technique_name:
            return technique_name.partition("@")[2]
        return make_app(app_name).reorder_degree_kind

    def technique_token(self, technique_name: str, degree_kind: str) -> object:
        """Stable artifact-key identity of a technique label."""
        if technique_name == "Original":
            return "Original"
        return self.make_technique(technique_name, degree_kind).cache_token()

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
            technique = self.make_technique(technique_name, degree_kind)
            mapping = self._persisted(
                "mapping",
                stages.mapping_key(self.config.scale, dataset, token),
                lambda: technique.compute_mapping(self.graph(dataset)),
                dataset=dataset,
                technique=technique_name,
            )
        self._mappings[key] = mapping
        return mapping

    # -- stage: relabel ------------------------------------------------------
    def reordered_graph(
        self, dataset: str, technique_name: str, degree_kind: str, weighted: bool
    ) -> Graph:
        key = (dataset, self.technique_token(technique_name, degree_kind), weighted)
        if key not in self._reordered:
            mapping = self.mapping(dataset, technique_name, degree_kind)
            graph = self.graph(dataset, weighted)
            with PROFILER.stage("relabel", dataset=dataset, technique=technique_name):
                self._reordered[key] = graph.relabel(mapping)
        return self._reordered[key]

    # -- stage: trace --------------------------------------------------------
    def plan(self, app_name: str, dataset: str, root: int | None = None):
        """Application execution plan recorded on the original ordering.

        Built under the ``plan`` profiler stage, so run manifests account
        for plan time alongside the persisted stages.
        """
        key = (app_name, dataset, root)
        if key not in self._plans:
            app = make_app(app_name)
            weighted = app_name == "SSSP"
            graph = self.graph(dataset, weighted)
            kwargs = {} if root is None else {"root": root}
            with PROFILER.stage("plan", app=app_name, dataset=dataset, root=root):
                self._plans[key] = app.plan(graph, **kwargs)
        return self._plans[key]

    def trace_store_key(
        self,
        app_name: str,
        dataset: str,
        technique_name: str,
        degree_kind: str,
        root: int | None,
    ) -> tuple:
        return stages.trace_key(
            self.config.scale,
            app_name,
            dataset,
            self.technique_token(technique_name, degree_kind),
            root,
        )

    def fused_cell(self, dataset: str) -> bool:
        """Whether this dataset's cells take the fused trace+simulate path.

        Routed on the graph's edge count against the campaign byte budget
        (``REPRO_FUSED_TRACE_BYTES``); the same predicate drives the grid
        planner, so fused cells never schedule trace-artifact jobs.
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
        are bit-identical to building the trace artifact and simulating
        it, but the full trace never exists in memory or the store.
        """
        weighted = app_name == "SSSP"
        graph = self.reordered_graph(dataset, technique_name, degree_kind, weighted)
        mapping = self.mapping(dataset, technique_name, degree_kind)
        plan = self.plan(app_name, dataset, root).remap(mapping)
        hot_blocks = self.hot_blocks_for(
            app, app_name, dataset, technique_name, degree_kind
        )
        with PROFILER.stage(
            "trace+simulate",
            app=app_name,
            dataset=dataset,
            technique=technique_name,
            fused=True,
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

    def app_trace(
        self,
        app,
        app_name: str,
        dataset: str,
        technique_name: str,
        degree_kind: str,
        root: int | None,
    ):
        """Built :class:`AppTrace` for one (cell, root), store-memoized."""
        key = self.trace_store_key(app_name, dataset, technique_name, degree_kind, root)
        cached = self.store.get("trace", key)
        if cached is not None:
            PROFILER.count_cache_hit(
                "trace", app=app_name, dataset=dataset, technique=technique_name
            )
            return cached
        # Upstream stages (mapping / relabel / plan) run *outside* the
        # trace stage's timer, so the breakdown attributes their cost to
        # the stages that paid it.
        weighted = app_name == "SSSP"
        graph = self.reordered_graph(dataset, technique_name, degree_kind, weighted)
        mapping = self.mapping(dataset, technique_name, degree_kind)
        plan = self.plan(app_name, dataset, root).remap(mapping)
        with PROFILER.stage(
            "trace", app=app_name, dataset=dataset, technique=technique_name
        ):
            trace = app.trace(graph, plan)
        self.store.put("trace", key, trace)
        return trace

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
        """Memoized counters for one grid cell (see module docstring)."""
        key = self.cell_store_key(app_name, dataset, technique_name)
        cached = self.store.get("cell", key)
        if cached is not None:
            TRACER.event(
                "cell",
                kind="cache_hit",
                app=app_name,
                dataset=dataset,
                technique=technique_name,
            )
            return CellResult(**cached)
        with TRACER.span(
            "cell",
            kind="cell",
            app=app_name,
            dataset=dataset,
            technique=technique_name,
        ):
            result = self._compute_cell(app_name, dataset, technique_name)
        payload = {k: getattr(result, k) for k in result.__dataclass_fields__}
        self.store.put("cell", key, payload)
        return result

    def _compute_cell(
        self, app_name: str, dataset: str, technique_name: str
    ) -> CellResult:
        app = make_app(app_name)
        weighted = app_name == "SSSP"
        degree_kind = self.degree_kind_for(app_name, technique_name)

        roots = self.roots(dataset) if app_name in ROOT_APPS else [None]
        total_instr = 0
        total_l1m = total_l2m = total_l3m = 0
        total_accesses = 0
        breakdown = {"l3_hit": 0, "snoop_local": 0, "snoop_remote": 0, "offchip": 0}
        step_cycles = []
        unit_cycles = []
        run_cycles = []
        fused = self.fused_cell(dataset)
        for root in roots:
            if fused:
                app_trace, stats = self.fused_trace_and_simulate(
                    app, app_name, dataset, technique_name, degree_kind, root
                )
            else:
                app_trace = self.app_trace(
                    app, app_name, dataset, technique_name, degree_kind, root
                )
                hot_blocks = self.hot_blocks_for(
                    app, app_name, dataset, technique_name, degree_kind
                )
                with PROFILER.stage("simulate"):
                    stats = simulate_trace(
                        app_trace.trace, self.config.hierarchy, hot_blocks=hot_blocks
                    )
            total_instr += app_trace.instructions
            total_accesses += stats.accesses
            total_l1m += stats.l1_misses
            total_l2m += stats.l2_misses
            total_l3m += stats.l3_misses
            for k in breakdown:
                breakdown[k] += stats.l2_miss_breakdown[k]
            with PROFILER.stage("model"):
                cycles = superstep_cycles(app_trace, stats, self.config.latencies)
            step_cycles.append(cycles)
            per_run = cycles * app_trace.superstep_multiplier
            unit_cycles.append(per_run)  # one traversal / whole iterative run
            run_cycles.append(per_run)

        mean_step = float(np.mean(step_cycles))
        mean_unit = float(np.mean(unit_cycles))
        if app_name in ROOT_APPS:
            # Paper aggregates 8 traversals; we extrapolate the mean root.
            total_run = mean_unit * self.config.traversals
        else:
            total_run = mean_unit
        kilo = max(total_instr, 1) / 1000.0
        technique = self.make_technique(technique_name, degree_kind)
        with PROFILER.stage("model"):
            reorder_cycles = self.config.cost_model.total_cycles(
                technique, self.graph(dataset, weighted)
            )
        return CellResult(
            app=app_name,
            dataset=dataset,
            technique=technique_name,
            mpki={
                "l1": total_l1m / kilo,
                "l2": total_l2m / kilo,
                "l3": total_l3m / kilo,
            },
            l2_breakdown=breakdown,
            l2_misses=total_l2m,
            instructions=total_instr,
            superstep_cycles=mean_step,
            unit_cycles=mean_unit,
            run_cycles=total_run,
            reorder_cycles=reorder_cycles,
        )

    # -- standalone stage entry points (grid scheduler phases) ---------------
    def compute_mapping_stage(
        self, dataset: str, technique_name: str, degree_kind: str
    ) -> None:
        """Materialize one mapping artifact (scheduler phase entry)."""
        self.mapping(dataset, technique_name, degree_kind)

    def compute_trace_stage(
        self, app_name: str, dataset: str, technique_name: str, root: int | None
    ) -> None:
        """Materialize one trace artifact (scheduler phase entry)."""
        degree_kind = self.degree_kind_for(app_name, technique_name)
        self.app_trace(
            make_app(app_name), app_name, dataset, technique_name, degree_kind, root
        )
