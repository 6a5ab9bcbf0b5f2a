"""Tests for the cell pipeline, its grids and speed-ups (isolated store)."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import ArtifactStore, CellPipeline, ExperimentConfig, run_grid
from repro.analysis.experiments import geomean_speedup, speedup
from repro.observability import TRACER, fold_stage_events, format_stage_table
from repro.reorder import make_technique


@pytest.fixture
def pipeline(tmp_path):
    config = ExperimentConfig(scale=0.2, num_roots=1)
    return CellPipeline(config, store=ArtifactStore(tmp_path))


class TestGeomean:
    def test_matches_manual(self):
        assert geomean_speedup([10.0, 10.0]) == pytest.approx(10.0)

    def test_mixed_signs(self):
        # 1.21 * (1/1.21) = 1 -> 0%.
        down = (1 / 1.21 - 1) * 100
        assert geomean_speedup([21.0, down]) == pytest.approx(0.0, abs=1e-9)

    def test_below_minus_100_rejected(self):
        with pytest.raises(ValueError):
            geomean_speedup([-100.0])


class TestRunnerPlumbing:
    def test_graph_memoized(self, pipeline):
        assert pipeline.graph("lj") is pipeline.graph("lj")

    def test_roots_deterministic_and_nontrivial(self, pipeline):
        roots = pipeline.roots("lj")
        assert roots == pipeline.roots("lj")
        graph = pipeline.graph("lj")
        for root in roots:
            assert graph.out_degrees()[root] >= graph.average_degree()

    def test_mapping_is_permutation(self, pipeline):
        mapping = pipeline.mapping("lj", "DBG", "out")
        n = pipeline.graph("lj").num_vertices
        assert sorted(mapping.tolist()) == list(range(n))

    def test_original_mapping_identity(self, pipeline):
        mapping = pipeline.mapping("lj", "Original", "out")
        assert np.array_equal(mapping, np.arange(mapping.size))


class TestCells:
    def test_cell_fields(self, pipeline):
        cell = pipeline.cell("PR", "lj", "DBG")
        assert cell.app == "PR" and cell.dataset == "lj" and cell.technique == "DBG"
        assert cell.mpki["l1"] >= cell.mpki["l2"] >= cell.mpki["l3"] >= 0
        assert cell.superstep_cycles > 0
        assert cell.run_cycles >= cell.superstep_cycles
        assert cell.reorder_cycles > 0

    def test_original_has_no_reorder_cost(self, pipeline):
        assert pipeline.cell("PR", "lj", "Original").reorder_cycles == 0.0

    def test_cell_disk_memoized(self, pipeline, tmp_path):
        first = pipeline.cell("PR", "lj", "Sort")
        fresh = CellPipeline(pipeline.config, store=ArtifactStore(tmp_path))
        second = fresh.cell("PR", "lj", "Sort")
        assert first.superstep_cycles == second.superstep_cycles

    def test_root_app_cell(self, pipeline):
        cell = pipeline.cell("SSSP", "lj", "DBG")
        assert cell.run_cycles == pytest.approx(
            cell.unit_cycles * pipeline.config.traversals
        )

    def test_breakdown_consistency(self, pipeline):
        cell = pipeline.cell("PRD", "lj", "Original")
        assert sum(cell.l2_breakdown.values()) == cell.l2_misses


class TestRunGrid:
    GRID = (["PR"], ["lj"], ["Original", "Sort"])

    def test_serial_matches_cells(self, pipeline):
        results = run_grid(pipeline, *self.GRID)
        assert [r.technique for r in results] == ["Original", "Sort"]
        for result in results:
            assert result == pipeline.cell("PR", "lj", result.technique)

    def test_grid_order_is_cross_product(self, pipeline):
        results = run_grid(pipeline, ["PR", "PRD"], ["lj"], ["Original"])
        assert [(r.app, r.dataset) for r in results] == [("PR", "lj"), ("PRD", "lj")]

    def test_parallel_matches_serial_on_cold_caches(self, tmp_path):
        config = ExperimentConfig(scale=0.2, num_roots=1)
        serial = CellPipeline(config, store=ArtifactStore(tmp_path / "serial"))
        parallel = CellPipeline(config, store=ArtifactStore(tmp_path / "parallel"))
        assert run_grid(serial, *self.GRID) == run_grid(parallel, *self.GRID, workers=2)

    def test_parallel_populates_shared_cache(self, tmp_path):
        config = ExperimentConfig(scale=0.2, num_roots=1)
        pipeline = CellPipeline(config, store=ArtifactStore(tmp_path / "c"))
        run_grid(pipeline, *self.GRID, workers=2)
        # A fresh pipeline on the same cache replays without recomputation:
        # results must agree cell-for-cell with what the workers stored.
        replay = CellPipeline(config, store=ArtifactStore(tmp_path / "c"))
        assert run_grid(replay, *self.GRID) == run_grid(pipeline, *self.GRID)
        assert len(list((tmp_path / "c").glob("*.pkl"))) >= len(self.GRID[2])


class TestSharedGraphTransport:
    """Grid workers inherit the graphs the parent built (repro.pipeline.grid)."""

    GRID = (["PR", "SSSP"], ["lj"], ["Original", "DBG"])

    @staticmethod
    def _spans(name):
        return [
            e for e in TRACER.snapshot() if e["type"] == "span" and e["name"] == name
        ]

    def test_parallel_shared_matches_serial(self, tmp_path):
        """CellResults must be identical serial vs inherited-graph parallel.

        The grid includes SSSP so the weighted analog is inherited too.
        """
        config = ExperimentConfig(scale=0.2, num_roots=1)
        serial = CellPipeline(config, store=ArtifactStore(tmp_path / "s"))
        shared = CellPipeline(config, store=ArtifactStore(tmp_path / "p"))
        assert run_grid(serial, *self.GRID, workers=1) == run_grid(
            shared, *self.GRID, workers=2
        )

    def test_cold_grid_generates_each_graph_once_in_parent(self, tmp_path):
        """Workers use the parent's graphs: one generate span per graph."""
        config = ExperimentConfig(scale=0.2, num_roots=1)
        pipeline = CellPipeline(config, store=ArtifactStore(tmp_path / "c"))
        TRACER.reset()
        run_grid(pipeline, *self.GRID, workers=2)
        generated = [
            (e["pid"], e["tags"]["dataset"], e["tags"]["weighted"])
            for e in self._spans("generate")
        ]
        parent = os.getpid()
        assert sorted(generated) == [(parent, "lj", False), (parent, "lj", True)]
        assert self._spans("grid")[-1]["tags"]["shared_graphs"] == 2

    def test_warm_cache_skips_export(self, tmp_path):
        """A fully-cached parallel grid builds no graph anywhere."""
        config = ExperimentConfig(scale=0.2, num_roots=1)
        pipeline = CellPipeline(config, store=ArtifactStore(tmp_path / "c"))
        run_grid(pipeline, *self.GRID)  # populate the disk cache
        replay = CellPipeline(config, store=ArtifactStore(tmp_path / "c"))
        TRACER.reset()
        results = run_grid(replay, *self.GRID, workers=2)
        assert len(results) == 4
        assert self._spans("generate") == []
        assert self._spans("grid")[-1]["tags"]["shared_graphs"] == 0


class TestSpeedups:
    def test_original_speedup_zero(self, pipeline):
        assert speedup(pipeline, "PR", "lj", "Original") == pytest.approx(0.0)

    def test_include_reorder_lowers_speedup(self, pipeline):
        excl = speedup(pipeline, "PR", "lj", "DBG")
        incl = speedup(pipeline, "PR", "lj", "DBG", include_reorder=True)
        assert incl < excl

    def test_traversal_override(self, pipeline):
        one = speedup(pipeline, "SSSP", "lj", "DBG", traversals=1)
        many = speedup(pipeline, "SSSP", "lj", "DBG", traversals=32)
        # Excluding reorder cost the per-traversal ratio is constant.
        assert one == pytest.approx(many)


class TestDegreeKindOverride:
    def test_at_label_pins_degree_kind(self, pipeline):
        out_cell = pipeline.cell("PR", "lj", "DBG@out")
        in_cell = pipeline.cell("PR", "lj", "DBG@in")
        # Both are valid cells; PR's default kind is 'out', so the @out
        # variant matches the plain label exactly.
        plain = pipeline.cell("PR", "lj", "DBG")
        assert out_cell.superstep_cycles == pytest.approx(plain.superstep_cycles)
        assert in_cell.technique == "DBG@in"

    def test_parameterized_dbg_labels(self, pipeline):
        few = pipeline.cell("PR", "lj", "DBG-g2")
        many = pipeline.cell("PR", "lj", "DBG-g9")
        assert few.technique == "DBG-g2"
        assert many.superstep_cycles > 0

    def test_threshold_label(self, pipeline):
        cell = pipeline.cell("PR", "lj", "DBG-t2.0")
        assert cell.reorder_cycles > 0


class TestCacheKeyRegressions:
    """Disk keys must reflect everything a cached value depends on."""

    def test_composed_degree_kinds_do_not_collide(self, pipeline, tmp_path):
        """Regression: the old mapping key omitted the degree kind, so the
        disk-memoized Gorder+DBG@in and Gorder+DBG@out variants shared
        (and corrupted) one cache slot."""
        out_mapping = pipeline.mapping("lj", "Gorder+DBG@out", "out")
        # A fresh pipeline on the same cache must not be served the @out
        # mapping for the @in variant.
        replay = CellPipeline(pipeline.config, store=ArtifactStore(tmp_path))
        in_mapping = replay.mapping("lj", "Gorder+DBG@in", "in")
        expected = make_technique("Gorder+DBG", "in").compute_mapping(
            replay.graph("lj")
        )
        assert np.array_equal(in_mapping, expected)
        assert not np.array_equal(in_mapping, out_mapping)

    def test_gorder_window_variants_do_not_collide(self, pipeline, tmp_path):
        from repro.reorder.gorder import Gorder

        pipeline.mapping("lj", "Gorder-w2", "out")
        replay = CellPipeline(pipeline.config, store=ArtifactStore(tmp_path))
        w8 = replay.mapping("lj", "Gorder-w8", "out")
        expected = Gorder("out", window=8).compute_mapping(replay.graph("lj"))
        assert np.array_equal(w8, expected)

    def test_cache_token_identity(self):
        from repro.reorder import Composed, Gorder, make_technique

        # Gorder never reads the degree kind: push and pull apps share
        # one mapping slot instead of computing the same permutation twice.
        assert Gorder("in").cache_token() == Gorder("out").cache_token()
        assert Gorder(window=2).cache_token() != Gorder(window=8).cache_token()
        assert Gorder("out").cache_token() == Gorder("out").cache_token()
        assert make_technique("DBG", "in").cache_token() != make_technique(
            "DBG", "out"
        ).cache_token()
        composed = Composed([Gorder("out"), make_technique("DBG", "out")])
        assert composed.cache_token() != Gorder("out").cache_token()
        assert "Gorder" in repr(composed.cache_token())
        # Composed keeps per-part tokens, so Gorder+DBG splits on DBG's kind.
        composed_in = Composed([Gorder("in"), make_technique("DBG", "in")])
        assert composed.cache_token() != composed_in.cache_token()

    @given(
        n=st.integers(min_value=1, max_value=40),
        density=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_equal_tokens_imply_identical_mappings(self, n, density, seed):
        """Equal ``cache_token()`` must mean byte-identical mappings.

        Checked for every registered technique (plus RCB, a Gorder window
        variant and Gorder+DBG) across every pair of degree kinds, under
        both trace engines (Gorder placement dispatches on it).  Techniques
        declaring ``reads_degree_kind = False`` must actually share tokens,
        so the property is never vacuous for them.
        """
        import itertools
        import os

        from repro.framework import fasttrace
        from repro.graph import from_edges
        from repro.reorder import Composed, Gorder, make_technique
        from repro.reorder.registry import TECHNIQUES

        rng = np.random.default_rng(seed)
        m = density * n
        graph = from_edges(
            n, np.stack([rng.integers(0, n, m), rng.integers(0, n, m)], axis=1)
        )
        builders = {
            name: (lambda kind, name=name: make_technique(name, kind))
            for name in [*TECHNIQUES, "RCB-2"]
        }
        builders["Gorder-w3"] = lambda kind: Gorder(kind, window=3)
        builders["Gorder+DBG"] = lambda kind: Composed(
            [Gorder(kind), make_technique("DBG", kind)]
        )
        engine_choices = ["reference"]
        if fasttrace.fast_available():
            engine_choices.append("fast")
        saved = os.environ.get("REPRO_TRACE_ENGINE")
        try:
            for engine in engine_choices:
                os.environ["REPRO_TRACE_ENGINE"] = engine
                for label, build in builders.items():
                    variants = {kind: build(kind) for kind in ("out", "in", "both")}
                    mappings = {
                        kind: t.compute_mapping(graph) for kind, t in variants.items()
                    }
                    for a, b in itertools.combinations(variants, 2):
                        ta, tb = variants[a], variants[b]
                        if not ta.reads_degree_kind:
                            assert ta.cache_token() == tb.cache_token(), label
                        if ta.cache_token() == tb.cache_token():
                            assert mappings[a].tobytes() == mappings[b].tobytes(), (
                                f"{label} ({engine}): {a} and {b} share a token "
                                "but map differently"
                            )
        finally:
            if saved is None:
                os.environ.pop("REPRO_TRACE_ENGINE", None)
            else:
                os.environ["REPRO_TRACE_ENGINE"] = saved

    def test_latency_model_changes_cache_key(self):
        from repro.perfmodel.timing import LatencyModel

        base = ExperimentConfig()
        tweaked = ExperimentConfig(latencies=LatencyModel(memory=400.0))
        assert base.cache_key() != tweaked.cache_key()

    def test_cost_model_changes_cache_key(self):
        from repro.perfmodel.cost import ReorderCostModel

        base = ExperimentConfig()
        tweaked = ExperimentConfig(
            cost_model=ReorderCostModel(gorder_per_update=1.0)
        )
        assert base.cache_key() != tweaked.cache_key()

    def test_hierarchy_topology_changes_cache_key(self):
        from dataclasses import replace

        base = ExperimentConfig()
        tweaked = ExperimentConfig(
            hierarchy=replace(base.hierarchy, ownership_blocks=128)
        )
        assert base.cache_key() != tweaked.cache_key()

    def test_engine_knob_does_not_change_cache_key(self):
        """Engines are bit-identical, so switching them must hit."""
        from dataclasses import replace

        base = ExperimentConfig()
        ref = ExperimentConfig(hierarchy=replace(base.hierarchy, engine="reference"))
        assert base.cache_key() == ref.cache_key()


class TestAppTrace:
    def test_traces_distinguish_roots(self, pipeline):
        roots = pipeline.roots("lj")
        if len(roots) < 2:
            roots = roots + [roots[0] + 1]
        t0 = pipeline.compute_trace_stage("SSSP", "lj", "DBG", roots[0])
        t1 = pipeline.compute_trace_stage("SSSP", "lj", "DBG", roots[1])
        assert t0.trace.total_accesses != t1.trace.total_accesses or (
            t0.trace.blocks.tobytes() != t1.trace.blocks.tobytes()
        )

    def test_app_trace_stores_nothing(self, pipeline):
        pipeline.compute_trace_stage("PR", "lj", "DBG", None)
        assert "trace" not in pipeline.store.stats.as_dict()
        assert not list(pipeline.store.directory.glob("trace-*"))


class TestGridProfiler:
    """A grid's per-stage breakdown, folded from its stage spans."""

    def test_serial_grid_records_stages(self, pipeline):
        TRACER.reset()
        run_grid(pipeline, ["PR"], ["lj"], ["Original", "DBG"])
        stages = fold_stage_events(TRACER.snapshot())
        for stage in ("generate", "trace", "simulate", "model"):
            assert stage in stages, stage
        assert "trace" in format_stage_table(stages)

    def test_parallel_grid_merges_worker_deltas(self, tmp_path):
        """With no run observed, worker events join the parent's tracer."""
        config = ExperimentConfig(scale=0.2, num_roots=1)
        pipeline = CellPipeline(config, store=ArtifactStore(tmp_path / "p"))
        TRACER.reset()
        run_grid(pipeline, ["PR"], ["lj"], ["Original", "DBG"], workers=2)
        stages = fold_stage_events(TRACER.snapshot())
        assert stages["simulate"]["calls"] >= 2
        assert stages["trace"]["calls"] + stages["trace"]["cache_hits"] >= 2


def _built(events, stage, fields):
    """How often each ``fields`` tuple ran ``stage``, from stage spans."""
    from collections import Counter

    return Counter(
        tuple(event["tags"][field] for field in fields)
        for event in events
        if event.get("type") == "span"
        and event["name"] == stage
        and event["tags"].get("kind") == "stage"
    )


class TestExactlyOnceScheduling:
    """Grid equivalence + exactly-once stage computation.

    The same small grid must produce identical CellResults serially and
    with workers=2, cold and warm.  On the cold pass the store must hold
    each unique mapping exactly once, and the folded stage spans must
    show each unique plan and trace built exactly once, inside the one
    ``(app, dataset)`` group that needs it; the warm pass recomputes
    nothing, no matter how the groups were distributed.
    """

    # PR and PRD share PageRank's plan shape but are distinct apps; DBG
    # appears in every app's cells, so its mapping is shared work.
    GRID = (["PR", "SSSP"], ["lj"], ["Original", "DBG"])

    @staticmethod
    def _unique_work(p):
        """(unique mapping keys, traces, plans) GRID's groups build."""
        mappings, traces, plans = set(), set(), set()
        for app in ("PR", "SSSP"):
            roots = p.roots("lj") if app in ("SSSP", "BC") else [None]
            plans.update((app, "lj", root) for root in roots)
            for tech in ("Original", "DBG"):
                kind = p.degree_kind_for(app, tech)
                if tech != "Original":
                    mappings.add(p.mapping_store_key("lj", tech, kind))
                traces.update((app, "lj", tech, root) for root in roots)
        return len(mappings), traces, plans

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_grid_stores_each_stage_once(self, tmp_path, workers):
        from collections import Counter

        config = ExperimentConfig(scale=0.2, num_roots=1)
        pipeline = CellPipeline(config, store=ArtifactStore(tmp_path / "c"))
        TRACER.reset()
        results = run_grid(pipeline, *self.GRID, workers=workers)
        assert len(results) == 4
        n_mappings, traces, plans = self._unique_work(pipeline)
        stats = pipeline.store.stats.as_dict()
        assert stats["mapping"]["stores"] == n_mappings
        assert stats["mapping"]["misses"] == n_mappings
        assert stats["cell"]["stores"] == 4
        assert "trace" not in stats
        events = TRACER.snapshot()
        assert _built(events, "trace", ("app", "dataset", "technique", "root")) == (
            Counter(traces)
        )
        assert _built(events, "plan", ("app", "dataset", "root")) == Counter(plans)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_grid_recomputes_nothing(self, tmp_path, workers):
        config = ExperimentConfig(scale=0.2, num_roots=1)
        cold = CellPipeline(config, store=ArtifactStore(tmp_path / "c"))
        reference = run_grid(cold, *self.GRID)
        warm = CellPipeline(config, store=ArtifactStore(tmp_path / "c"))
        replay = run_grid(warm, *self.GRID, workers=workers)
        assert replay == reference
        stats = warm.store.stats.as_dict()
        # Every cell replays from its stored result; the upstream
        # mappings are never even consulted.
        assert stats["cell"]["hits"] == 4
        assert stats["cell"]["misses"] == 0
        for kind in ("mapping", "cell"):
            assert stats.get(kind, {}).get("stores", 0) == 0, kind

    def test_parallel_cold_equals_serial_cold(self, tmp_path):
        config = ExperimentConfig(scale=0.2, num_roots=1)
        serial = CellPipeline(config, store=ArtifactStore(tmp_path / "s"))
        parallel = CellPipeline(config, store=ArtifactStore(tmp_path / "p"))
        assert run_grid(serial, *self.GRID) == run_grid(parallel, 
            *self.GRID, workers=2
        )

    def test_stage_jobs_deduplicated(self, tmp_path):
        from repro.pipeline import plan_stage_jobs
        import itertools

        config = ExperimentConfig(scale=0.2, num_roots=1)
        pipeline = CellPipeline(config, store=ArtifactStore(tmp_path / "j"))
        cells = list(itertools.product(*self.GRID))
        missing, mapping_jobs = plan_stage_jobs(pipeline, cells)
        assert missing == cells  # nothing stored yet
        n_mappings, _, _ = self._unique_work(pipeline)
        assert len(mapping_jobs) == n_mappings
        # A warm store plans no work at all.
        run_grid(pipeline, *self.GRID)
        assert plan_stage_jobs(pipeline, cells) == ([], [])

    def test_gorder_mapping_and_plans_built_once_across_workers(self, tmp_path):
        """Push (PR: out) x pull (SSSP: in) apps over {Original, DBG, Gorder}.

        Gorder ignores the degree kind, so each dataset gets exactly one
        Gorder mapping; DBG reads it and gets one per kind.  Group jobs
        build every application plan in exactly one worker, counted from
        the merged span stream.
        """
        from collections import Counter

        from repro import observability

        grid = (["PR", "SSSP"], ["lj", "wl"], ["Original", "DBG", "Gorder"])
        config = ExperimentConfig(scale=0.2, num_roots=1)
        outcomes = {}
        for workers in (1, 2):
            pipeline = CellPipeline(
                config, store=ArtifactStore(tmp_path / f"store{workers}")
            )
            with observability.start_run(tmp_path / "runs", run_id=f"w{workers}") as run:
                results = run_grid(pipeline, *grid, workers=workers)
            spans = [
                event
                for event in observability.iter_events(run.run_dir)
                if event.get("type") == "span"
                and event.get("tags", {}).get("kind") == "stage"
            ]
            outcomes[workers] = (results, pipeline.store.stats.as_dict(), spans)

        serial, _, serial_spans = outcomes[1]
        parallel, stats, spans = outcomes[2]
        assert parallel == serial
        datasets = grid[1]
        # One Gorder mapping per dataset, plus DBG under both degree kinds.
        assert stats["mapping"]["stores"] == len(datasets) * (1 + 2)
        gorder = Counter(
            s["tags"]["dataset"]
            for s in spans
            if s["name"] == "mapping" and s["tags"].get("technique") == "Gorder"
        )
        assert gorder == {dataset: 1 for dataset in datasets}

        def plans(stage_spans):
            return Counter(
                (s["tags"]["app"], s["tags"]["dataset"], s["tags"]["root"])
                for s in stage_spans
                if s["name"] == "plan"
            )

        built = plans(spans)
        assert built == plans(serial_spans)
        assert set(built.values()) == {1}
        # PR has no root; SSSP has one per dataset at num_roots=1.
        assert len(built) == 2 * len(datasets)

    def test_unknown_engine_env_rejected_before_work(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "fastest")
        config = ExperimentConfig(scale=0.2, num_roots=1)
        pipeline = CellPipeline(config, store=ArtifactStore(tmp_path / "e"))
        with pytest.raises(ValueError, match="REPRO_SIM_ENGINE"):
            run_grid(pipeline, ["PR"], ["lj"], ["Original"])
