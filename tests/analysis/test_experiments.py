"""Tests for the experiment runner facade (small-scale, isolated store)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import ArtifactStore
from repro.analysis.experiments import (
    ExperimentConfig,
    ExperimentRunner,
    geomean_speedup,
)


@pytest.fixture
def runner(tmp_path):
    config = ExperimentConfig(scale=0.2, num_roots=1)
    return ExperimentRunner(config, store=ArtifactStore(tmp_path))


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
    def test_graph_memoized(self, runner):
        assert runner.graph("lj") is runner.graph("lj")

    def test_roots_deterministic_and_nontrivial(self, runner):
        roots = runner.roots("lj")
        assert roots == runner.roots("lj")
        graph = runner.graph("lj")
        for root in roots:
            assert graph.out_degrees()[root] >= graph.average_degree()

    def test_mapping_is_permutation(self, runner):
        mapping = runner.mapping("lj", "DBG", "out")
        n = runner.graph("lj").num_vertices
        assert sorted(mapping.tolist()) == list(range(n))

    def test_original_mapping_identity(self, runner):
        mapping = runner.mapping("lj", "Original", "out")
        assert np.array_equal(mapping, np.arange(mapping.size))


class TestCells:
    def test_cell_fields(self, runner):
        cell = runner.cell("PR", "lj", "DBG")
        assert cell.app == "PR" and cell.dataset == "lj" and cell.technique == "DBG"
        assert cell.mpki["l1"] >= cell.mpki["l2"] >= cell.mpki["l3"] >= 0
        assert cell.superstep_cycles > 0
        assert cell.run_cycles >= cell.superstep_cycles
        assert cell.reorder_cycles > 0

    def test_original_has_no_reorder_cost(self, runner):
        assert runner.cell("PR", "lj", "Original").reorder_cycles == 0.0

    def test_cell_disk_memoized(self, runner, tmp_path):
        first = runner.cell("PR", "lj", "Sort")
        fresh_runner = ExperimentRunner(runner.config, store=ArtifactStore(tmp_path))
        second = fresh_runner.cell("PR", "lj", "Sort")
        assert first.superstep_cycles == second.superstep_cycles

    def test_root_app_cell(self, runner):
        cell = runner.cell("SSSP", "lj", "DBG")
        assert cell.run_cycles == pytest.approx(
            cell.unit_cycles * runner.config.traversals
        )

    def test_breakdown_consistency(self, runner):
        cell = runner.cell("PRD", "lj", "Original")
        assert sum(cell.l2_breakdown.values()) == cell.l2_misses


class TestRunGrid:
    GRID = (["PR"], ["lj"], ["Original", "Sort"])

    def test_serial_matches_cells(self, runner):
        results = runner.run_grid(*self.GRID)
        assert [r.technique for r in results] == ["Original", "Sort"]
        for result in results:
            assert result == runner.cell("PR", "lj", result.technique)

    def test_grid_order_is_cross_product(self, runner):
        results = runner.run_grid(["PR", "PRD"], ["lj"], ["Original"])
        assert [(r.app, r.dataset) for r in results] == [("PR", "lj"), ("PRD", "lj")]

    def test_parallel_matches_serial_on_cold_caches(self, tmp_path):
        config = ExperimentConfig(scale=0.2, num_roots=1)
        serial_runner = ExperimentRunner(config, store=ArtifactStore(tmp_path / "serial"))
        parallel_runner = ExperimentRunner(
            config, store=ArtifactStore(tmp_path / "parallel")
        )
        serial = serial_runner.run_grid(*self.GRID)
        parallel = parallel_runner.run_grid(*self.GRID, workers=2)
        assert serial == parallel

    def test_parallel_populates_shared_cache(self, tmp_path):
        config = ExperimentConfig(scale=0.2, num_roots=1)
        runner = ExperimentRunner(config, store=ArtifactStore(tmp_path / "c"))
        runner.run_grid(*self.GRID, workers=2)
        # A fresh runner on the same cache replays without recomputation:
        # results must agree cell-for-cell with what the workers stored.
        replay = ExperimentRunner(config, store=ArtifactStore(tmp_path / "c"))
        assert replay.run_grid(*self.GRID) == runner.run_grid(*self.GRID)
        assert len(list((tmp_path / "c").glob("*.pkl"))) >= len(self.GRID[2])


class TestSharedGraphTransport:
    """Zero-copy graph shipping to grid workers (repro.analysis.sharedgraph)."""

    GRID = (["PR", "SSSP"], ["lj"], ["Original", "DBG"])

    def test_export_attach_roundtrip(self, runner):
        from repro.analysis import sharedgraph

        graphs = {
            ("lj", False): runner.graph("lj"),
            ("lj", True): runner.graph("lj", weighted=True),
        }
        handles, manifest = sharedgraph.export_graphs(graphs)
        try:
            attached = sharedgraph.attach_graphs(manifest)
            for key, original in graphs.items():
                clone = attached[key]
                assert clone == original
                assert not clone.out_offsets.flags.writeable
                assert clone.is_weighted == original.is_weighted
                if original.is_weighted:
                    assert np.array_equal(clone.out_weights, original.out_weights)
        finally:
            sharedgraph.release_graphs(handles)

    def test_parallel_shared_matches_serial(self, tmp_path):
        """CellResults must be identical serial vs shared-memory parallel.

        The grid includes SSSP so the weighted analog also rides the
        shared segments.
        """
        config = ExperimentConfig(scale=0.2, num_roots=1)
        serial_runner = ExperimentRunner(config, store=ArtifactStore(tmp_path / "s"))
        shared_runner = ExperimentRunner(config, store=ArtifactStore(tmp_path / "p"))
        serial = serial_runner.run_grid(*self.GRID, workers=1)
        shared = shared_runner.run_grid(*self.GRID, workers=2)
        assert serial == shared

    def test_fallback_matches_shared(self, tmp_path):
        """share_graphs=False (the regeneration path) stays bit-identical."""
        config = ExperimentConfig(scale=0.2, num_roots=1)
        shared_runner = ExperimentRunner(config, store=ArtifactStore(tmp_path / "a"))
        fallback_runner = ExperimentRunner(config, store=ArtifactStore(tmp_path / "b"))
        shared = shared_runner.run_grid(*self.GRID, workers=2)
        fallback = fallback_runner.run_grid(*self.GRID, workers=2, share_graphs=False)
        assert shared == fallback

    def test_warm_cache_skips_export(self, tmp_path, monkeypatch):
        """A fully-cached grid must not rebuild or export any graph."""
        from repro.analysis import sharedgraph

        config = ExperimentConfig(scale=0.2, num_roots=1)
        runner = ExperimentRunner(config, store=ArtifactStore(tmp_path / "c"))
        runner.run_grid(*self.GRID)  # populate the disk cache

        def boom(graphs):  # pragma: no cover - must not run
            raise AssertionError("export_graphs called on a warm cache")

        monkeypatch.setattr(sharedgraph, "export_graphs", boom)
        replay = ExperimentRunner(config, store=ArtifactStore(tmp_path / "c"))
        results = replay.run_grid(*self.GRID, workers=2)
        assert len(results) == 4

    def test_mmap_spill_roundtrip(self, runner, tmp_path):
        from repro.analysis import sharedgraph

        graphs = {
            ("lj", False): runner.graph("lj"),
            ("lj", True): runner.graph("lj", weighted=True),
        }
        handles, manifest = sharedgraph.export_graphs_mmap(graphs, tmp_path / "spill")
        try:
            assert all(spec["kind"] == "mmap" for spec in manifest.values())
            attached = sharedgraph.attach_graphs(manifest)
            for key, original in graphs.items():
                clone = attached[key]
                assert clone == original
                assert isinstance(clone.out_targets, np.memmap)
                assert not clone.out_targets.flags.writeable
        finally:
            sharedgraph.release_graphs(handles)
        assert not (tmp_path / "spill").exists()

    def test_shm_failure_degrades_to_mmap_transport(self, tmp_path, monkeypatch):
        """When POSIX shm is unusable the grid ships graphs via mmap spill."""
        from repro.pipeline import sharedgraph as pipeline_sharedgraph

        def unavailable(graphs):
            raise pipeline_sharedgraph.SharedMemoryUnavailable("no /dev/shm")

        monkeypatch.setattr(pipeline_sharedgraph, "export_graphs", unavailable)
        spilled = {}
        real_spill = pipeline_sharedgraph.export_graphs_mmap

        def spying_spill(graphs, directory):
            spilled["keys"] = sorted(graphs)
            return real_spill(graphs, directory)

        monkeypatch.setattr(pipeline_sharedgraph, "export_graphs_mmap", spying_spill)
        config = ExperimentConfig(scale=0.2, num_roots=1)
        runner = ExperimentRunner(config, store=ArtifactStore(tmp_path / "m"))
        results = runner.run_grid(["PR"], ["lj"], ["Original"], workers=2)
        assert len(results) == 1
        assert spilled["keys"] == [("lj", False)]

    def test_export_failure_falls_back(self, tmp_path, monkeypatch):
        """SharedMemoryUnavailable must degrade to regeneration, not fail."""
        from repro.analysis import sharedgraph

        def unavailable(graphs):
            raise sharedgraph.SharedMemoryUnavailable("no /dev/shm")

        monkeypatch.setattr(sharedgraph, "export_graphs", unavailable)
        config = ExperimentConfig(scale=0.2, num_roots=1)
        runner = ExperimentRunner(config, store=ArtifactStore(tmp_path / "f"))
        results = runner.run_grid(["PR"], ["lj"], ["Original"], workers=2)
        assert len(results) == 1


class TestSpeedups:
    def test_original_speedup_zero(self, runner):
        assert runner.speedup("PR", "lj", "Original") == pytest.approx(0.0)

    def test_include_reorder_lowers_speedup(self, runner):
        excl = runner.speedup("PR", "lj", "DBG")
        incl = runner.speedup("PR", "lj", "DBG", include_reorder=True)
        assert incl < excl

    def test_traversal_override(self, runner):
        one = runner.speedup("SSSP", "lj", "DBG", traversals=1)
        many = runner.speedup("SSSP", "lj", "DBG", traversals=32)
        # Excluding reorder cost the per-traversal ratio is constant.
        assert one == pytest.approx(many)


class TestDegreeKindOverride:
    def test_at_label_pins_degree_kind(self, runner):
        out_cell = runner.cell("PR", "lj", "DBG@out")
        in_cell = runner.cell("PR", "lj", "DBG@in")
        # Both are valid cells; PR's default kind is 'out', so the @out
        # variant matches the plain label exactly.
        plain = runner.cell("PR", "lj", "DBG")
        assert out_cell.superstep_cycles == pytest.approx(plain.superstep_cycles)
        assert in_cell.technique == "DBG@in"

    def test_parameterized_dbg_labels(self, runner):
        few = runner.cell("PR", "lj", "DBG-g2")
        many = runner.cell("PR", "lj", "DBG-g9")
        assert few.technique == "DBG-g2"
        assert many.superstep_cycles > 0

    def test_threshold_label(self, runner):
        cell = runner.cell("PR", "lj", "DBG-t2.0")
        assert cell.reorder_cycles > 0


class TestCacheKeyRegressions:
    """Disk keys must reflect everything a cached value depends on."""

    def test_composed_degree_kinds_do_not_collide(self, runner, tmp_path):
        """Regression: the old mapping key omitted the degree kind, so the
        disk-memoized Gorder+DBG@in and Gorder+DBG@out variants shared
        (and corrupted) one cache slot."""
        out_mapping = runner.mapping("lj", "Gorder+DBG@out", "out")
        # A fresh runner on the same cache must not be served the @out
        # mapping for the @in variant.
        replay = ExperimentRunner(runner.config, store=ArtifactStore(tmp_path))
        in_mapping = replay.mapping("lj", "Gorder+DBG@in", "in")
        expected = replay._make("Gorder+DBG", "in").compute_mapping(
            replay.graph("lj")
        )
        assert np.array_equal(in_mapping, expected)
        assert not np.array_equal(in_mapping, out_mapping)

    def test_gorder_window_variants_do_not_collide(self, runner, tmp_path):
        from repro.reorder.gorder import Gorder

        runner.mapping("lj", "Gorder-w2", "out")
        replay = ExperimentRunner(runner.config, store=ArtifactStore(tmp_path))
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


class TestTraceMemoization:
    def test_trace_reused_across_runners(self, runner, tmp_path):
        from repro.analysis.profiler import PROFILER

        first = runner.cell("PR", "lj", "DBG")
        replay = ExperimentRunner(runner.config, store=ArtifactStore(tmp_path))
        PROFILER.reset()
        # Forget the cell result but keep the trace: the replayed cell must
        # rebuild from the memoized AppTrace (a 'trace' cache hit).
        key = replay.pipeline.cell_store_key("PR", "lj", "DBG")
        replay.store.path_for("cell", key).unlink()
        second = replay.cell("PR", "lj", "DBG")
        assert first == second
        snap = PROFILER.snapshot()
        assert snap["trace"].cache_hits >= 1
        assert snap["trace"].calls == 0

    def test_trace_key_distinguishes_roots(self, runner):
        from repro.apps import make_app

        app = make_app("SSSP")
        roots = runner.roots("lj")
        if len(roots) < 2:
            roots = roots + [roots[0] + 1]
        t0 = runner.app_trace(app, "SSSP", "lj", "DBG", "in", roots[0])
        t1 = runner.app_trace(app, "SSSP", "lj", "DBG", "in", roots[1])
        assert t0.trace.total_accesses != t1.trace.total_accesses or (
            t0.trace.blocks.tobytes() != t1.trace.blocks.tobytes()
        )


class TestGridProfiler:
    def test_serial_grid_records_stages(self, runner):
        from repro.analysis.profiler import PROFILER

        PROFILER.reset()
        runner.run_grid(["PR"], ["lj"], ["Original", "DBG"])
        snap = PROFILER.snapshot()
        for stage in ("generate", "trace", "simulate", "model"):
            assert stage in snap, stage
        assert "trace" in PROFILER.format_snapshot()

    def test_parallel_grid_merges_worker_deltas(self, tmp_path):
        from repro.analysis.profiler import PROFILER

        config = ExperimentConfig(scale=0.2, num_roots=1)
        runner = ExperimentRunner(config, store=ArtifactStore(tmp_path / "p"))
        PROFILER.reset()
        runner.run_grid(["PR"], ["lj"], ["Original", "DBG"], workers=2)
        snap = PROFILER.snapshot()
        assert snap["simulate"].calls >= 2
        assert snap["trace"].calls + snap["trace"].cache_hits >= 2


class TestExactlyOnceScheduling:
    """Grid equivalence + exactly-once stage computation (ISSUE acceptance).

    The same small grid must produce identical CellResults serially and
    with workers=2, cold and warm — and the ArtifactStore statistics must
    show each unique mapping/trace artifact *stored* exactly once on the
    cold pass and *recomputed never* on the warm pass, no matter how the
    stages were distributed.
    """

    # PR and PRD share PageRank's plan shape but are distinct apps; DBG
    # appears in every app's cells, so its mapping/traces are shared work.
    GRID = (["PR", "SSSP"], ["lj"], ["Original", "DBG"])

    @staticmethod
    def _unique_counts(runner):
        """(unique mapping keys, unique trace keys) for GRID's cells."""
        p = runner.pipeline
        mappings, traces = set(), set()
        for app in ("PR", "SSSP"):
            for tech in ("Original", "DBG"):
                kind = p.degree_kind_for(app, tech)
                if tech != "Original":
                    mappings.add(p.mapping_store_key("lj", tech, kind))
                roots = p.roots("lj") if app in ("SSSP", "BC") else [None]
                for root in roots:
                    traces.add(p.trace_store_key(app, "lj", tech, kind, root))
        return len(mappings), len(traces)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_grid_stores_each_stage_once(self, tmp_path, workers):
        config = ExperimentConfig(scale=0.2, num_roots=1)
        runner = ExperimentRunner(config, store=ArtifactStore(tmp_path / "c"))
        results = runner.run_grid(*self.GRID, workers=workers)
        assert len(results) == 4
        n_mappings, n_traces = self._unique_counts(runner)
        stats = runner.store.stats.as_dict()
        assert stats["mapping"]["stores"] == n_mappings
        assert stats["trace"]["stores"] == n_traces
        assert stats["cell"]["stores"] == 4
        assert stats["mapping"]["misses"] == n_mappings
        assert stats["trace"]["misses"] == n_traces

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_grid_recomputes_nothing(self, tmp_path, workers):
        config = ExperimentConfig(scale=0.2, num_roots=1)
        cold = ExperimentRunner(config, store=ArtifactStore(tmp_path / "c"))
        reference = cold.run_grid(*self.GRID)
        warm = ExperimentRunner(config, store=ArtifactStore(tmp_path / "c"))
        replay = warm.run_grid(*self.GRID, workers=workers)
        assert replay == reference
        stats = warm.store.stats.as_dict()
        # Every cell replays from its stored result; the upstream
        # mapping/trace artifacts are never even consulted.
        assert stats["cell"]["hits"] == 4
        assert stats["cell"]["misses"] == 0
        for kind in ("mapping", "trace", "cell"):
            assert stats.get(kind, {}).get("stores", 0) == 0, kind

    def test_parallel_cold_equals_serial_cold(self, tmp_path):
        config = ExperimentConfig(scale=0.2, num_roots=1)
        serial = ExperimentRunner(config, store=ArtifactStore(tmp_path / "s"))
        parallel = ExperimentRunner(config, store=ArtifactStore(tmp_path / "p"))
        assert serial.run_grid(*self.GRID) == parallel.run_grid(
            *self.GRID, workers=2
        )

    def test_stage_jobs_deduplicated(self, tmp_path):
        from repro.pipeline import plan_stage_jobs
        import itertools

        config = ExperimentConfig(scale=0.2, num_roots=1)
        runner = ExperimentRunner(config, store=ArtifactStore(tmp_path / "j"))
        cells = list(itertools.product(*self.GRID))
        missing, mapping_jobs, trace_jobs = plan_stage_jobs(runner.pipeline, cells)
        assert missing == cells  # nothing stored yet
        n_mappings, n_traces = self._unique_counts(runner)
        assert len(mapping_jobs) == n_mappings
        assert len(trace_jobs) == n_traces
        # A warm store plans no work at all.
        runner.run_grid(*self.GRID)
        assert plan_stage_jobs(runner.pipeline, cells) == ([], [], [])

    def test_gorder_mapping_and_plans_built_once_across_workers(self, tmp_path):
        """Push (PR: out) x pull (SSSP: in) apps over {Original, DBG, Gorder}.

        Gorder ignores the degree kind, so each dataset gets exactly one
        Gorder mapping; DBG reads it and gets one per kind.  Plan-affine
        trace jobs build every application plan in exactly one worker,
        counted from the merged span stream.
        """
        from collections import Counter

        from repro import observability

        grid = (["PR", "SSSP"], ["lj", "wl"], ["Original", "DBG", "Gorder"])
        config = ExperimentConfig(scale=0.2, num_roots=1)
        outcomes = {}
        for workers in (1, 2):
            runner = ExperimentRunner(
                config, store=ArtifactStore(tmp_path / f"store{workers}")
            )
            with observability.start_run(tmp_path / "runs", run_id=f"w{workers}") as run:
                results = runner.run_grid(*grid, workers=workers)
            spans = [
                event
                for event in observability.iter_events(run.run_dir)
                if event.get("type") == "span"
                and event.get("tags", {}).get("kind") == "stage"
            ]
            outcomes[workers] = (results, runner.store.stats.as_dict(), spans)

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
        runner = ExperimentRunner(config, store=ArtifactStore(tmp_path / "e"))
        with pytest.raises(ValueError, match="REPRO_SIM_ENGINE"):
            runner.run_grid(["PR"], ["lj"], ["Original"])
