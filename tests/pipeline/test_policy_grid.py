"""The replacement-policy axis of the grid: views, dedup, addressing."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.cachesim.policies import UnknownPolicyError
from repro.observability import TRACER
from repro.pipeline import ArtifactStore, run_grid
from repro.pipeline.cells import CellPipeline, ExperimentConfig
from repro.pipeline.grid import plan_stage_jobs

APPS = ["PR"]
DATASETS = ["wl"]
TECHNIQUES = ["Original", "DBG"]
POLICIES = ["lru", "lip", "grasp"]
CELLS = [(a, d, t) for a in APPS for d in DATASETS for t in TECHNIQUES]


@pytest.fixture
def pipeline(tmp_path):
    TRACER.reset()
    return CellPipeline(
        ExperimentConfig(scale=0.15, num_roots=1),
        store=ArtifactStore(tmp_path / "store"),
    )


def _stage_spans(name):
    return [
        e
        for e in TRACER.snapshot()
        if e.get("type") == "span"
        and e["name"] == name
        and e["tags"].get("kind") == "stage"
    ]


class TestPolicyView:
    def test_none_and_current_policy_return_self(self, pipeline):
        assert pipeline.policy_view(None) is pipeline
        assert pipeline.policy_view("lru") is pipeline

    def test_view_is_cached_and_reconfigured(self, pipeline):
        view = pipeline.policy_view("grasp")
        assert view.config.hierarchy.replacement == "grasp"
        assert view.config.scale == pipeline.config.scale
        assert pipeline.policy_view("grasp") is view

    def test_view_shares_stage_caches_by_reference(self, pipeline):
        config = pipeline.config
        hierarchy = config.hierarchy.scaled(4)
        for view in (
            pipeline.policy_view("lip"),
            pipeline.view(dataclasses.replace(config, hierarchy=hierarchy)),
        ):
            assert view.store is pipeline.store
            for name in CellPipeline._SHARED_CACHES:
                assert getattr(view, name) is getattr(pipeline, name), name
        # The hierarchy view builds the plan and the relabelled graph;
        # the parent then reuses both for its own cell.
        view.cell("PR", "wl", "DBG")
        pipeline.cell("PR", "wl", "DBG")
        assert len(_stage_spans("plan")) == 1
        assert len(_stage_spans("relabel")) == 1

    def test_unknown_policy_rejected(self, pipeline):
        with pytest.raises(UnknownPolicyError):
            pipeline.policy_view("tree-plru")

    def test_cell_addresses_distinct_per_policy(self, pipeline):
        keys = {
            policy: pipeline.policy_view(policy).cell_store_key("PR", "wl", "DBG")
            for policy in POLICIES
        }
        assert len(set(keys.values())) == len(POLICIES)
        # Stage artifacts stay policy-independent: same mapping address.
        mapping_keys = {
            pipeline.policy_view(p).mapping_store_key("wl", "DBG", "out")
            for p in POLICIES
        }
        assert len(mapping_keys) == 1


class TestView:
    """``CellPipeline.view``: any config, memos shared at the same scale."""

    def test_cached_per_full_config(self, pipeline):
        config = pipeline.config
        assert pipeline.view(config) is pipeline
        # The engine knob is outside cache_key() but still its own view.
        engine = dataclasses.replace(
            config, hierarchy=dataclasses.replace(config.hierarchy, engine="reference")
        )
        view = pipeline.view(engine)
        assert view is not pipeline
        assert view.config.cache_key() == config.cache_key()
        assert pipeline.view(engine) is view
        # The view cache is shared: a view of a view is the one pipeline.
        assert view.view(config) is pipeline
        assert pipeline.policy_view("lip").view(engine) is view

    def test_pipeline_without_views_is_freed_at_once(self, tmp_path):
        """No view, no reference cycle: dropping it frees its memos at once."""
        pipeline = CellPipeline(ExperimentConfig(scale=0.15), ArtifactStore(tmp_path))
        assert pipeline.view(pipeline.config) is pipeline
        alive = weakref.ref(pipeline)
        gc.disable()
        try:
            del pipeline
            assert alive() is None
        finally:
            gc.enable()

    def test_view_at_another_scale_shares_nothing(self, pipeline):
        other = pipeline.view(dataclasses.replace(pipeline.config, scale=0.1))
        assert pipeline.view(other.config) is other
        assert other.store is pipeline.store
        for name in CellPipeline._SHARED_CACHES:
            assert getattr(other, name) is not getattr(pipeline, name), name
        other.cell("PR", "wl", "DBG")
        assert not pipeline._graphs and not pipeline._plans
        assert not pipeline._mappings and not pipeline._reordered
        assert other.graph("wl").num_vertices < pipeline.graph("wl").num_vertices


class TestPolicyGrid:
    def test_policy_axis_outermost_order_and_dedup(self, pipeline):
        results = run_grid(pipeline, APPS, DATASETS, TECHNIQUES, policies=POLICIES)
        assert len(results) == len(CELLS) * len(POLICIES)
        # Policy-outermost: the first len(CELLS) results belong to POLICIES[0].
        for i, result in enumerate(results):
            assert result.technique == TECHNIQUES[i % len(TECHNIQUES)]
        stats = pipeline.store.stats.as_dict()
        assert stats["cell"]["stores"] == len(CELLS) * len(POLICIES)
        # One mapping (DBG) and one trace per technique — not per policy.
        assert stats["mapping"]["stores"] == 1
        traces = [
            e["tags"]["technique"]
            for e in TRACER.snapshot()
            if e.get("type") == "span" and e["name"] == "trace"
        ]
        assert sorted(traces) == sorted(TECHNIQUES)

    def test_results_match_serial_policy_views(self, pipeline):
        results = run_grid(pipeline, APPS, DATASETS, TECHNIQUES, policies=POLICIES)
        it = iter(results)
        for policy in POLICIES:
            view = pipeline.policy_view(policy)
            for app, dataset, technique in CELLS:
                assert next(it) == view.cell(app, dataset, technique)

    def test_warm_replay_zero_recomputes(self, pipeline, tmp_path):
        run_grid(pipeline, APPS, DATASETS, TECHNIQUES, policies=POLICIES)
        warm = CellPipeline(pipeline.config, store=ArtifactStore(tmp_path / "store"))
        run_grid(warm, APPS, DATASETS, TECHNIQUES, policies=POLICIES)
        stats = warm.store.stats.as_dict()
        assert stats["cell"]["hits"] == len(CELLS) * len(POLICIES)
        for kind, counters in stats.items():
            assert counters["misses"] == 0, (kind, counters)
            assert counters["stores"] == 0, (kind, counters)

    def test_plan_stage_jobs_policy_cells(self, pipeline):
        cell_jobs, mapping_jobs = plan_stage_jobs(pipeline, CELLS, policies=POLICIES)
        assert len(cell_jobs) == len(CELLS) * len(POLICIES)
        assert all(len(spec) == 4 for spec in cell_jobs)
        # Mapping jobs are deduplicated across the policy axis.
        assert len(mapping_jobs) == 1

    def test_unknown_policy_rejected_before_work(self, pipeline):
        with pytest.raises(UnknownPolicyError, match="run_grid"):
            run_grid(pipeline, APPS, DATASETS, TECHNIQUES, policies=["lru", "nope"])
        stats = pipeline.store.stats.as_dict()
        assert stats.get("cell", {}).get("stores", 0) == 0

    def test_grasp_cells_differ_from_lru(self, pipeline):
        results = run_grid(pipeline, APPS, DATASETS, ["DBG"], policies=["lru", "grasp"])
        lru, grasp = results
        assert lru.mpki != grasp.mpki, "grasp protection changed nothing"

    def test_hot_blocks_memo_shared_across_views(self, pipeline):
        grasp = pipeline.policy_view("grasp")
        grasp.cell("PR", "wl", "DBG")
        assert pipeline._hot_blocks, "grasp cell computed no hot classification"
        assert grasp._hot_blocks is pipeline._hot_blocks
        for blocks in pipeline._hot_blocks.values():
            assert blocks.dtype == np.int64
            assert np.array_equal(blocks, np.unique(blocks))
