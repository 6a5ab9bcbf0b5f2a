"""Small-scale structural tests for the ablation studies."""

import dataclasses

import pytest

from repro.analysis import ablations
from repro.analysis.experiments import speedup
from repro.perfmodel.timing import LatencyModel
from repro.pipeline import ArtifactStore, CellPipeline, ExperimentConfig


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    config = ExperimentConfig(scale=0.2, num_roots=1)
    return CellPipeline(config, store=ArtifactStore(tmp_path_factory.mktemp("abl")))


class TestGroupSweep:
    def test_shape_and_labels(self, pipeline):
        result = ablations.dbg_group_sweep(pipeline, group_counts=(1, 6))
        assert result["headers"] == ["dataset", "1 groups", "6 groups"]
        assert result["rows"][-1][0] == "GMean"
        assert len(result["rows"]) == 9

    def test_more_groups_pack_better_on_unstructured(self, pipeline):
        result = ablations.dbg_group_sweep(pipeline, group_counts=(1, 6))
        by_dataset = {row[0]: row[1:] for row in result["rows"]}
        assert by_dataset["sd"][1] > by_dataset["sd"][0]


class TestThresholdSweep:
    def test_labels(self, pipeline):
        result = ablations.dbg_threshold_sweep(pipeline, scales=(0.5, 1.0))
        assert result["headers"][1:] == ["x0.5", "x1.0"]


class TestCacheScaleSweep:
    def test_runs_with_distinct_hierarchies(self, pipeline):
        result = ablations.cache_scale_sweep(
            pipeline, factors=(1, 4), datasets=("sd",)
        )
        (row,) = result["rows"]
        assert row[0] == "sd"
        assert row[1] != row[2]

    def test_every_factor_keeps_the_callers_config(self, tmp_path):
        """Each column is the caller's config with only the hierarchy scaled."""
        config = ExperimentConfig(
            scale=0.2, num_roots=1, latencies=LatencyModel(memory=400.0)
        )
        pipeline = CellPipeline(config, store=ArtifactStore(tmp_path))
        factors = (1, 4)
        result = ablations.cache_scale_sweep(
            pipeline, factors=factors, datasets=("sd",)
        )
        (row,) = result["rows"]
        for factor, measured in zip(factors, row[1:]):
            hierarchy = config.hierarchy.scaled(factor)
            view = pipeline.view(dataclasses.replace(config, hierarchy=hierarchy))
            assert measured == round(speedup(view, "PR", "sd", "DBG"), 1), factor


class TestExtendedTechniques:
    def test_includes_traversal_orderings(self, pipeline):
        result = ablations.extended_techniques(
            pipeline, techniques=("DBG", "RCM")
        )
        assert result["headers"][1:] == ["DBG", "RCM"]
        assert result["rows"][-1][0] == "GMean"


class TestExtensionApps:
    def test_covers_both_apps(self, pipeline):
        result = ablations.extension_apps(
            pipeline, apps=("CC",), techniques=("DBG",)
        )
        datasets = {row[1] for row in result["rows"] if row[0] == "CC"}
        assert len(datasets) == 8
