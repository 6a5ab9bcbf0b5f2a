"""Structural tests for table/figure generators at small scale.

These verify shapes, headers and internal consistency; the full-scale
paper-shape assertions live in tests/integration and the benchmark suite.
"""

import pytest

from repro.analysis import figures, tables
from repro.pipeline import ArtifactStore, CellPipeline, ExperimentConfig
from repro.analysis.render import render_result
from repro.graph.generators import SKEWED_DATASETS


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    config = ExperimentConfig(scale=0.2, num_roots=1)
    return CellPipeline(
        config, store=ArtifactStore(tmp_path_factory.mktemp("cache"))
    )


class TestCharacterizationTables:
    def test_table1_shape(self, pipeline):
        result = tables.table1(pipeline)
        assert len(result["rows"]) == 8
        assert len(result["rows"][0]) == len(result["headers"])
        render_result(result)  # must not raise

    def test_table2_bounds(self, pipeline):
        result = tables.table2(pipeline)
        for row in result["rows"]:
            assert 1.0 <= row[1] <= 8.0

    def test_table3_ratios_positive(self, pipeline):
        result = tables.table3(pipeline)
        for row in result["rows"]:
            assert row[1] > 0
            # 16 B footprint is double the 8 B one (up to display rounding).
            assert row[2] == pytest.approx(row[1] * 2, abs=0.2)

    def test_table4_percentages_sum(self, pipeline):
        result = tables.table4(pipeline)
        total = sum(row[1] for row in result["rows"])
        assert total == pytest.approx(100.0)

    def test_table4_power_law_shape(self, pipeline):
        rows = tables.table4(pipeline)["rows"]
        # First (least-hot) bucket holds the most hot vertices.
        assert rows[0][1] == max(row[1] for row in rows)

    def test_table5_group_counts(self, pipeline):
        result = tables.table5(pipeline)
        by_name = {row[0]: row[1] for row in result["rows"]}
        assert by_name["HubCluster"] == 2
        assert by_name["Sort"] > by_name["HubSort"] >= by_name["HubCluster"]
        assert by_name["DBG"] <= 10

    def test_table9_10_lists_all(self, pipeline):
        result = tables.table9_10(pipeline)
        assert [row[0] for row in result["rows"]] == SKEWED_DATASETS + ["uni", "road"]


class TestCostTables:
    def test_table11_normalization(self, pipeline):
        result = tables.table11(pipeline, repeats=1)
        # Model columns: every technique's ratio to Sort is positive and
        # HubCluster's is below HubSort-O's.
        header = result["headers"]
        hubsort_o_idx = header.index("HubSort-O model")
        hubcluster_idx = header.index("HubCluster model")
        for row in result["rows"]:
            assert row[hubcluster_idx] < row[hubsort_o_idx]

    def test_table12_dbg_amortizes_fastest_among_skew_aware(self, pipeline):
        result = tables.table12(pipeline)
        header = result["headers"]
        for row in result["rows"]:
            dbg = row[header.index("DBG")]
            gorder = row[header.index("Gorder")]
            assert isinstance(dbg, float)
            if isinstance(gorder, float):
                assert gorder > dbg


class TestFigures:
    def test_fig3_shape(self, pipeline):
        result = figures.fig3(pipeline)
        assert len(result["rows"]) == 8
        assert result["headers"][1:] == ["RV", "RCB-1", "RCB-2", "RCB-4"]

    def test_fig5_has_gmean_row(self, pipeline):
        result = figures.fig5(pipeline)
        assert result["rows"][-1][0] == "GMean"

    def test_fig6_covers_grid(self, pipeline):
        result = figures.fig6(pipeline)
        data_rows = [r for r in result["rows"] if r[0] != "GMean"]
        assert len(data_rows) == 5 * 8
        gmean_rows = [r for r in result["rows"] if r[0] == "GMean"]
        assert {r[1] for r in gmean_rows} == {"unstructured", "structured", "all"}

    def test_fig7_no_skew_neutrality(self, pipeline):
        result = figures.fig7(pipeline)
        gmeans = {r[0]: r for r in result["rows"] if r[1] == "GMean"}
        # uni reproduces the paper's near-zero effect tightly; road carries a
        # positive bias at simulator scale (see EXPERIMENTS.md) but must not
        # show the significant slowdowns the paper rules out.
        for value in gmeans["uni"][2:6]:
            assert abs(value) < 5.0
        for value in gmeans["road"][2:6]:
            assert value > -10.0

    def test_fig8_levels(self, pipeline):
        result = figures.fig8(pipeline)
        levels = {row[0] for row in result["rows"]}
        assert levels == {"L1", "L2", "L3"}

    def test_fig9_original_rows_sum_to_100(self, pipeline):
        result = figures.fig9(pipeline)
        for row in result["rows"]:
            if row[2] == "Original":
                assert sum(row[3:]) == pytest.approx(100.0, abs=0.5)

    def test_fig10_includes_reordering_cost(self, pipeline):
        fig6 = figures.fig6(pipeline)
        fig10 = figures.fig10(pipeline)
        # Net speedups are never above the excluding-time speedups.
        excl = {
            (r[0], r[1]): dict(zip(fig6["headers"][2:], r[2:]))
            for r in fig6["rows"]
        }
        for row in fig10["rows"]:
            if row[0] == "GMean":
                continue
            for tech, value in zip(fig10["headers"][2:], row[2:]):
                assert value <= excl[(row[0], row[1])][tech] + 1e-6

    def test_fig11_improves_with_traversals(self, pipeline):
        result = figures.fig11(pipeline)
        gmeans = {
            row[0]: row[2:] for row in result["rows"] if row[1] == "GMean"
        }
        for idx in range(len(result["headers"]) - 2):
            series = [gmeans[count][idx] for count in (1, 8, 16, 32)]
            assert series == sorted(series), "net speed-up must grow with traversals"
