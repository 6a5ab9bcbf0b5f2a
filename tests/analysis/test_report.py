"""Tests for markdown report generation."""

import pytest

from repro.pipeline import ArtifactStore, CellPipeline, ExperimentConfig
from repro.analysis.cli import main
from repro.analysis.report import generate_report
from repro.analysis import tables


@pytest.fixture
def pipeline(tmp_path):
    return CellPipeline(
        ExperimentConfig(scale=0.2, num_roots=1), store=ArtifactStore(tmp_path)
    )


EXPERIMENTS = {"table2": tables.table2, "table5": tables.table5}


def results_of(pipeline, names):
    """Each named experiment's result, computed once."""
    return [EXPERIMENTS[name](pipeline) for name in names]


class TestGenerateReport:
    def test_writes_markdown(self, pipeline, tmp_path):
        out = tmp_path / "report.md"
        path = generate_report(results_of(pipeline, ["table2"]), out)
        text = path.read_text()
        assert text.startswith("# Reproduction report")
        assert "## Table II" in text
        assert "```" in text

    def test_multiple_sections_in_order(self, pipeline, tmp_path):
        out = tmp_path / "report.md"
        text = generate_report(
            results_of(pipeline, ["table5", "table2"]), out
        ).read_text()
        assert text.index("Table V") < text.index("Table II")

    def test_notes_included(self, pipeline, tmp_path):
        text = generate_report(
            results_of(pipeline, ["table2"]), tmp_path / "r.md"
        ).read_text()
        assert "footprint-reduction opportunity" in text

    def test_unknown_experiment_rejected_before_work(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        with pytest.raises(SystemExit):
            main(["nope", "--output", str(tmp_path / "r.md")])
        assert not (tmp_path / "r.md").exists()
