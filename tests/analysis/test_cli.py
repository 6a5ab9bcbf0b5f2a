"""Tests for the repro-experiments command line."""

import re

import pytest

from repro import observability
from repro.analysis.cli import ALL_ORDER, EXPERIMENTS, main


class TestRegistry:
    def test_all_order_covered(self):
        assert set(ALL_ORDER) <= set(EXPERIMENTS)

    def test_every_paper_artifact_registered(self):
        for name in (
            "table1", "table2", "table3", "table4", "table5", "table9_10",
            "table11", "table12", "fig3", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "fig11", "gorder_dbg",
        ):
            assert name in EXPERIMENTS, name


class TestMain:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_runs_cheap_experiment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["table5", "--scale", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table V" in out
        assert "HubCluster" in out

    def test_multiple_experiments(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["table9_10", "table2", "--scale", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Tables IX/X" in out and "Table II" in out

    def test_policy_flag_threads_through(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["table9_10", "--scale", "0.2", "--policy", "lip"])
        assert code == 0

    def test_unknown_policy_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with pytest.raises(SystemExit):
            main(["table9_10", "--policy", "srrip"])
        assert "registered policies" in capsys.readouterr().err

    def test_output_computes_each_experiment_once(self, capsys, tmp_path, monkeypatch):
        from repro.analysis import cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        calls = []

        def stub(runner):
            calls.append(runner)
            return {"title": "Stub", "headers": ["a"], "rows": [[1]]}

        monkeypatch.setitem(cli.EXPERIMENTS, "stub", stub)
        report = tmp_path / "report.md"
        assert main(["stub", "--output", str(report)]) == 0
        assert len(calls) == 1
        assert "## Stub" in report.read_text()
        assert "Stub" in capsys.readouterr().out


class TestProfile:
    """``--profile`` after a ``--workers 2`` pre-warm shows worker stages."""

    @pytest.fixture
    def small_prewarm(self, tmp_path, monkeypatch):
        """Shrink the pre-warm grid to PR x lj x {Original, DBG}."""
        from repro.analysis import figures
        from repro.apps import registry
        from repro.graph.generators import datasets

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        monkeypatch.delenv(observability.run.RUNS_DIR_ENV, raising=False)
        monkeypatch.setattr(registry, "APP_ORDER", ["PR"])
        monkeypatch.setattr(datasets, "SKEWED_DATASETS", ["lj"])
        monkeypatch.setattr(datasets, "NO_SKEW_DATASETS", [])
        monkeypatch.setattr(figures, "MAIN_TECHNIQUES", ["DBG"])
        # table2 only generates graphs: any simulate call in the table
        # came from the pre-warm grid's worker processes.
        return ["table2", "--scale", "0.1", "--workers", "2", "--profile"]

    @staticmethod
    def _simulate_calls(out: str) -> int:
        match = re.search(r"^\s*simulate:.*\((\d+) calls", out, re.MULTILINE)
        assert match, out
        return int(match.group(1))

    def test_profile_without_run_dir(self, small_prewarm, capsys):
        observability.TRACER.reset()
        assert main(small_prewarm) == 0
        assert self._simulate_calls(capsys.readouterr().out) > 0

    def test_profile_with_run_dir(self, small_prewarm, tmp_path, capsys):
        assert main(small_prewarm + ["--run-dir", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert self._simulate_calls(out) > 0
        (run_dir,) = observability.list_runs(tmp_path / "runs")
        stages = observability.load_manifest(run_dir)["timings"]["stages"]
        assert self._simulate_calls(out) == stages["simulate"]["calls"]
