"""End-to-end tests for the ``repro-ablate`` command-line tool."""

import json

import pytest

from repro.tools.ablate_tool import main


class TestEnumerate:
    def test_lists_baseline_first(self, capsys):
        assert main(["enumerate", "--smoke"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("  ")]
        assert lines[0].split()[1] == "baseline"
        assert len(lines) == 10

    def test_json_output_carries_specs(self, capsys):
        assert main(["enumerate", "--suite", "golden", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 5
        assert payload[0]["name"] == "baseline"
        assert all(len(entry["run_id"]) == 16 for entry in payload)
        assert payload[0]["spec"]["grid"]["apps"] == ["PR"]


class TestRunRankDiff:
    @pytest.fixture(scope="class")
    def ran(self, tmp_path_factory):
        """One golden-suite execution (filtered to one ablation) to share."""
        root = tmp_path_factory.mktemp("ablate-cli")
        report = root / "report.json"
        code = main([
            "run", "--suite", "golden", "--only", "policy-lip",
            "--store", str(root / "store"), "--runs-dir", str(root / "runs"),
            "--report", str(report),
        ])
        return code, root, report

    def test_run_writes_report_and_prints_ranking(self, ran, capsys):
        code, _, report = ran
        assert code == 0
        assert report.exists()
        data = json.loads(report.read_text())
        assert data["ranking"] == ["policy-lip"]
        assert data["baseline"]["run_id"] == "11a253405ce387b8"

    def test_rerun_is_warm_and_byte_identical(self, ran, capsys):
        _, root, report = ran
        first = report.read_bytes()
        report2 = root / "report2.json"
        assert main([
            "run", "--suite", "golden", "--only", "policy-lip",
            "--store", str(root / "store"), "--runs-dir", str(root / "runs2"),
            "--report", str(report2),
        ]) == 0
        out = capsys.readouterr().out
        assert "recompute spans across store-backed runs: 0 (warm replay)" in out
        assert report2.read_bytes() == first

    def test_rank_renders_table(self, ran, capsys):
        _, _, report = ran
        assert main(["rank", "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "policy-lip" in out and "importance" in out

    def test_rank_joins_manifest_timings(self, ran, capsys):
        _, root, report = ran
        assert main([
            "rank", "--report", str(report), "--timings",
            "--runs-dir", str(root / "runs"),
        ]) == 0
        assert "policy-lip" in capsys.readouterr().out

    def test_diff_by_name_and_by_run_id(self, ran, capsys):
        _, _, report = ran
        assert main(["diff", "policy-lip", "--report", str(report)]) == 0
        by_name = json.loads(capsys.readouterr().out)
        assert by_name["name"] == "policy-lip"
        assert "geomean_speedup_pct" in by_name["deltas"]
        run_id = by_name["run_id"]
        assert main(["diff", run_id, "--report", str(report)]) == 0
        assert json.loads(capsys.readouterr().out)["run_id"] == run_id

    def test_diff_unknown_name_fails_cleanly(self, ran, capsys):
        _, _, report = ran
        assert main(["diff", "nope", "--report", str(report)]) == 2
        assert "nope" in capsys.readouterr().err
