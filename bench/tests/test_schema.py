"""Output schema: every metric has a name, a unit and a value.

The two smoke runs execute real workloads with a short window (about ten
seconds each): an untraced ``scale-cell`` run and a traced ``serve-mix``
run, whose server and pool worker must both write their spans.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from benchlib.env import BENCH_DIR, ROOT
from benchlib.layers import PER_LAYER
from benchlib.runner import END_TO_END, WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def _assert_metrics(metrics: dict, declared: list[dict], stdout: str) -> None:
    assert list(metrics) == [m["name"] for m in declared]
    for spec in declared:
        metric = metrics[spec["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        # Printed by name with its unit, above the result line.
        assert any(
            line.split()[:1] == [spec["name"]] and line.split()[-1] == spec["unit"]
            for line in stdout.splitlines()
        ), spec["name"]


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == PER_LAYER
    assert BENCHMARK["paths"] == ["bench"]


def test_untraced_run_reports_every_end_to_end_metric():
    proc = _run("--workload", "scale-cell", "--seed", "1", "--seconds", "0.1")
    result = _result(proc)
    _assert_metrics(result["metrics"], BENCHMARK["end_to_end"], proc.stdout)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = _run("--workload", "serve-mix", "--seed", "1", "--seconds", "0.5", "--trace", "1")
    metrics = _result(proc)["metrics"]
    _assert_metrics(metrics, BENCHMARK["per_layer"], proc.stdout)
    # Simulation only runs in the pool worker, request parsing only in the
    # server: both processes wrote their spans.
    assert metrics["cachesim.simulate.calls"]["value"] > 0
    assert metrics["serve.read_request.busy_s"]["value"] > 0


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _run("--workload", "fig6-cold", "--seed", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
