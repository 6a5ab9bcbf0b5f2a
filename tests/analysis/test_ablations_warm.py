"""Warm-rerun guarantees for the legacy ablation sweeps.

These sweeps once built private pipelines per call, so every
invocation recomputed everything from scratch.  They now route through
the shared store-backed ``run_grid``; this suite pins the payoff — a
second observed invocation replays entirely from the store, which
``repro-status diff`` reports as zero recompute spans.
"""

from __future__ import annotations

import pytest

from repro import observability
from repro.analysis import ablations
from repro.pipeline import ArtifactStore, CellPipeline, ExperimentConfig
from repro.tools.status_tool import main as status_main

SCALE = 0.12


def observed(runs_root, run_id, fn):
    """Run ``fn`` under an observed run; return its recompute-span count."""
    context = observability.start_run(runs_root, run_id=run_id)
    try:
        fn()
    finally:
        path = context.finish()
    return observability.manifest_recompute_spans(path.parent)


def make_pipeline(tmp_path):
    config = ExperimentConfig(scale=SCALE, num_roots=1)
    return CellPipeline(config, store=ArtifactStore(tmp_path / "store"))


@pytest.mark.parametrize(
    "name,sweep",
    [
        (
            "dbg_group_sweep",
            lambda pipeline: ablations.dbg_group_sweep(pipeline, group_counts=(2, 6)),
        ),
        (
            "replacement_policy_sweep",
            lambda pipeline: ablations.replacement_policy_sweep(
                pipeline, policies=("lru", "lip"), datasets=("sd",)
            ),
        ),
    ],
)
def test_second_invocation_replays_from_store(tmp_path, capsys, name, sweep):
    pipeline = make_pipeline(tmp_path)
    runs = tmp_path / "runs"
    cold = observed(runs, "cold", lambda: sweep(pipeline))
    warm = observed(runs, "warm", lambda: sweep(pipeline))
    assert cold > 0, f"{name}: cold run recorded no pipeline work"
    assert warm == 0, f"{name}: warm rerun recomputed {warm} stage spans"

    # The user-facing check: repro-status diff counts the same spans.
    assert status_main(["--runs-dir", str(runs), "diff", "cold", "warm"]) == 0
    out = capsys.readouterr().out
    assert f"recompute spans: {cold} -> 0" in out
    assert "replayed entirely from the store" in out


def test_sweeps_share_cells_between_each_other(tmp_path):
    """Both sweeps include the (PR, sd, Original/DBG) cells — running one
    after the other must not recompute the shared work."""
    pipeline = make_pipeline(tmp_path)
    runs = tmp_path / "runs"
    observed(runs, "groups", lambda: ablations.dbg_group_sweep(
        pipeline, group_counts=(2, 6)))
    spans = observed(runs, "policies", lambda: ablations.replacement_policy_sweep(
        pipeline, policies=("lru",), datasets=("sd",)))
    assert spans == 0, "policy sweep recomputed cells the group sweep cached"
