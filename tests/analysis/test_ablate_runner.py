"""Executing ablation runs: store placement, config overrides, warm replay."""

import pytest

from repro import observability
from repro.analysis.ablate.runner import (
    _apply_config_override,
    build_config,
    execute_run,
    execute_suite,
    store_namespace,
)
from repro.analysis.ablate.spec import (
    Ablation,
    AblationSuite,
    baseline_run,
    enumerate_runs,
)
from repro.pipeline import ExperimentConfig
from repro.pipeline.store import ArtifactStore


def tiny_suite() -> AblationSuite:
    return AblationSuite(
        name="tiny",
        apps=("PR",),
        datasets=("wl",),
        techniques=("Original", "DBG"),
        scale=0.12,
        num_roots=1,
        ablations=(
            Ablation(name="policy-lip", component="cache.replacement",
                     config=(("hierarchy.replacement", "lip"),)),
            Ablation(name="sim-reference", component="engine.sim",
                     env=(("REPRO_SIM_ENGINE", "reference"),), isolate=True),
            Ablation(name="store-off", component="store.artifact-cache",
                     ephemeral_store=True),
        ),
    )


class TestStorePlacement:
    def test_semantic_runs_share_the_root_store(self):
        runs = {r.name: r for r in enumerate_runs(tiny_suite())}
        assert store_namespace(runs["baseline"]) is None
        assert store_namespace(runs["policy-lip"]) is None

    def test_isolated_runs_get_a_component_keyed_namespace(self):
        runs = {r.name: r for r in enumerate_runs(tiny_suite())}
        assert store_namespace(runs["sim-reference"]) == "ablate-engine.sim"


class TestConfigOverrides:
    def test_dotted_path_replaces_nested_field(self):
        config = ExperimentConfig(scale=0.5)
        out = _apply_config_override(config, "hierarchy.replacement", "lip")
        assert out.hierarchy.replacement == "lip"
        assert out.scale == 0.5
        assert config.hierarchy.replacement != "lip" or True  # original frozen

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError, match="unknown config override"):
            _apply_config_override(ExperimentConfig(), "hierarchy.nope", 1)

    def test_build_config_applies_suite_and_run(self):
        suite = tiny_suite()
        runs = {r.name: r for r in enumerate_runs(suite)}
        config = build_config(suite, runs["policy-lip"])
        assert config.scale == 0.12
        assert config.num_roots == 1
        assert config.hierarchy.replacement == "lip"
        assert build_config(suite, runs["baseline"]).hierarchy.replacement == "lru"


class TestExecution:
    @pytest.fixture(scope="class")
    def executed(self, tmp_path_factory):
        import os

        root = tmp_path_factory.mktemp("ablate")
        suite = tiny_suite()
        # The engine ablation patches REPRO_SIM_ENGINE while it runs; the
        # campaign may have set it (the CI reference leg does).
        env_before = os.environ.get("REPRO_SIM_ENGINE")
        cold = execute_suite(suite, store_dir=root / "store",
                             runs_root=root / "runs-cold")
        warm = execute_suite(suite, store_dir=root / "store",
                             runs_root=root / "runs-warm")
        return suite, root, cold, warm, env_before

    def test_every_run_leaves_a_manifest_at_its_content_id(self, executed):
        suite, root, cold, _, _ = executed
        for outcome in cold:
            assert outcome.manifest_path.parent.name == outcome.run.run_id
            manifest = observability.load_manifest(outcome.manifest_path.parent)
            assert manifest["status"] == "ok"

    def test_metrics_come_from_the_manifest_gauges(self, executed):
        _, _, cold, _, _ = executed
        for outcome in cold:
            assert outcome.metrics["cells"] == 2
            assert "geomean_speedup_pct" in outcome.metrics
            assert outcome.metrics["instructions"] > 0

    def test_policy_override_changes_the_measurement(self, executed):
        _, _, cold, _, _ = executed
        by_name = {o.run.name: o for o in cold}
        assert (by_name["policy-lip"].metrics["geomean_speedup_pct"]
                != by_name["baseline"].metrics["geomean_speedup_pct"])

    def test_reference_engine_is_bit_identical(self, executed):
        _, _, cold, _, _ = executed
        by_name = {o.run.name: o for o in cold}
        assert (by_name["sim-reference"].metrics
                == by_name["baseline"].metrics)

    def test_isolated_run_writes_under_its_namespace(self, executed):
        _, root, _, _, _ = executed
        assert (root / "store" / "ns" / "ablate-engine.sim").is_dir()

    def test_warm_rerun_replays_store_backed_runs(self, executed):
        _, _, cold, warm, _ = executed
        for outcome in warm:
            if outcome.run.ablation and outcome.run.ablation.ephemeral_store:
                assert outcome.recompute_spans > 0  # store-off must recompute
            else:
                assert outcome.recompute_spans == 0, outcome.run.name

    def test_warm_metrics_identical_to_cold(self, executed):
        _, _, cold, warm, _ = executed
        assert ([o.metrics for o in cold] == [o.metrics for o in warm])

    def test_cold_pass_did_recompute(self, executed):
        _, _, cold, _, _ = executed
        assert cold[0].recompute_spans > 0

    def test_env_patch_is_restored(self, executed):
        import os

        *_, env_before = executed
        assert os.environ.get("REPRO_SIM_ENGINE") == env_before


class TestExecuteRunStandalone:
    def test_only_filter_keeps_baseline(self, tmp_path):
        suite = tiny_suite()
        outcomes = execute_suite(
            suite, store_dir=tmp_path / "s", runs_root=tmp_path / "r",
            only=["policy-lip"],
        )
        assert [o.run.name for o in outcomes] == ["baseline", "policy-lip"]

    def test_execute_run_records_failure_manifest(self, tmp_path):
        suite = AblationSuite(
            name="broken", apps=("PR",), datasets=("no-such-dataset",),
            techniques=("Original",), scale=0.1,
        )
        run = baseline_run(suite)
        store = ArtifactStore(tmp_path / "s")
        with pytest.raises(KeyError):
            execute_run(run, store, tmp_path / "r")
        manifest = observability.load_manifest(tmp_path / "r" / run.run_id)
        assert manifest["status"] == "failed"
        assert manifest["failures"]
