"""Declarative ablation suites: validation, enumeration, spec content."""

import dataclasses

import pytest

from repro.analysis.ablate import enumerate_runs, run_id, suite_by_name
from repro.analysis.ablate.spec import (
    BASELINE_NAME,
    Ablation,
    AblationSuite,
    SUITES,
    baseline_run,
    run_spec,
)


def tiny_suite(**kwargs) -> AblationSuite:
    defaults = dict(
        name="tiny",
        apps=("PR",),
        datasets=("wl",),
        techniques=("Original", "DBG"),
        scale=0.1,
        num_roots=1,
    )
    defaults.update(kwargs)
    return AblationSuite(**defaults)


class TestSuiteValidation:
    def test_original_technique_required(self):
        with pytest.raises(ValueError, match="Original"):
            tiny_suite(techniques=("DBG", "Sort"))

    def test_duplicate_ablation_names_rejected(self):
        dupe = Ablation(name="x", component="a")
        with pytest.raises(ValueError, match="duplicate"):
            tiny_suite(ablations=(dupe, dataclasses.replace(dupe, component="b")))

    def test_baseline_name_is_reserved(self):
        with pytest.raises(ValueError, match="duplicate"):
            tiny_suite(ablations=(Ablation(name=BASELINE_NAME, component="x"),))

    def test_unknown_suite_name(self):
        with pytest.raises(ValueError, match="unknown suite"):
            suite_by_name("nope")


class TestEnumeration:
    def test_baseline_first_then_suite_order(self):
        abls = (Ablation(name="b", component="B"), Ablation(name="a", component="A"))
        runs = enumerate_runs(tiny_suite(ablations=abls))
        assert [r.name for r in runs] == [BASELINE_NAME, "b", "a"]

    def test_ids_unique_within_every_shipped_suite(self):
        for name in SUITES:
            runs = enumerate_runs(suite_by_name(name))
            ids = [r.run_id for r in runs]
            assert len(set(ids)) == len(ids), name

    def test_shipped_suite_sizes(self):
        assert len(enumerate_runs(suite_by_name("smoke"))) == 10
        assert len(enumerate_runs(suite_by_name("full"))) == 11
        assert len(enumerate_runs(suite_by_name("golden"))) == 5


class TestSpecContent:
    def test_display_name_not_part_of_identity(self):
        """Renaming/redescribing an ablation re-labels the same measurement."""
        a = Ablation(name="lip", component="cache.replacement",
                     config=(("hierarchy.replacement", "lip"),))
        b = dataclasses.replace(a, name="lip-renamed", description="new words")
        suite = tiny_suite()
        assert run_spec(suite, a) == run_spec(suite, b)

    def test_overrides_change_identity(self):
        suite = tiny_suite()
        base = baseline_run(suite).run_id
        lip = Ablation(name="lip", component="cache.replacement",
                       config=(("hierarchy.replacement", "lip"),))
        assert run_id(run_spec(suite, lip)) != base

    def test_grid_axis_overrides_fold_into_the_grid(self):
        suite = tiny_suite()
        abl = Ablation(
            name="diam", component="dataset.diameter", datasets=("swl", "swh"),
            techniques=("Original", "HubSort"),
        )
        spec = run_spec(suite, abl)
        assert spec["grid"]["datasets"] == ["swl", "swh"]
        assert spec["grid"]["techniques"] == ["Original", "HubSort"]
        # The folded axes are the identity; the override fields echo them.
        assert spec["overrides"]["datasets"] == ["swl", "swh"]

    def test_baseline_spec_has_empty_overrides(self):
        spec = baseline_run(tiny_suite()).spec
        assert spec["overrides"]["env"] == {}
        assert spec["overrides"]["config"] == {}
        assert spec["overrides"]["ephemeral_store"] is False

    def test_suite_scale_changes_every_run_id(self):
        small, large = tiny_suite(scale=0.1), tiny_suite(scale=0.2)
        assert baseline_run(small).run_id != baseline_run(large).run_id
