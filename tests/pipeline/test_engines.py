"""Tests for the unified engine registry."""

import pytest

from repro import engines


class TestResolve:
    def test_default_is_auto(self, monkeypatch):
        for domain in engines.DOMAINS:
            monkeypatch.delenv(engines.DOMAINS[domain].env_var, raising=False)
            assert engines.resolve(domain) == "auto"

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        assert engines.resolve("sim", "fast") == "fast"

    def test_env_wins_over_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_ENGINE", "reference")
        assert engines.resolve("trace", fallback="fast") == "reference"

    def test_fallback_used_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        assert engines.resolve("sim", fallback="reference") == "reference"

    # "fast-threaded" named a deleted engine; a stale setting must fail
    # loudly, never fall back to auto.
    @pytest.mark.parametrize("value", ["turbo", "fast-threaded"])
    @pytest.mark.parametrize("domain,var", [
        ("sim", "REPRO_SIM_ENGINE"),
        ("trace", "REPRO_TRACE_ENGINE"),
        ("graph", "REPRO_GRAPH_ENGINE"),
    ])
    def test_unknown_env_value_raises_naming_variable(
        self, monkeypatch, domain, var, value
    ):
        monkeypatch.setenv(var, value)
        with pytest.raises(ValueError, match=var):
            engines.resolve(domain)
        with pytest.raises(ValueError, match=var):
            engines.validate_env()

    def test_unknown_explicit_value_raises(self):
        with pytest.raises(ValueError, match="call argument"):
            engines.resolve("sim", "warp")

    def test_unknown_domain_raises(self):
        with pytest.raises(KeyError, match="unknown engine domain"):
            engines.resolve("gpu")


class TestValidateEnv:
    def test_all_domains_by_default(self, monkeypatch):
        for domain in engines.DOMAINS.values():
            monkeypatch.delenv(domain.env_var, raising=False)
        assert engines.validate_env() == {
            "sim": "auto", "trace": "auto", "graph": "auto"
        }

    def test_bad_variable_fails_eagerly(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_ENGINE", "nope")
        with pytest.raises(ValueError, match="REPRO_GRAPH_ENGINE"):
            engines.validate_env()

    def test_subset_of_domains(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        monkeypatch.setenv("REPRO_GRAPH_ENGINE", "nope")
        # Only validating sim must not trip over the graph variable.
        assert engines.validate_env(("sim",)) == {"sim": "auto"}


class TestDelegation:
    """The three historical resolvers must route through the registry."""

    def test_sim_resolver_delegates(self, monkeypatch):
        from repro.cachesim.hierarchy import resolve_engine

        monkeypatch.setenv("REPRO_SIM_ENGINE", "bogus")
        with pytest.raises(ValueError, match="REPRO_SIM_ENGINE"):
            resolve_engine()

    def test_trace_resolver_delegates(self, monkeypatch):
        from repro.framework.fasttrace import resolve_trace_engine

        monkeypatch.setenv("REPRO_TRACE_ENGINE", "bogus")
        with pytest.raises(ValueError, match="REPRO_TRACE_ENGINE"):
            resolve_trace_engine()

    def test_graph_resolver_delegates(self, monkeypatch):
        from repro.graph.fastgraph import resolve_graph_engine

        monkeypatch.setenv("REPRO_GRAPH_ENGINE", "bogus")
        with pytest.raises(ValueError, match="REPRO_GRAPH_ENGINE"):
            resolve_graph_engine()

    def test_sim_config_fallback_respected(self, monkeypatch):
        from dataclasses import replace

        from repro.cachesim import DEFAULT_HIERARCHY
        from repro.cachesim.hierarchy import resolve_engine

        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        config = replace(DEFAULT_HIERARCHY, engine="reference")
        assert resolve_engine(config=config) == "reference"


class TestStatus:
    def test_status_covers_all_domains(self, monkeypatch):
        for domain in engines.DOMAINS.values():
            monkeypatch.delenv(domain.env_var, raising=False)
        report = engines.status()
        # Every entry is a domain, so code iterating the report (CI's
        # availability check) can read every entry's fast_available.
        assert set(report) == set(engines.DOMAINS)
        for name, entry in report.items():
            assert entry["engine"] == "auto"
            assert entry["env_var"] == engines.DOMAINS[name].env_var
            assert isinstance(entry["fast_available"], bool)
            if entry["fast_available"]:
                assert entry["unavailable_reason"] is None
            else:
                assert entry["unavailable_reason"]

    def test_fast_available_consistent_with_modules(self):
        from repro.cachesim import fast as simfast

        assert engines.fast_available("sim") == simfast.fast_available()
