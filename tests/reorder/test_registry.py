"""Tests for technique lookup by figure label."""

import hashlib
import inspect

import pytest

from repro.reorder import TECHNIQUES, make_technique
from repro.reorder.random_order import RandomCacheBlock


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(TECHNIQUES))
    def test_every_entry_constructs(self, name):
        technique = make_technique(name, degree_kind="in")
        assert technique.degree_kind == "in"

    def test_names_match_labels(self):
        for name in TECHNIQUES:
            assert make_technique(name).name == name

    def test_rcb_labels(self):
        technique = make_technique("RCB-4")
        assert isinstance(technique, RandomCacheBlock)
        assert technique.num_blocks == 4
        assert technique.name == "RCB-4"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            make_technique("Alphabetical")


#: sha256 prefix of ``repr(((token under "out", token under "in"),
#: (degree kind for PR, for SSSP)))`` of every label the figures, tables
#: and ablations use, recorded before the label grammar moved into
#: :func:`make_technique`.  Mapping keys are built from these tokens, so
#: a changed entry would orphan every stored mapping of that label.
PINNED_TOKENS = {
    "Original": "7c3c272c82326ddd",
    "Sort": "54ee16a3ba4aba90",
    "HubSort": "9a73c98e9be608ea",
    "HubSort-O": "23625d49fcd89a8f",
    "HubCluster": "5e44dee146611176",
    "HubCluster-O": "4fd99c072c22f53a",
    "DBG": "d07540db235af2b9",
    "Gorder": "bf9890f177dc8a6f",
    "RandomVertex": "6fbb2d6a0a1c5a8e",
    "RCB-1": "f65a02c31a66614a",
    "RCB-2": "21e8ce65716dc78c",
    "RCB-4": "1945df50a241310c",
    "BFS": "9e8f16d27a654cac",
    "DFS": "b71602bd7cc3eb25",
    "RCM": "0dbeb56f57db9380",
    "Community": "1a925f0cc2a09abb",
    "Gorder+DBG": "9d30b82244db3881",
    "Gorder+DBG@in": "c94f6086ca58f3bc",
    "Gorder+DBG@out": "357fccd40bb353cc",
    "DBG-g1": "66f14a604cd29066",
    "DBG-g2": "66cda18bc57c7f9e",
    "DBG-g4": "d1678d25088a3d25",
    "DBG-g9": "4d6f0aba6fbb2017",
    "DBG-g12": "778f6a17a1e09400",
    "DBG-t0.25": "d8adc474811f89ef",
    "DBG-t0.5": "c6fbde05f7d45e64",
    "DBG-t2.0": "34dcce0b37c51310",
    "DBG-t4.0": "3ceedc87030fa857",
    "Gorder-w2": "68bb73ca37f819eb",
    "Gorder-w10": "50cfd11e2046e5d1",
    "DBG@out": "ae04d7d4a4a467fa",
    "DBG@in": "9603cabcde43c02d",
    "DBG@both": "c71b9bd20464b78b",
}


class TestLabelGrammar:
    @pytest.mark.parametrize("label", sorted(PINNED_TOKENS))
    def test_cache_token_pinned(self, label):
        from repro.pipeline import CellPipeline

        pipeline = CellPipeline()
        tokens = [repr(pipeline.technique_token(label, kind)) for kind in ("out", "in")]
        kinds = [pipeline.degree_kind_for(app, label) for app in ("PR", "SSSP")]
        digest = hashlib.sha256(repr((tokens, kinds)).encode()).hexdigest()[:16]
        assert digest == PINNED_TOKENS[label]

    def test_pins_cover_every_used_label(self):
        from repro.analysis import ablations, figures
        from repro.analysis.ablate.spec import SUITES

        used = set(figures.MAIN_TECHNIQUES)
        for factory in SUITES.values():
            suite = factory()
            used.update(suite.techniques)
            for ablation in suite.ablations:
                used.update(ablation.techniques or ())
        extended = inspect.signature(ablations.extended_techniques)
        used.update(extended.parameters["techniques"].default)
        assert used <= set(PINNED_TOKENS)

    def test_parameterized_labels(self):
        assert make_technique("DBG-g2", "in").num_hot_groups == 2
        assert make_technique("DBG-t0.5").boundary_scale == 0.5
        assert make_technique("Gorder-w10").window == 10
        assert make_technique("DBG@in", "out").degree_kind == "in"
        composed = make_technique("Gorder+DBG@in")
        assert [t.name for t in composed.techniques] == ["Gorder", "DBG"]
        assert composed.degree_kind == "in"
