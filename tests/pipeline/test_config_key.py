"""`ExperimentConfig.cache_key()` is built once per config object.

The memo lives outside the dataclass fields, so it must not change what
a config compares, hashes, prints or pickles as, and a config derived
with ``dataclasses.replace`` must key afresh.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.cachesim import DEFAULT_HIERARCHY
from repro.perfmodel.cost import ReorderCostModel
from repro.perfmodel.timing import LatencyModel
from repro.pipeline.cells import ExperimentConfig


def fresh_key(config: ExperimentConfig) -> tuple:
    """The key computed from the fields, independently of the memo."""
    h = config.hierarchy
    return (
        config.scale,
        (h.l1.size_bytes, h.l1.associativity),
        (h.l2.size_bytes, h.l2.associativity),
        (h.l3.size_bytes, h.l3.associativity),
        h.replacement,
        h.cores_per_socket,
        h.ownership_blocks,
        dataclasses.astuple(config.latencies),
        dataclasses.astuple(config.cost_model),
        config.num_roots,
        config.traversals,
    )


def keyed(config: ExperimentConfig) -> ExperimentConfig:
    config.cache_key()
    return config


def test_cache_key_equals_a_fresh_computation_and_is_stable():
    config = ExperimentConfig(scale=0.05, num_roots=1)
    first = config.cache_key()
    assert first == fresh_key(config)
    assert config.cache_key() is first
    assert ExperimentConfig(scale=0.05, num_roots=1).cache_key() == first


@pytest.mark.parametrize(
    "changes",
    [
        {"latencies": dataclasses.replace(LatencyModel(), memory=250.0)},
        {"cost_model": dataclasses.replace(ReorderCostModel(), csr_regen_per_edge=20.0)},
        {"hierarchy": dataclasses.replace(DEFAULT_HIERARCHY, replacement="fifo")},
        {"scale": 0.1},
    ],
    ids=lambda changes: next(iter(changes)),
)
def test_cache_key_changes_with_replaced_fields(changes):
    config = keyed(ExperimentConfig(scale=0.05, num_roots=1))
    changed = dataclasses.replace(config, **changes)
    assert changed.cache_key() == fresh_key(changed)
    assert changed.cache_key() != config.cache_key()


def test_memo_is_invisible_to_the_dataclass_protocols():
    config = keyed(ExperimentConfig(scale=0.05, num_roots=1))
    untouched = ExperimentConfig(scale=0.05, num_roots=1)
    names = [f.name for f in dataclasses.fields(config)]
    assert names == [
        "scale", "hierarchy", "latencies", "cost_model", "num_roots", "traversals"
    ]
    assert config == untouched
    assert hash(config) == hash(untouched)
    assert repr(config) == repr(untouched)
    assert pickle.dumps(config) == pickle.dumps(untouched)
    clone = pickle.loads(pickle.dumps(config))
    assert clone == config
    assert "_cache_key" not in vars(clone)
    assert clone.cache_key() == config.cache_key()
    assert dataclasses.asdict(config) == dataclasses.asdict(untouched)
