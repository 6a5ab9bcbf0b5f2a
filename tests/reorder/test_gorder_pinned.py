"""Pinned Gorder permutations on the stock dataset analogs.

Mapping artifacts are addressed only by ``cache_token()``
(``stages.mapping_key``), which names the technique and its parameters but
not the placement code.  A placement kernel that moved a single vertex
would therefore alias every stored Gorder mapping without any
``SCHEMA_VERSION`` bump noticing.  These digests pin the permutation
itself: any change to the placement loop must leave them untouched.
"""

import hashlib

import numpy as np
import pytest

from repro.framework import fasttrace
from repro.graph.generators import NO_SKEW_DATASETS, SKEWED_DATASETS, load_dataset
from repro.reorder.gorder import Gorder

SCALE = 0.25

#: sha256 of ``Gorder(**params).compute_mapping(load_dataset(name, 0.25))``
#: as little-endian int64 bytes.
PINNED = {
    ("kr", ()): "8459dd0e14525a0299dd5d912385af73869992225fbc4e6aaaf11a7c99c6a1ec",
    ("pl", ()): "458346069b58d74fb8614646a1fbcb067d1d317dea5a858ec8f37a9667f8f14e",
    ("tw", ()): "4dfe57646f46ec209b405e612c2d2ad7d4fddd62db46fc45405dff9e89fbf7ea",
    ("sd", ()): "535050cf0fd16d171ca94a10b54dd5bd07cc8b0931f9c0bdd9c8abc9a778b281",
    ("lj", ()): "6ae7d6b5dca99fb6190132392b57452e87cc9d7165a56ffa061260784d0f6abd",
    ("wl", ()): "dde733db2c6f5af8fc66e3b9fad442e4ec9784c46ccf06f05bb9258d481a07ec",
    ("fr", ()): "cc9b86af9beb22978241971da214bec4c6e27a48c77213f8b222e76e7c178d07",
    ("mp", ()): "ad588ac1348a665dfe0ea0beffeae045d28340f8c6ba205ce7cb5c737c86c753",
    ("uni", ()): "ce9edeb0ad28c0d31b31a6af6543458d552fbb36201a69aefb810d924996b76a",
    ("road", ()): "27aed45c022d4c68256c87cb6f8bf21e3b309da4aeee986e1198d61ceb4a0be4",
    ("sd", (("window", 3),)): (
        "cfdec22b94649eee3a9a6aebf8f9c8c7cc4d04cdec2504b4cfa6ac30faad5ea3"
    ),
    ("sd", (("hub_cap_factor", 4.0),)): (
        "c9de480e8661b6ff8cd08c5400c38c5d2ced7f4fa33f5916c3847ef5bab1e244"
    ),
    ("tw", (("window", 3),)): (
        "6d8075b03cfce99bb52f59b0f2cd5af8e91a1e835eee51ef1a44e97e563fd84d"
    ),
    ("tw", (("hub_cap_factor", 4.0),)): (
        "53414defe4cf77dcfa97ef746e9f8648306372aed20d59d4a5933ff15cb8d1c7"
    ),
}

#: Analogs small enough for the Python placement loop in tier-1 time.
REFERENCE_CHECKED = ("lj", "wl", "road")


def mapping_digest(name: str, params: tuple) -> str:
    mapping = Gorder(**dict(params)).compute_mapping(load_dataset(name, SCALE))
    return hashlib.sha256(np.ascontiguousarray(mapping, dtype="<i8").tobytes()).hexdigest()


def case_id(case) -> str:
    name, params = case
    return "-".join([name] + [f"{k}={v}" for k, v in params])


def test_every_stock_analog_is_pinned():
    assert {name for name, params in PINNED if not params} == set(
        SKEWED_DATASETS + NO_SKEW_DATASETS
    )


@pytest.mark.skipif(
    not fasttrace.fast_available(), reason="no C compiler for the trace kernels"
)
@pytest.mark.parametrize("case", sorted(PINNED), ids=case_id)
def test_kernel_permutation_is_pinned(case, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_ENGINE", "fast")
    assert mapping_digest(*case) == PINNED[case]


@pytest.mark.parametrize("name", REFERENCE_CHECKED)
def test_reference_permutation_is_pinned(name, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_ENGINE", "reference")
    assert mapping_digest(name, ()) == PINNED[(name, ())]
