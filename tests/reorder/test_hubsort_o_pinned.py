"""Pinned HubSort-O permutations on the stock dataset analogs.

Mapping artifacts are addressed only by ``cache_token()``, which names
the technique and its parameters but not its sorting code, so a rewrite
of ``HubSortOriginal.compute_mapping`` that moved a single vertex would
alias every stored HubSort-O mapping.  These digests pin the permutation
itself: a faster sort must leave them untouched.
"""

import hashlib

import numpy as np
import pytest

from repro.graph.generators import NO_SKEW_DATASETS, SKEWED_DATASETS, load_dataset
from repro.reorder.hubsort import HubSortOriginal

SCALE = 0.25

#: sha256 of ``HubSortOriginal().compute_mapping(load_dataset(name, 0.25))``
#: as little-endian int64 bytes.
PINNED = {
    "kr": "7cf4155d3cb89287d835638d457c12af86db2c2b396ae72cfffcf697d56e8548",
    "pl": "ec135c851e65aa1085a92c1166cc0987ce9097760ebfc0d8798d2bed40bb5bf3",
    "tw": "fa69c53706842c0c6b1b542c7c9e041a5431ef43b2ed2dd73fa35fe24135becb",
    "sd": "c138a07fa6440c59ea5f695f5b7b4f20fe86090e5514b01dbb9ba00f550235bd",
    "lj": "78e852858b110db9dac0ad1f0f158bbfbc456084d9c00e45c09dda686bfe7f29",
    "wl": "acb2c3a97e9c3ddfc71229cbc0739a3cf9362e19dbdb655eadcca73bb0fc04d8",
    "fr": "653e626715bedc4ece1ccccad9834b01293ac1e819b3431a258fbe260f0e4fd0",
    "mp": "33038f2f7758e9b86a12252330095e66c837069bc3d227d3758d6f277dd1379f",
    "uni": "715a47bf7180b9fdb4fc31da1e60b0623008bf1267a88a60dcd5018b9f437731",
    "road": "cd1e7de4a2b525093051dfc922ba51f21e7d8b434fbef8330b318edabd64ef98",
}


def test_every_stock_analog_is_pinned():
    assert set(PINNED) == set(SKEWED_DATASETS + NO_SKEW_DATASETS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_permutation_is_pinned(name):
    mapping = HubSortOriginal().compute_mapping(load_dataset(name, SCALE))
    digest = hashlib.sha256(np.ascontiguousarray(mapping, dtype="<i8").tobytes())
    assert digest.hexdigest() == PINNED[name]
