"""Name-based construction of reordering techniques.

The experiment layer and the CLI refer to techniques by the names the
paper uses in its figures (``Sort``, ``HubSort``, ``HubCluster``, ``DBG``,
``Gorder``, plus the ``-O`` original implementations and the random
reorderings of Section III-B).  The ablations extend those names with
parameters; :func:`make_technique` is the one parser of the whole label
grammar.
"""

from __future__ import annotations

from repro.reorder.base import ReorderingTechnique
from repro.reorder.boba import BOBA
from repro.reorder.compose import Composed
from repro.reorder.dbg import DBG
from repro.reorder.gorder import Gorder
from repro.reorder.hubcluster import HubCluster, HubClusterOriginal
from repro.reorder.hubsort import HubSort, HubSortOriginal
from repro.reorder.identity import Original
from repro.reorder.random_order import RandomCacheBlock, RandomVertex
from repro.reorder.sort import Sort
from repro.reorder.traversal import BFSOrder, DFSOrder, ReverseCuthillMcKee
from repro.reorder.community_order import CommunityOrder

__all__ = ["TECHNIQUES", "SKEW_AWARE", "make_technique"]

#: Constructors for every technique, keyed by figure label.
TECHNIQUES: dict[str, type[ReorderingTechnique] | object] = {
    "Original": Original,
    "Sort": Sort,
    "HubSort": HubSort,
    "HubSort-O": HubSortOriginal,
    "HubCluster": HubCluster,
    "HubCluster-O": HubClusterOriginal,
    "DBG": DBG,
    "BOBA": BOBA,
    "Gorder": Gorder,
    "RandomVertex": RandomVertex,
    "BFS": BFSOrder,
    "DFS": DFSOrder,
    "RCM": ReverseCuthillMcKee,
    "Community": CommunityOrder,
}

#: The paper's skew-aware comparison set (Fig. 6 et al.), in figure order.
SKEW_AWARE = ["Sort", "HubSort", "HubCluster", "DBG"]


#: Parameterized ablation labels: ``(prefix, technique, keyword, parse)``.
_PARAMETERIZED = (
    ("Gorder-w", "Gorder", "window", int),
    ("DBG-g", "DBG", "num_hot_groups", int),
    ("DBG-t", "DBG", "boundary_scale", float),
)


def make_technique(name: str, degree_kind: str = "out", **kwargs) -> ReorderingTechnique:
    """Instantiate a technique from its label.

    The label grammar:

    * ``<label>@<kind>`` pins the degree kind, overriding ``degree_kind``
      (``DBG@in``);
    * ``Gorder+DBG`` applies DBG after Gorder (Section VII);
    * ``Gorder-w<n>`` is Gorder with window ``n``, ``DBG-g<n>`` DBG with
      ``n`` hot groups and ``DBG-t<x>`` DBG with its hot threshold
      scaled by ``x``;
    * ``RCB-<n>`` is :class:`RandomCacheBlock` with granularity ``n``;
    * any other name looks up :data:`TECHNIQUES`.

    The degree kind a label reorders by is the built technique's
    ``degree_kind``.
    """
    if "@" in name:
        name, _, degree_kind = name.partition("@")
    if name == "Gorder+DBG":
        return Composed([Gorder(degree_kind), DBG(degree_kind)])
    if name.startswith("RCB-"):
        return RandomCacheBlock(int(name.split("-", 1)[1]), degree_kind, **kwargs)
    for prefix, base, keyword, parse in _PARAMETERIZED:
        if name.startswith(prefix):
            name, kwargs = base, {**kwargs, keyword: parse(name[len(prefix):])}
            break
    if name not in TECHNIQUES:
        raise KeyError(f"unknown technique {name!r}; known: {sorted(TECHNIQUES)}")
    return TECHNIQUES[name](degree_kind, **kwargs)
