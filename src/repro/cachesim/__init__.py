"""Software cache-hierarchy simulation.

Stands in for the hardware performance counters of the paper's testbed
(dual-socket Broadwell, Section V-B).  The paper's cache analysis needs,
per configuration, the number of misses at L1/L2/L3 (Fig. 8's MPKI) and
the classification of L2 misses into L3 hits, in-socket snoops, remote
snoops and off-chip accesses (Fig. 9).

The default geometry is *scaled*: the dataset analogs are calibrated so
that the ratio of hot-vertex footprint to LLC capacity matches the paper's
(see :mod:`repro.graph.generators.datasets`), which keeps every dataset in
the same caching regime as on real hardware.
"""

from repro.cachesim.cache import SetAssociativeCache
from repro.cachesim.policies import (
    ReplacementPolicy,
    UnknownPolicyError,
    POLICIES,
    register_policy,
    get_policy,
    policy_names,
)
from repro.cachesim.hierarchy import (
    CacheGeometry,
    HierarchyConfig,
    CacheStats,
    simulate_trace,
    simulate_trace_reference,
    resolve_engine,
    DEFAULT_HIERARCHY,
)
from repro.cachesim.fast import (
    FastSimulator,
    KernelUnavailable,
    fast_available,
    simulate_trace_fast,
)

__all__ = [
    "SetAssociativeCache",
    "ReplacementPolicy",
    "UnknownPolicyError",
    "POLICIES",
    "register_policy",
    "get_policy",
    "policy_names",
    "CacheGeometry",
    "HierarchyConfig",
    "CacheStats",
    "simulate_trace",
    "simulate_trace_reference",
    "simulate_trace_fast",
    "resolve_engine",
    "FastSimulator",
    "KernelUnavailable",
    "fast_available",
    "DEFAULT_HIERARCHY",
]
