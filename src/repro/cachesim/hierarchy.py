"""Three-level cache hierarchy simulation with snoop classification.

``simulate_trace`` runs a :class:`~repro.framework.trace.MemoryTrace`
through an L1 → L2 → L3 LRU hierarchy (allocate-on-fill at every level)
and classifies each L2 miss the way the paper's Fig. 9 does:

* **l3_hit** — served by the LLC without snooping another core;
* **snoop_local** — the block was last written by a different core on the
  same socket (data forwarded cache-to-cache);
* **snoop_remote** — last written by a core on the other socket;
* **offchip** — served from memory.

The snoop classification uses a last-writer directory rather than 40
private L1/L2 instances: what Fig. 9 measures is *how often a miss lands
on a line dirty in someone else's cache*, and under the static vertex
partitioning of the trace generator that is exactly "last written by
another core".  See DESIGN.md for the substitution notes.

Geometry is scaled (see the package docstring); latencies and sizes are
configurable through :class:`HierarchyConfig`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.cachesim.policies import get_policy
from repro.framework.trace import MemoryTrace, StreamingTrace

__all__ = [
    "CacheGeometry",
    "HierarchyConfig",
    "CacheStats",
    "simulate_trace",
    "simulate_trace_reference",
    "resolve_engine",
    "engine_to_run",
    "DEFAULT_HIERARCHY",
]


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of one cache level."""

    size_bytes: int
    associativity: int
    block_bytes: int = 64

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.block_bytes * self.associativity)
        if sets <= 0 or sets & (sets - 1):
            raise ValueError("number of sets must be a positive power of two")
        return sets


@dataclass(frozen=True)
class HierarchyConfig:
    """Three cache levels plus the socket layout for snoop classification."""

    l1: CacheGeometry
    l2: CacheGeometry
    l3: CacheGeometry
    cores_per_socket: int = 20
    #: Replacement policy at every level: any name registered in
    #: :mod:`repro.cachesim.policies` ("lru", "fifo", "lip", "grasp", ...).
    #: Skew-aware policies additionally consume the ``hot_blocks``
    #: classification passed to :func:`simulate_trace`.
    replacement: str = "lru"
    #: Capacity (in blocks) of the dirty-line directory: how many distinct
    #: blocks can be dirty across all cores' private caches at once.  Models
    #: the paper testbed's combined private L2 capacity; dirty lines evicted
    #: from it are written back, so later misses go to L3/memory instead of
    #: snooping.  ``None`` derives 32x the shared-L2-proxy block count.
    ownership_blocks: int | None = None
    #: Simulation engine: "auto" (compiled kernel when available, else the
    #: reference loop), "fast" (kernel, error if unavailable) or
    #: "reference".  Both engines are counter-for-counter identical; the
    #: knob never changes results, only wall-clock.  Overridable per call
    #: and campaign-wide via ``REPRO_SIM_ENGINE`` (see ``resolve_engine``).
    engine: str = "auto"

    def scaled(self, factor: int) -> "HierarchyConfig":
        """A hierarchy with every level ``factor``× larger (same shape)."""
        return HierarchyConfig(
            l1=CacheGeometry(self.l1.size_bytes * factor, self.l1.associativity),
            l2=CacheGeometry(self.l2.size_bytes * factor, self.l2.associativity),
            l3=CacheGeometry(self.l3.size_bytes * factor, self.l3.associativity),
            cores_per_socket=self.cores_per_socket,
            replacement=self.replacement,
            ownership_blocks=(
                None if self.ownership_blocks is None else self.ownership_blocks * factor
            ),
            engine=self.engine,
        )

    @property
    def effective_ownership_blocks(self) -> int:
        if self.ownership_blocks is not None:
            return self.ownership_blocks
        return 32 * (self.l2.size_bytes // self.l2.block_bytes)


#: Scaled default: 512 B L1 / 2 KiB L2 / 8 KiB L3.  The dataset analogs are
#: sized against the 8 KiB LLC (1024 8-byte properties) to match the
#: paper's hot-footprint : LLC ratios; the L1:L2:L3 proportions (1:4:16)
#: compress the Broadwell hierarchy while keeping each level meaningfully
#: larger than the previous.
DEFAULT_HIERARCHY = HierarchyConfig(
    l1=CacheGeometry(512, 2),
    l2=CacheGeometry(2048, 4),
    l3=CacheGeometry(8192, 8),
)


@dataclass
class CacheStats:
    """Access/miss counts per level plus the L2-miss breakdown."""

    accesses: int = 0
    l1_misses: int = 0
    l2_misses: int = 0
    l3_misses: int = 0
    #: L2-miss service classification (Fig. 9's four stacked categories).
    l2_miss_breakdown: dict = field(
        default_factory=lambda: {
            "l3_hit": 0,
            "snoop_local": 0,
            "snoop_remote": 0,
            "offchip": 0,
        }
    )

    def mpki(self, instructions: int) -> dict:
        """Misses per kilo-instruction at each level (Fig. 8's metric)."""
        kilo = max(instructions, 1) / 1000.0
        return {
            "l1": self.l1_misses / kilo,
            "l2": self.l2_misses / kilo,
            "l3": self.l3_misses / kilo,
        }


def resolve_engine(
    engine: str | None = None, config: HierarchyConfig | None = None
) -> str:
    """Pick the engine: explicit arg > ``REPRO_SIM_ENGINE`` > config > auto.

    Delegates to the unified registry (:func:`repro.engines.resolve`,
    domain ``"sim"``); unknown values raise, never fall back silently.
    """
    from repro import engines

    return engines.resolve("sim", engine, config.engine if config is not None else None)


def engine_to_run(
    engine: str | None = None, config: HierarchyConfig | None = None
) -> str:
    """The engine :func:`simulate_trace` runs for these arguments.

    :func:`resolve_engine`'s choice with ``auto`` settled: ``fast`` when
    the kernel is available here, else ``reference``.  Stage spans tag
    themselves with it, so a run says which simulator actually ran.
    """
    choice = resolve_engine(engine, config)
    if choice == "auto":
        from repro.cachesim import fast

        return "fast" if fast.fast_available() else "reference"
    return choice


def simulate_trace(
    trace: MemoryTrace | StreamingTrace,
    config: HierarchyConfig = DEFAULT_HIERARCHY,
    engine: str | None = None,
    hot_blocks=None,
) -> CacheStats:
    """Run a compressed trace through the hierarchy; returns counters.

    Dispatches to the compiled fast engine or the pure-Python reference
    loop (:func:`simulate_trace_reference`) according to ``engine`` /
    ``REPRO_SIM_ENGINE`` / ``config.engine``; both engines produce
    bit-identical counters.  A :class:`StreamingTrace` is consumed chunk by
    chunk through the kernel's persistent state, so the full trace is
    never materialized (the reference loop, which has no incremental
    entry point, materializes it).  ``hot_blocks`` is the static
    hot-block classification consumed by skew-aware policies such as
    ``grasp`` (sorted block IDs; ignored by classic policies).  Callers
    that need to know which engine ran ask :func:`engine_to_run`; the
    pipeline tags its ``simulate`` spans with it.
    """
    choice = engine_to_run(engine, config)
    if choice != "reference":
        from repro.cachesim import fast

        if not isinstance(trace, StreamingTrace):
            return fast.simulate_trace_fast(trace, config, hot_blocks=hot_blocks)
        with fast.FastSimulator(config, hot_blocks=hot_blocks) as sim:
            for chunk in trace.chunks():
                sim.step(*chunk)
                del chunk  # one chunk alive while the next is built
            return sim.stats()
    if isinstance(trace, StreamingTrace):
        trace = trace.materialize()
    return simulate_trace_reference(trace, config, hot_blocks=hot_blocks)


def simulate_trace_reference(
    trace: MemoryTrace,
    config: HierarchyConfig = DEFAULT_HIERARCHY,
    hot_blocks=None,
) -> CacheStats:
    """The pure-Python oracle the fast engine is verified against.

    Consecutive repeat accesses inside a trace run are L1 hits by
    construction and only count toward ``trace.accesses``.  ``hot_blocks``
    (block IDs classified hot, for skew-aware policies) selects each
    access's hot/cold policy flags and drives eviction protection; the
    snoop force-insert path stays policy-oblivious.
    """
    l1_sets = [[] for _ in range(config.l1.num_sets)]
    l2_sets = [[] for _ in range(config.l2.num_sets)]
    l3_sets = [[] for _ in range(config.l3.num_sets)]
    l1_mask, l1_ways = config.l1.num_sets - 1, config.l1.associativity
    l2_mask, l2_ways = config.l2.num_sets - 1, config.l2.associativity
    l3_mask, l3_ways = config.l3.num_sets - 1, config.l3.associativity
    cores_per_socket = config.cores_per_socket
    pol = get_policy(config.replacement, context="HierarchyConfig.replacement")
    hot_set = (
        frozenset(int(b) for b in hot_blocks) if hot_blocks is not None else frozenset()
    )
    protect = pol.protect_hot
    hot_flags = (pol.promote_hot, pol.insert_mru_hot)
    cold_flags = (pol.promote_cold, pol.insert_mru_cold)

    def fill(ways, capacity, b, insert_mru):
        # Miss fill: evict the LRU-end victim when full — skipping hot
        # lines first under a protecting policy — then insert.
        if len(ways) >= capacity:
            victim = 0
            if protect:
                for j, resident in enumerate(ways):
                    if resident not in hot_set:
                        victim = j
                        break
            del ways[victim]
        if insert_mru:
            ways.append(b)
        else:
            ways.insert(0, b)

    last_writer: OrderedDict[int, int] = OrderedDict()
    ownership_cap = config.effective_ownership_blocks
    stats = CacheStats()
    breakdown = stats.l2_miss_breakdown
    l1_misses = l2_misses = l3_misses = 0
    l3_hit_cnt = snoop_local = snoop_remote = offchip = 0

    blocks = trace.blocks.tolist()
    writes = trace.writes.tolist()
    cores = trace.cores.tolist()

    for b, is_write, core in zip(blocks, writes, cores):
        writer = last_writer.get(b, -1)
        if writer >= 0 and writer != core:
            # The line is dirty in another core's private cache.  Whatever
            # the shared lookup structures say, on real hardware this access
            # misses the local L1/L2 and is served by a cache-to-cache
            # forward (a snoop).
            l1_misses += 1
            l2_misses += 1
            if writer // cores_per_socket == core // cores_per_socket:
                snoop_local += 1
            else:
                snoop_remote += 1
            if is_write:
                last_writer[b] = core
                last_writer.move_to_end(b)
            else:
                del last_writer[b]  # downgraded to shared
            ways = l1_sets[b & l1_mask]
            if b not in ways:
                if len(ways) >= l1_ways:
                    ways.pop(0)
                ways.append(b)
            ways2 = l2_sets[b & l2_mask]
            if b not in ways2:
                if len(ways2) >= l2_ways:
                    ways2.pop(0)
                ways2.append(b)
            continue
        promote, insert_mru = hot_flags if b in hot_set else cold_flags
        ways = l1_sets[b & l1_mask]
        if b in ways:
            if promote and ways[-1] != b:
                ways.remove(b)
                ways.append(b)
        else:
            l1_misses += 1
            ways2 = l2_sets[b & l2_mask]
            if b in ways2:
                if promote and ways2[-1] != b:
                    ways2.remove(b)
                    ways2.append(b)
            else:
                l2_misses += 1
                ways3 = l3_sets[b & l3_mask]
                if b in ways3:
                    if promote and ways3[-1] != b:
                        ways3.remove(b)
                        ways3.append(b)
                    l3_hit_cnt += 1
                else:
                    l3_misses += 1
                    offchip += 1
                    fill(ways3, l3_ways, b, insert_mru)
                fill(ways2, l2_ways, b, insert_mru)
            fill(ways, l1_ways, b, insert_mru)
        if is_write:
            last_writer[b] = core
            last_writer.move_to_end(b)
            if len(last_writer) > ownership_cap:
                # Oldest dirty line is written back; ownership expires.
                last_writer.popitem(last=False)

    stats.accesses = trace.accesses
    stats.l1_misses = l1_misses
    stats.l2_misses = l2_misses
    stats.l3_misses = l3_misses
    breakdown["l3_hit"] = l3_hit_cnt
    breakdown["snoop_local"] = snoop_local
    breakdown["snoop_remote"] = snoop_remote
    breakdown["offchip"] = offchip
    return stats
