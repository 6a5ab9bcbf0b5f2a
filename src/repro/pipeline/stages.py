"""Declarative stage graph of the experiment pipeline.

Producing one grid cell ``(app, dataset, technique)`` walks a fixed DAG:

.. code-block:: text

    generate ──► mapping ──► relabel ──► trace ──► simulate ──► model
        │            │           ▲          ▲
        └────────────┴───────────┴──────────┘   (generate feeds every
                                                 downstream stage)

Each :class:`StageSpec` declares what the stage consumes (``deps``),
whether its output is persisted in the :class:`~repro.pipeline.store.ArtifactStore`
(``artifact_kind``) or lives in per-process memory only, and which
compiled-engine domains (:mod:`repro.engines`) it dispatches on.  Engine
validation covers exactly the domains the declared stages require.  The
grid scheduler's phases (mappings, then ``(app, dataset)`` groups) are
written out in :mod:`repro.pipeline.grid`, not derived from this graph.

Key builders for the persisted stages live here too, so every producer
and consumer (serial cells, grid scheduler phases, workers, tests)
derives identical artifact addresses from one place.  Keys are *content
keys*: they name everything the artifact depends on — the schema version
is folded in by the store itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro import engines

__all__ = [
    "StageSpec",
    "StageGraph",
    "PIPELINE",
    "FUSED_TRACE_BYTES_ENV",
    "DEFAULT_FUSED_TRACE_BYTES",
    "fused_trace_budget",
    "estimated_trace_bytes",
    "use_fused_trace",
    "mapping_key",
    "cell_key",
]


@dataclass(frozen=True)
class StageSpec:
    """One stage of the cell pipeline."""

    name: str
    #: Upstream stages whose outputs this stage consumes.
    deps: tuple[str, ...]
    #: ArtifactStore kind for the stage's output, or ``None`` when the
    #: output is memory-resident only (cheap or non-serializable).
    artifact_kind: str | None
    #: Engine domains (:data:`repro.engines.DOMAINS`) the stage
    #: dispatches on; validated before a campaign starts.
    engine_domains: tuple[str, ...]


#: The cell pipeline in execution order.  ``generate`` builds dataset
#: analogs (CSR construction dispatches on the graph engine), ``mapping``
#: computes the technique permutation (Gorder placement dispatches on the
#: trace engine), ``relabel`` rebuilds the CSR under the permutation,
#: ``trace`` constructs the super-step memory trace, ``simulate`` runs it
#: through the cache hierarchy and ``model`` converts counters to cycles
#: and aggregates the persisted cell result.
STAGES: tuple[StageSpec, ...] = (
    StageSpec("generate", (), None, ("graph",)),
    StageSpec("mapping", ("generate",), "mapping", ("trace",)),
    StageSpec("relabel", ("generate", "mapping"), None, ("graph",)),
    # Memory-resident: a trace is simulated inside the group that built
    # it and never stored.
    StageSpec("trace", ("generate", "mapping", "relabel"), None, ("trace",)),
    StageSpec("simulate", ("trace",), None, ("sim",)),
    # Fused alternative to trace → simulate for paper-scale cells: the
    # streaming trace is fed straight into the simulator's persistent
    # state, never materialized.  Selected per cell when the estimated
    # trace footprint exceeds the fused-trace byte budget.
    StageSpec(
        "trace+simulate",
        ("generate", "mapping", "relabel"),
        None,
        ("trace", "sim"),
    ),
    StageSpec("model", ("generate", "simulate"), "cell", ()),
)


# -- fused-stage selection ---------------------------------------------------

#: Campaign-wide byte budget above which a cell's estimated trace
#: footprint routes it through the fused ``trace+simulate`` stage.
FUSED_TRACE_BYTES_ENV = "REPRO_FUSED_TRACE_BYTES"

#: Default budget: traces estimated under 1 GiB keep the two-stage path
#: (one materialized trace serves every policy of its group); larger
#: ones stream.  ``0`` (or negative) disables fusing entirely.
DEFAULT_FUSED_TRACE_BYTES = 1 << 30


def fused_trace_budget() -> int:
    """The fused-stage byte budget (``REPRO_FUSED_TRACE_BYTES`` or default).

    Non-integer values raise :class:`ValueError` naming the variable, the
    same eager-failure contract as the engine variables.
    """
    env = os.environ.get(FUSED_TRACE_BYTES_ENV)
    if not env:
        return DEFAULT_FUSED_TRACE_BYTES
    try:
        return int(env)
    except ValueError:
        raise ValueError(
            f"{FUSED_TRACE_BYTES_ENV}={env!r} is not an integer byte count"
        ) from None


def estimated_trace_bytes(num_edges: int) -> int:
    """Rough peak footprint of materializing a super-step trace.

    The compiled generator writes the trace in order, one interleave
    quantum at a time, so its only scratch is one slice of entries
    (about 16 bytes per entry of one quantum across the cores, a few
    hundred kB); what grows with the edges is the output, 6 bytes per
    slot sized for every access (one property entry per traversed edge
    plus the edge/vertex-stream transitions), then the trace the
    simulator reads.  The 32 bytes/edge was set when the generator also
    held a 14-byte keyed entry per access for a merge (a materialized
    trace+simulate on uniform random graphs, 4M vertices, 10 edges
    each, PageRank, grew the process by 872 MB, about 22 bytes per
    edge); it is kept as a round upper-ish estimate because the knob is
    a routing threshold, not an accounting claim.
    """
    return 32 * int(num_edges)


def use_fused_trace(num_edges: int, budget: int | None = None) -> bool:
    """Whether a cell over ``num_edges`` traversed edges should fuse."""
    budget = fused_trace_budget() if budget is None else budget
    return budget > 0 and estimated_trace_bytes(num_edges) > budget


class StageGraph:
    """Validated, ordered view over a tuple of :class:`StageSpec`."""

    def __init__(self, specs: tuple[StageSpec, ...]) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        seen: set[str] = set()
        for spec in specs:
            missing = [d for d in spec.deps if d not in seen]
            if missing:
                raise ValueError(
                    f"stage {spec.name!r} depends on undefined/later stages {missing}; "
                    "declare stages in topological order"
                )
            unknown = [d for d in spec.engine_domains if d not in engines.DOMAINS]
            if unknown:
                raise ValueError(
                    f"stage {spec.name!r} requires unknown engine domains {unknown}"
                )
            seen.add(spec.name)
        self._specs = specs
        self._by_name = {spec.name: spec for spec in specs}

    @property
    def names(self) -> tuple[str, ...]:
        """Stage names in execution (topological) order."""
        return tuple(spec.name for spec in self._specs)

    def __iter__(self):
        return iter(self._specs)

    def spec(self, name: str) -> StageSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown pipeline stage {name!r}; known: {self.names}"
            ) from None

    def required_engine_domains(self) -> tuple[str, ...]:
        """Engine domains any stage dispatches on (deduplicated, ordered)."""
        out: list[str] = []
        for spec in self._specs:
            for domain in spec.engine_domains:
                if domain not in out:
                    out.append(domain)
        return tuple(out)

    def validate_engines(self) -> dict[str, str]:
        """Eagerly resolve the engine choice of every required domain."""
        return engines.validate_env(self.required_engine_domains())


#: The experiment pipeline all orchestration schedules against.
PIPELINE = StageGraph(STAGES)


# -- artifact keys -----------------------------------------------------------
def mapping_key(scale: float, dataset: str, technique_token: object) -> tuple:
    """Address of a reordering permutation.

    A mapping depends only on the graph (dataset + scale) and the
    technique's full identity (``cache_token()``: class, window sizes,
    thresholds, ..., and the degree kind for techniques that read it) —
    never on hierarchy or timing knobs.  Because techniques that ignore
    the degree kind leave it out of their token, push and pull
    applications share one Gorder mapping per graph.
    """
    return (scale, dataset, technique_token)


def cell_key(
    config_key: tuple,
    app_name: str,
    dataset: str,
    technique_name: str,
    policy_token: object = None,
) -> tuple:
    """Address of a finished cell result (counters + modelled cycles).

    ``config_key`` is :meth:`ExperimentConfig.cache_key` — everything the
    simulated counters and modelled cycles depend on.  ``policy_token``
    is the replacement policy's full semantic identity
    (:meth:`ReplacementPolicy.cache_token`): the config key already
    carries the policy *name*, but folding the behavioural flags means a
    redefined policy re-addresses every cell simulated under it instead
    of serving stale counters.
    """
    return (config_key, app_name, dataset, technique_name, policy_token)
