"""Stage routing and artifact keys of the experiment pipeline.

Producing one grid cell ``(app, dataset, technique)`` runs the stages
``generate → mapping → relabel → plan → trace → simulate → model``
(:meth:`~repro.pipeline.cells.CellPipeline.group` writes them out; the
stage names, in that order, are :data:`repro.observability.run.STAGES`).
Only ``mapping`` and the finished cell (``model``) are persisted in the
:class:`~repro.pipeline.store.ArtifactStore`; graphs, plans and traces
are memory-resident.  The engines the stages dispatch on are validated
by :func:`repro.engines.validate_env` before a campaign starts.

This module holds the two things every producer and consumer must agree
on:

* the fused-trace routing (:func:`use_fused_trace`): a cell whose
  estimated trace exceeds the byte budget runs the fused
  ``trace+simulate`` stage instead of the ``trace`` → ``simulate`` pair;
* the key builders for the persisted stages, so serial cells, grid
  scheduler phases, workers and tests derive identical artifact
  addresses.  Keys are *content keys*: they name everything the
  artifact depends on — the schema version is folded in by the store
  itself.
"""

from __future__ import annotations

import os

__all__ = [
    "FUSED_TRACE_BYTES_ENV",
    "DEFAULT_FUSED_TRACE_BYTES",
    "fused_trace_budget",
    "estimated_trace_bytes",
    "use_fused_trace",
    "mapping_key",
    "cell_key",
]


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
