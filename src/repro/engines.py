"""Unified registry for the compiled/reference engine pairs.

Three subsystems ship the same two-implementation pattern — a readable
numpy/Python *reference* and a compiled C *fast* kernel that is verified
bit-identical to it:

======  ===========================  =======================  ====================
domain  implementation module        environment variable     covers
======  ===========================  =======================  ====================
sim     ``repro.cachesim.fast``      ``REPRO_SIM_ENGINE``     cache-hierarchy simulation
trace   ``repro.framework.fasttrace``  ``REPRO_TRACE_ENGINE``  trace construction + Gorder placement
graph   ``repro.graph.fastgraph``    ``REPRO_GRAPH_ENGINE``   CSR relabel / build; PR, Radii and PRD plan rounds
======  ===========================  =======================  ====================

Historically each module carried its own copy of the dispatch rules.
This registry is the single implementation they now delegate to, and
:data:`ENGINE_CHOICES` is the only list of engine names:

* :func:`resolve` — the shared precedence chain (explicit argument >
  environment variable > configured fallback > ``auto``), rejecting
  unknown values with an error that names where the value came from;
* :func:`validate_env` — eager validation of all three environment
  variables, so a campaign fails at startup with a clear message
  instead of deep inside a grid worker;
* :func:`status` — availability report, one entry per domain of
  :data:`DOMAINS` (engine choice, whether the compiled kernel can be
  built, and the reason when it cannot), used by pipeline stages to
  declare engine requirements and by CI to assert the compiled engines
  exist.

Pipeline stages (:mod:`repro.pipeline.stages`) declare which domains
they dispatch on; ``run_grid`` validates those requirements up front.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass

__all__ = [
    "ENGINE_CHOICES",
    "EngineDomain",
    "DOMAINS",
    "resolve",
    "validate_env",
    "fast_available",
    "unavailable_reason",
    "sim_policies",
    "validate_policy",
    "status",
]

#: The recognized values, shared by every domain: ``fast`` runs the
#: compiled kernel, ``reference`` the readable oracle it is verified
#: bit-identical to (the differential suite), and ``auto`` the kernel
#: when it can be built here, else the reference.
ENGINE_CHOICES = ("auto", "fast", "reference")


@dataclass(frozen=True)
class EngineDomain:
    """One compiled/reference engine pair."""

    name: str  #: registry key ("sim" / "trace" / "graph")
    env_var: str  #: campaign-wide override variable
    module: str  #: dotted module exposing fast_available/kernel_unavailable_reason
    description: str  #: human label used in error messages


DOMAINS: dict[str, EngineDomain] = {
    d.name: d
    for d in (
        EngineDomain(
            "sim",
            "REPRO_SIM_ENGINE",
            "repro.cachesim.fast",
            "cache-simulation",
        ),
        EngineDomain(
            "trace",
            "REPRO_TRACE_ENGINE",
            "repro.framework.fasttrace",
            "trace-construction",
        ),
        EngineDomain(
            "graph",
            "REPRO_GRAPH_ENGINE",
            "repro.graph.fastgraph",
            "graph-structure",
        ),
    )
}


def _domain(name: str) -> EngineDomain:
    try:
        return DOMAINS[name]
    except KeyError:
        raise KeyError(
            f"unknown engine domain {name!r}; known domains: {tuple(DOMAINS)}"
        ) from None


def resolve(domain: str, explicit: str | None = None, fallback: str | None = None) -> str:
    """Resolve a domain's engine choice through the shared precedence chain.

    Precedence: ``explicit`` argument > the domain's environment variable
    > ``fallback`` (a per-config default such as ``HierarchyConfig.engine``)
    > ``"auto"``.  Unknown values raise :class:`ValueError` naming the
    source — an unknown environment value is an error, never a silent
    fall-back to ``auto``.
    """
    dom = _domain(domain)
    env = os.environ.get(dom.env_var)
    if explicit:
        choice, source = explicit, "call argument"
    elif env:
        choice, source = env, f"environment variable {dom.env_var}"
    elif fallback:
        choice, source = fallback, "configuration"
    else:
        choice, source = "auto", "default"
    if choice not in ENGINE_CHOICES:
        raise ValueError(
            f"unknown {dom.description} engine {choice!r} (from {source}); "
            f"known engines: {ENGINE_CHOICES}"
        )
    return choice


def validate_env(domains: tuple[str, ...] | None = None) -> dict[str, str]:
    """Eagerly validate the engine environment variables.

    Returns ``{domain: resolved engine}`` for the requested ``domains``
    (default: all).  Raises :class:`ValueError` on the first unknown
    value, naming the offending variable — called at campaign startup
    (CLI, ``run_grid``) so a typo like ``REPRO_SIM_ENGINE=fastest``
    fails loudly before any worker is spawned.
    """
    return {name: resolve(name) for name in (domains or tuple(DOMAINS))}


def _impl(domain: str):
    return importlib.import_module(_domain(domain).module)


def fast_available(domain: str) -> bool:
    """Whether the domain's compiled kernel can be used here."""
    return bool(_impl(domain).fast_available())


def unavailable_reason(domain: str) -> str | None:
    """Why ``fast_available(domain)`` is False (``None`` when it is True)."""
    return _impl(domain).kernel_unavailable_reason()


def sim_policies() -> tuple[str, ...]:
    """Registered replacement-policy names of the ``sim`` domain.

    The policy registry (:mod:`repro.cachesim.policies`) is the sim
    domain's second axis: both engines dispatch on it and stay
    bit-identical per policy, so validation belongs next to engine
    validation.
    """
    from repro.cachesim import policies

    return policies.policy_names()


def validate_policy(name: str, context: str = ""):
    """Validate a replacement-policy name against the registry.

    Returns the :class:`~repro.cachesim.policies.ReplacementPolicy`;
    unknown names raise
    :class:`~repro.cachesim.policies.UnknownPolicyError` (a
    :class:`ValueError`) listing the registered policies.
    """
    from repro.cachesim import policies

    return policies.get_policy(name, context=context)


def status() -> dict[str, dict]:
    """Availability report keyed by domain (CLI / CI / stage checks)."""
    report: dict[str, dict] = {}
    for name, dom in DOMAINS.items():
        report[name] = {
            "engine": resolve(name),
            "env_var": dom.env_var,
            "env_value": os.environ.get(dom.env_var),
            "fast_available": fast_available(name),
            "unavailable_reason": unavailable_reason(name),
        }
    report["sim"]["policies"] = list(sim_policies())
    return report
