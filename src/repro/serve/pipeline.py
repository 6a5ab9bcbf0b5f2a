"""Serving-side pipeline: uploaded graphs, request configs, job specs.

The serving layer reuses the experiment pipeline wholesale — the same
:class:`~repro.pipeline.cells.CellPipeline` stages, the same artifact
addresses, the same engines.  This module adds the three pieces a
traffic-facing deployment needs on top:

* :class:`ServePipeline` — a :class:`CellPipeline` whose ``generate``
  stage can also serve *tenant-uploaded* graphs (kind ``"upload"`` in
  the store, addressed by content digest) next to the generator-spec
  datasets;
* :func:`config_from_spec` — per-request cache-configuration overrides
  resolved against the server's base :class:`ExperimentConfig`, so an
  ``analyze`` request can sweep hierarchy shapes without a redeploy (the
  overridden config flows into the cell's content address, so distinct
  configurations never alias);
* :func:`job_key` / :func:`job_payload` — the canonical translation of a
  request into (store kind, store key, coalescing identity).  Coalescing
  is keyed by the *artifact address* — the same content addressing the
  store uses on disk — so two requests coalesce exactly when they would
  have produced the same file.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.cachesim import CacheGeometry, HierarchyConfig
from repro.cachesim.policies import get_policy
from repro.graph.builder import from_edges
from repro.graph.csr import Graph
from repro.observability import TRACER
from repro.pipeline.cells import CellPipeline, ExperimentConfig
from repro.pipeline.store import ArtifactStore

__all__ = [
    "UPLOAD_PREFIX",
    "UPLOAD_KIND",
    "UnknownGraphError",
    "ServePipeline",
    "upload_graph_key",
    "upload_payload",
    "config_from_spec",
    "canonical_config_spec",
    "mapping_summary",
]

#: Graph keys beginning with this prefix address tenant uploads in the
#: store (kind :data:`UPLOAD_KIND`); everything else is a generator spec.
UPLOAD_PREFIX = "upload:"
UPLOAD_KIND = "upload"

#: ``config_spec`` keys an ``analyze`` request may override, mapped to
#: how they apply to the base :class:`ExperimentConfig`.  ``policy`` is
#: a client-facing alias for ``replacement`` (the registry vocabulary);
#: it is normalized away during canonicalization so the two spellings
#: coalesce onto the same artifact address.
_CONFIG_SPEC_KEYS = (
    "scale",
    "num_roots",
    "l1_bytes",
    "l2_bytes",
    "l3_bytes",
    "replacement",
    "policy",
)


class UnknownGraphError(KeyError):
    """An upload graph key that is not present in the (tenant's) store."""


def upload_payload(
    num_vertices: int,
    edges: np.ndarray,
    weights: np.ndarray | None = None,
    symmetrize: bool = False,
) -> dict:
    """Validated, canonical store payload for one uploaded graph."""
    edges = np.ascontiguousarray(np.asarray(edges, dtype=np.int64))
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must have shape (E, 2)")
    num_vertices = int(num_vertices)
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    if edges.size and (edges.min() < 0 or edges.max() >= num_vertices):
        raise ValueError("edge endpoint out of range")
    payload = {
        "num_vertices": num_vertices,
        "edges": edges,
        "symmetrize": bool(symmetrize),
    }
    if weights is not None:
        weights = np.ascontiguousarray(np.asarray(weights, dtype=np.float64))
        if weights.shape != (edges.shape[0],):
            raise ValueError("weights must align with edges")
        payload["weights"] = weights
    return payload


def upload_graph_key(payload: dict) -> str:
    """Content-digest graph key (``upload:<digest>``) of an upload payload.

    Identical uploads derive identical keys, so re-uploading is free and
    requests against re-uploaded graphs keep hitting the warm artifacts.
    """
    digest = hashlib.sha256()
    digest.update(str(payload["num_vertices"]).encode())
    digest.update(b"|" + str(payload["symmetrize"]).encode() + b"|")
    digest.update(payload["edges"].tobytes())
    if "weights" in payload:
        digest.update(payload["weights"].tobytes())
    return UPLOAD_PREFIX + digest.hexdigest()[:24]


class ServePipeline(CellPipeline):
    """A :class:`CellPipeline` that also serves tenant-uploaded graphs.

    Graph keys with the ``upload:`` prefix resolve through the pipeline's
    store (which the serving layer points at the tenant's namespace);
    everything else falls through to the generator-spec datasets.  All
    downstream stages — mapping, relabel, trace, simulate, model — are
    inherited unchanged, so uploaded graphs flow through the exact code
    paths (and artifact addressing) the experiment grid uses.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        store: ArtifactStore | None = None,
    ) -> None:
        super().__init__(config, store)
        #: One pipeline per tenant namespace (:meth:`tenant`).
        self._tenants: dict[str, ServePipeline] = {}

    def tenant(
        self, namespace: str | None, config: ExperimentConfig
    ) -> "ServePipeline":
        """The pipeline serving ``namespace`` under ``config``.

        Each namespace gets one pipeline over its store namespace
        (``None`` is this pipeline), and every config is a
        :meth:`~repro.pipeline.cells.CellPipeline.view` of it, so the
        memos are shared across the configs of one namespace and scale.
        They are never shared across namespaces: a tenant's upload graph
        must stay invisible to every other tenant.
        """
        pipeline = self
        if namespace is not None:
            pipeline = self._tenants.get(namespace)
            if pipeline is None:
                store = self.store.namespaced(namespace)
                pipeline = self._tenants[namespace] = ServePipeline(self.config, store)
        return pipeline.view(config)

    def graph(self, dataset: str, weighted: bool = False) -> Graph:
        if not dataset.startswith(UPLOAD_PREFIX):
            return super().graph(dataset, weighted)
        key = (dataset, weighted)
        if key not in self._graphs:
            payload = self.store.get(UPLOAD_KIND, dataset)
            if payload is None:
                raise UnknownGraphError(dataset)
            with TRACER.span(
                "generate", kind="stage", dataset=dataset, weighted=weighted
            ):
                self._graphs[key] = _build_upload(dataset, payload, weighted)
        return self._graphs[key]


def _build_upload(graph_key: str, payload: dict, weighted: bool) -> Graph:
    weights = payload.get("weights")
    if weighted and weights is None:
        # Deterministic synthetic weights (same convention as the
        # generator datasets) so SSSP works on weightless uploads.
        seed = int.from_bytes(graph_key[-8:].encode(), "little") % (2**32)
        rng = np.random.default_rng(seed)
        weights = rng.integers(1, 64, size=payload["edges"].shape[0]).astype(
            np.float64
        )
    return from_edges(
        payload["num_vertices"],
        payload["edges"],
        weights if weighted else None,
        symmetrize=payload.get("symmetrize", False),
    )


# -- per-request configuration ------------------------------------------------

def canonical_config_spec(spec: dict | None) -> tuple | None:
    """Sorted-tuple identity of a config-override dict (None = defaults).

    Unknown keys are rejected here — at admission, with a client-facing
    error — rather than surfacing as a worker traceback mid-compute.
    The ``policy`` alias folds into ``replacement`` and the policy name
    is resolved against the replacement-policy registry, so a typo'd
    policy is a 400 at admission, not a worker traceback.
    """
    if not spec:
        return None
    unknown = sorted(set(spec) - set(_CONFIG_SPEC_KEYS))
    if unknown:
        raise ValueError(
            f"unknown config override(s) {unknown}; allowed: {list(_CONFIG_SPEC_KEYS)}"
        )
    spec = dict(spec)
    policy = spec.pop("policy", None)
    if policy is not None:
        existing = spec.get("replacement")
        if existing is not None and existing != policy:
            raise ValueError(
                f"conflicting policy overrides: policy={policy!r} vs "
                f"replacement={existing!r}"
            )
        spec["replacement"] = policy
    if spec.get("replacement") is not None:
        get_policy(str(spec["replacement"]), context="config override 'policy'")
    if not spec:
        return None
    return tuple(sorted(spec.items()))


def config_from_spec(
    base: ExperimentConfig, spec: dict | tuple | None
) -> ExperimentConfig:
    """Apply request-level overrides to the server's base configuration."""
    if not spec:
        return base
    overrides = dict(spec if isinstance(spec, dict) else list(spec))
    canonical = canonical_config_spec(overrides)  # validate + fold aliases
    overrides = dict(canonical or ())
    hierarchy = base.hierarchy
    geoms = {"l1": hierarchy.l1, "l2": hierarchy.l2, "l3": hierarchy.l3}
    for level, geom in geoms.items():
        size = overrides.get(f"{level}_bytes")
        if size is not None:
            geoms[level] = CacheGeometry(int(size), geom.associativity)
    hierarchy = HierarchyConfig(
        l1=geoms["l1"],
        l2=geoms["l2"],
        l3=geoms["l3"],
        cores_per_socket=hierarchy.cores_per_socket,
        replacement=overrides.get("replacement", hierarchy.replacement),
        ownership_blocks=hierarchy.ownership_blocks,
        engine=hierarchy.engine,
    )
    for level, geom in geoms.items():
        geom.num_sets  # noqa: B018 - validates power-of-two set count eagerly
    config = dataclasses.replace(
        base,
        hierarchy=hierarchy,
        scale=float(overrides.get("scale", base.scale)),
        num_roots=int(overrides.get("num_roots", base.num_roots)),
    )
    return config


def mapping_summary(mapping: np.ndarray) -> dict:
    """Compact response payload for a computed reordering permutation."""
    mapping = np.ascontiguousarray(np.asarray(mapping, dtype=np.int64))
    return {
        "num_vertices": int(mapping.shape[0]),
        "mapping_sha256": hashlib.sha256(mapping.tobytes()).hexdigest(),
    }
