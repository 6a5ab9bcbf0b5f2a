"""Seeded inputs: dataset analogs as upload payloads, and the serve traffic.

Every input is a pure function of the workload seed.  An analog is built
from its :class:`~repro.graph.generators.datasets.DatasetSpec` recipe with
its generator seed moved by ``SEED_STRIDE * seed``, so seed 0 reproduces
the stock analogs (edge weights included) and every other seed draws a
new graph of the same shape.  The program receives these graphs the way
it receives a tenant's graphs, as upload payloads.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from repro.apps.registry import APP_ORDER
from repro.graph.generators.datasets import DATASETS, NO_SKEW_DATASETS, SKEWED_DATASETS
from repro.serve.pipeline import upload_payload

__all__ = [
    "SEED_STRIDE",
    "TENANT",
    "analog_payload",
    "Request",
    "ServeTraffic",
]

SEED_STRIDE = 1000
#: Store namespace (and serve tenant) every benchmark upload lives in.
TENANT = "bench"


def analog_payload(name: str, seed: int, scale: float) -> dict:
    """Upload payload of analog ``name`` for workload ``seed``.

    Weights follow the stock analogs' convention (uniform integers in
    [1, 64) drawn from the generator seed + 1,000,003), so SSSP on a seed-0
    upload sees exactly the stock weighted graph.
    """
    base = DATASETS[name]
    spec = dataclasses.replace(base, seed=base.seed + SEED_STRIDE * seed)
    graph = spec.generate(scale)
    src, dst = graph.edge_array()
    rng = np.random.default_rng(spec.seed + 1_000_003)
    weights = rng.integers(1, 64, size=graph.num_edges).astype(np.float64)
    return upload_payload(graph.num_vertices, np.stack([src, dst], axis=1), weights)


#: The orderings of the paper's Fig. 6, baseline first.
FIG6_TECHNIQUES = ("Original", "Sort", "HubSort", "HubCluster", "DBG", "Gorder")

# -- serve traffic -------------------------------------------------------------

SERVE_DATASETS = tuple(SKEWED_DATASETS + NO_SKEW_DATASETS)
REORDER_TECHNIQUES = FIG6_TECHNIQUES[1:]
COLD_POLICIES = ("lru", "fifo", "lip", "grasp")
#: L3 sizes other than the default 8 KiB, so a cold job never addresses a
#: pre-warmed artifact.
COLD_L3_BYTES = (4096, 16384, 32768)

PREWARM_ANALYZE = 50
PREWARM_REORDER = 40
BLOCK_REQUESTS = 400
COLD_PAIRS_PER_BLOCK = 5


@dataclasses.dataclass(frozen=True)
class Request:
    """One serve request, naming its graph by dataset (not upload key)."""

    op: str  #: "analyze" | "reorder"
    graph: str
    technique: str
    app: str | None = None
    policy: str | None = None
    l3_bytes: int | None = None
    #: Index into the cold-job list (None for a pre-warmed artifact).
    cold: int | None = None

    @property
    def path(self) -> str:
        return f"/v1/{self.op}"

    def body(self, graph_key: str) -> dict:
        body = {"graph": graph_key, "technique": self.technique, "tenant": TENANT}
        if self.op == "analyze":
            body["app"] = self.app
            if self.policy is not None:
                body["policy"] = self.policy
            if self.l3_bytes is not None:
                body["config"] = {"l3_bytes": self.l3_bytes}
        return body


def _sample(rng: np.random.Generator, space: list, count: int) -> list:
    return [space[i] for i in rng.permutation(len(space))[:count]]


class ServeTraffic:
    """The seeded request stream of the serve-mix workload.

    Blocks of :data:`BLOCK_REQUESTS` requests: 2.5% are cold ``analyze``
    jobs, each sent twice in a row so two connections race on it, and the
    rest are split evenly between ``analyze`` and ``reorder`` requests for
    the pre-warmed artifacts.  Block ``k`` is a function of ``(seed, k)``
    only, and its cold jobs are entries ``5k .. 5k+4`` of one seeded
    permutation of all cold jobs (every Fig. 6 ordering, Gorder included),
    so no cold job repeats within a run.

    The mix is an assumption, not a measurement: no serve request log
    exists to draw it from.  The 2.5% cold share and the closed loop are
    fixed by design, not observed; one duplicate per cold job follows the
    default ``--duplicates 2`` of ``benchmarks/serve_load_check.py``; the
    even analyze/reorder split is a choice.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.analyze = [
            Request("analyze", graph, technique, app)
            for graph, app, technique in _sample(
                rng,
                list(itertools.product(SERVE_DATASETS, APP_ORDER, FIG6_TECHNIQUES)),
                PREWARM_ANALYZE,
            )
        ]
        self.reorder = [
            Request("reorder", graph, technique)
            for graph, technique in _sample(
                rng,
                list(itertools.product(SERVE_DATASETS, REORDER_TECHNIQUES)),
                PREWARM_REORDER,
            )
        ]
        self._cold_space = list(
            itertools.product(
                SERVE_DATASETS, APP_ORDER, FIG6_TECHNIQUES, COLD_POLICIES, COLD_L3_BYTES
            )
        )
        self._cold_order = rng.permutation(len(self._cold_space))

    @property
    def prewarm(self) -> list[Request]:
        return self.analyze + self.reorder

    def cold_job(self, index: int) -> Request:
        graph, app, technique, policy, l3 = self._cold_space[self._cold_order[index]]
        return Request("analyze", graph, technique, app, policy, int(l3), cold=index)

    def block(self, k: int) -> list[Request]:
        rng = np.random.default_rng([self.seed, 2, k])
        warm_count = BLOCK_REQUESTS - 2 * COLD_PAIRS_PER_BLOCK
        units: list[list[Request]] = []
        for is_analyze, pick in zip(
            rng.random(warm_count) < 0.5, rng.random(warm_count)
        ):
            pool = self.analyze if is_analyze else self.reorder
            units.append([pool[int(pick * len(pool))]])
        slots = np.sort(rng.choice(warm_count + 1, COLD_PAIRS_PER_BLOCK, replace=False))
        for offset, slot in enumerate(slots):
            job = self.cold_job(COLD_PAIRS_PER_BLOCK * k + offset)
            units.insert(int(slot) + offset, [job, job])
        return [request for unit in units for request in unit]
