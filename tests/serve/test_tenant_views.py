"""Serve workers run every config as a view of one pipeline per namespace.

Jobs run in-process here against a worker pipeline initialized the way
a pool worker is, so the spans each job ships back can be counted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cachesim import DEFAULT_HIERARCHY
from repro.observability import TRACER
from repro.pipeline import grid
from repro.pipeline.cells import ExperimentConfig
from repro.serve.jobs import run_job
from repro.serve.pipeline import (
    UPLOAD_KIND,
    ServePipeline,
    UnknownGraphError,
    canonical_config_spec,
    upload_graph_key,
    upload_payload,
)
from repro.serve.server import _error_status

CONFIG = ExperimentConfig(scale=0.05, num_roots=1)


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A root store with this process initialized as a serve worker."""
    TRACER.reset()  # a job ships everything traced since the last drain
    monkeypatch.setattr(grid, "_WORKER", None)
    grid._worker_init(CONFIG, str(tmp_path / "store"), None, ServePipeline)
    return grid.worker_pipeline().store


def cell_job(graph: str, namespace: str | None = None, config: dict | None = None):
    return {
        "op": "cell",
        "graph": graph,
        "technique": "DBG",
        "degree_kind": None,
        "app": "PR",
        "namespace": namespace,
        "config": canonical_config_spec(config),
    }


def stage_spans(events, name: str) -> int:
    return sum(
        1
        for event in events
        if event.get("type") == "span"
        and event["name"] == name
        and event["tags"].get("kind") == "stage"
    )


def test_configs_of_one_scale_share_plan_and_relabel(store):
    jobs = [
        cell_job("wl", config={"policy": "lru"}),
        cell_job(
            "wl",
            config={"policy": "lip", "l3_bytes": 2 * DEFAULT_HIERARCHY.l3.size_bytes},
        ),
    ]
    events = []
    for job in jobs:
        _, (_, job_events) = run_job(job)
        events += job_events
    assert stage_spans(events, "plan") == 1
    assert stage_spans(events, "relabel") == 1
    assert store.stats.as_dict()["cell"]["stores"] == 2


def test_upload_memo_never_crosses_namespaces(store):
    rng = np.random.default_rng(7)
    payload = upload_payload(64, rng.integers(0, 64, size=(256, 2)))
    graph_key = upload_graph_key(payload)
    store.namespaced("tenant-a").put(UPLOAD_KIND, graph_key, payload)

    run_job(cell_job(graph_key, namespace="tenant-a"))
    # Tenant A's worker-side memos now hold the upload graph; tenant B
    # (and the shared root) must still not see it, under any config.
    for namespace, config in (
        ("tenant-b", None),
        ("tenant-b", {"policy": "lip"}),
        (None, None),
    ):
        with pytest.raises(UnknownGraphError) as raised:
            run_job(cell_job(graph_key, namespace=namespace, config=config))
        assert _error_status(raised.value) == 404
