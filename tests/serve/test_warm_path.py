"""The warm path: a stored artifact is read on the event-loop thread.

A warm request reads its artifact inline, without a hop through the
thread executor; its store address is derived once per request
identity.  These tests pin
that design, the single read of a warm ``include_mapping`` reorder, and
the quarantine path that now runs on the loop thread.
"""

from __future__ import annotations

import asyncio
import threading

from repro.pipeline.store import ArtifactStore
from repro.serve.client import ServeClient

from tests.serve.test_http import boot, counters

ANALYZE = {"graph": "uni", "technique": "DBG", "app": "PR"}
REORDER = {"graph": "uni", "technique": "DBG"}


def spy_store(monkeypatch) -> list[tuple]:
    """Record every ``ArtifactStore.get`` with its thread id, and every
    address derivation (``path_for``, which ``get`` calls unless handed
    the path)."""
    calls: list[tuple] = []
    real_get, real_path_for = ArtifactStore.get, ArtifactStore.path_for

    def get(self, kind, key, **kwargs):
        calls.append(("get", kind, threading.get_ident()))
        return real_get(self, kind, key, **kwargs)

    def path_for(self, kind, key):
        calls.append(("path_for", kind))
        return real_path_for(self, kind, key)

    monkeypatch.setattr(ArtifactStore, "get", get)
    monkeypatch.setattr(ArtifactStore, "path_for", path_for)
    return calls


def stored(service, body: dict):
    """The artifact a reply names, read straight from the store."""
    keyer = service._keyer(None, None)
    if body["meta"]["artifact"].startswith("cell-"):
        kind = "cell"
        key = keyer.cell_store_key(ANALYZE["app"], ANALYZE["graph"], ANALYZE["technique"])
    else:
        kind = "mapping"
        key = keyer.mapping_store_key(REORDER["graph"], REORDER["technique"], "out")
    assert service.store.path_for(kind, key).name == body["meta"]["artifact"]
    return service.store.get(kind, key)


def test_warm_requests_read_on_the_loop_thread(tmp_path, monkeypatch):
    async def scenario():
        service = boot(tmp_path)
        await service.start()
        try:
            async with ServeClient(service.host, service.port) as client:
                calls = spy_store(monkeypatch)
                loop_thread = threading.get_ident()
                status, cold = await client.post("/v1/reorder", REORDER)
                assert (status, cold["meta"]["source"]) == (200, "cold")
                status, fresh = await client.post("/v1/analyze", ANALYZE)
                assert (status, fresh["meta"]["source"]) == (200, "cold")
                status, cell = await client.post("/v1/analyze", ANALYZE)
                assert (status, cell["meta"]["source"]) == (200, "warm")
                status, reorder = await client.post("/v1/reorder", REORDER)
                assert (status, reorder["meta"]["source"]) == (200, "warm")
                # One address derivation per request identity, at its
                # first request; every request reads on the loop thread.
                assert calls == [
                    ("path_for", "mapping"),
                    ("get", "mapping", loop_thread),
                    ("path_for", "cell"),
                    ("get", "cell", loop_thread),
                    ("get", "cell", loop_thread),
                    ("get", "mapping", loop_thread),
                ]

                assert cell["result"] == stored(service, cell) == fresh["result"]
                mapping = stored(service, reorder)
                assert reorder["result"]["num_vertices"] == mapping.shape[0]
                assert reorder["result"] == cold["result"]
        finally:
            await service.stop()

    asyncio.run(scenario())


def test_warm_include_mapping_reads_the_artifact_once(tmp_path):
    async def scenario():
        service = boot(tmp_path)
        await service.start()
        try:
            async with ServeClient(service.host, service.port) as client:
                status, _ = await client.post("/v1/reorder", REORDER)
                assert status == 200

                hits = service.store.stats.as_dict()["mapping"]["hits"]
                status, body = await client.post(
                    "/v1/reorder", {**REORDER, "include_mapping": True}
                )
                assert (status, body["meta"]["source"]) == (200, "warm")
                assert service.store.stats.as_dict()["mapping"]["hits"] == hits + 1
                mapping = stored(service, body)
                assert body["result"]["mapping"] == mapping.tolist()
        finally:
            await service.stop()

    asyncio.run(scenario())


def test_truncated_warm_cell_is_quarantined_and_recomputed(tmp_path):
    async def scenario():
        service = boot(tmp_path)
        await service.start()
        try:
            async with ServeClient(service.host, service.port) as client:
                status, fresh = await client.post("/v1/analyze", ANALYZE)
                assert (status, fresh["meta"]["source"]) == (200, "cold")

                cell_file = service.store.root / fresh["meta"]["artifact"]
                data = cell_file.read_bytes()
                cell_file.write_bytes(data[: len(data) // 2])
                executions = counters(service)["serve.executions"]

                status, body = await client.post("/v1/analyze", ANALYZE)
                assert (status, body["meta"]["source"]) == (200, "cold")
                assert counters(service)["serve.executions"] == executions + 1
                assert body["result"] == fresh["result"]
                assert service.store.stats.as_dict()["cell"]["quarantined"] == 1
                quarantined = list((service.store.root / "quarantine").iterdir())
                assert [p.read_bytes() for p in quarantined] == [data[: len(data) // 2]]
                assert stored(service, body) == fresh["result"]

                assert await client.get("/healthz") == (200, {"status": "ok"})
                status, warm = await client.post("/v1/analyze", ANALYZE)
                assert (status, warm["meta"]["source"]) == (200, "warm")
                assert warm["result"] == fresh["result"]
        finally:
            await service.stop()

    asyncio.run(scenario())
