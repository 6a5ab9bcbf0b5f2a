"""The service's warm-path memos, and what it retains of its trace events.

A request identity's store address and a stored mapping's summary are
derived once and memoised.  These tests pin that distinct tenants and
config specs never share an address, that a repeated warm reorder does
not hash its mapping again, that both memos stay bounded, and that a
long run of warm requests does not grow the process tracer's buffer.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

import repro.serve.server as server_module
from repro.observability import TRACER
from repro.serve.client import ServeClient
from repro.serve.server import (
    MAX_ADDRESSES,
    MAX_RETAINED_EVENTS,
    MAX_SUMMARIES,
)

from tests.serve.test_http import boot

REORDER = {"graph": "uni", "technique": "DBG"}
EDGES = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2]]


def test_tenants_and_config_specs_never_share_an_address(tmp_path):
    async def scenario():
        service = boot(tmp_path)
        await service.start()
        try:
            async with ServeClient(service.host, service.port) as client:
                replies = {}
                for tenant in ("acme", "rival"):
                    status, upload = await client.post(
                        "/v1/graphs",
                        {"tenant": tenant, "num_vertices": 5, "edges": EDGES},
                    )
                    assert status == 200
                    for _ in range(2):  # cold, then warm from the memo
                        status, body = await client.post(
                            "/v1/reorder",
                            {"tenant": tenant, "graph": upload["graph_key"],
                             "technique": "DBG"},
                        )
                        assert status == 200
                    replies[tenant] = body
                # Identical content: one graph key, two namespaces.
                assert [r["meta"]["namespace"] for r in replies.values()] == ["acme", "rival"]
                for l2 in (131072, 262144):
                    for _ in range(2):
                        status, body = await client.post(
                            "/v1/analyze",
                            {**REORDER, "app": "PR", "config": {"l2_bytes": l2}},
                        )
                        assert status == 200
                    replies[l2] = body
                assert replies[131072]["meta"]["source"] == "warm"
                assert replies[131072]["meta"]["artifact"] != replies[262144]["meta"]["artifact"]

            assert len(service._addresses) == 4
            paths = [path for _, _, _, path in service._addresses.values()]
            assert len(set(paths)) == 4
            stores = {store.directory for store, *_ in service._addresses.values()}
            assert len(stores) == 3  # two tenant namespaces and the shared root
        finally:
            await service.stop()

    asyncio.run(scenario())


def test_repeated_warm_reorder_hashes_the_mapping_once(tmp_path, monkeypatch):
    calls = []
    real = server_module.mapping_summary

    def counting(mapping):
        calls.append(mapping.shape)
        return real(mapping)

    async def scenario():
        service = boot(tmp_path)
        await service.start()
        monkeypatch.setattr(server_module, "mapping_summary", counting)
        try:
            async with ServeClient(service.host, service.port) as client:
                status, cold = await client.post("/v1/reorder", REORDER)
                assert (status, cold["meta"]["source"]) == (200, "cold")
                hits = service.store.stats.as_dict()["mapping"]["hits"]
                for _ in range(4):
                    status, warm = await client.post("/v1/reorder", REORDER)
                    assert (status, warm["meta"]["source"]) == (200, "warm")
                    assert warm["result"] == cold["result"]
                status, full = await client.post(
                    "/v1/reorder", {**REORDER, "include_mapping": True}
                )
                assert full["result"]["mapping_sha256"] == cold["result"]["mapping_sha256"]
                assert "mapping" in full["result"]
                status, again = await client.post("/v1/reorder", REORDER)
                assert "mapping" not in again["result"]  # the memo is never mutated
                # Every warm request still reads the store.
                assert service.store.stats.as_dict()["mapping"]["hits"] == hits + 6
            assert len(calls) == 1
        finally:
            await service.stop()

    asyncio.run(scenario())


def test_invalid_identities_are_a_400_and_never_memoised(tmp_path):
    async def scenario():
        service = boot(tmp_path, workers=1)
        await service.start()
        try:
            async with ServeClient(service.host, service.port) as client:
                for body in (
                    {"graph": 5, "technique": "DBG"},
                    {**REORDER, "degree_kind": ["out"]},
                    {**REORDER, "config": {"scale": [0.1]}},
                    {"graph": "uni", "technique": "Nope"},
                ):
                    status, reply = await client.post("/v1/reorder", body)
                    assert status == 400, (body, reply)
                assert await client.get("/healthz") == (200, {"status": "ok"})
            assert service._addresses == {}
        finally:
            await service.stop()

    asyncio.run(scenario())


def test_memos_stay_bounded_under_distinct_identities(tmp_path):
    service = boot(tmp_path)  # derivation needs no pool
    for i in range(10_000):
        identity = ("mapping", "acme", None, f"upload:{i:024x}", "DBG", None, None)
        service._address(identity)
        service._summary(tmp_path / f"mapping-{i}.pkl", np.arange(i % 7 + 1))
        assert len(service._addresses) <= MAX_ADDRESSES
        assert len(service._summaries) <= MAX_SUMMARIES
    # The newest entries are the ones kept.
    assert ("mapping", "acme", None, f"upload:{9_999:024x}", "DBG", None, None) in service._addresses
    assert tmp_path / "mapping-9999.pkl" in service._summaries


def test_warm_requests_do_not_grow_the_trace_buffer(tmp_path):
    requests = 5_000
    body = json.dumps(REORDER).encode()
    request = (
        b"POST /v1/reorder HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body
    )
    spans = []

    def count(event):
        if event["name"] == "serve.request":
            spans.append(event["tags"]["source"])

    async def scenario():
        service = boot(tmp_path, workers=1)
        await service.start()
        try:
            async with ServeClient(service.host, service.port) as client:
                status, _ = await client.post("/v1/reorder", REORDER)
                assert status == 200
            TRACER.reset()
            TRACER.subscribe(count)
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                writer.write(request * requests)  # pipelined
                for _ in range(requests):
                    status_line = await reader.readline()
                    assert status_line.startswith(b"HTTP/1.1 200 ")
                    length = 0
                    while (line := await reader.readline()) != b"\r\n":
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.split(b":")[1])
                    await reader.readexactly(length)
            finally:
                writer.close()
        finally:
            TRACER.unsubscribe(count)
            await service.stop()

    asyncio.run(scenario())
    assert spans == ["warm"] * requests  # every request was traced ...
    assert TRACER.buffered <= MAX_RETAINED_EVENTS  # ... and none piled up
