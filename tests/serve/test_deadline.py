"""One deadline covers a whole request: idle, mid-head and mid-body stalls.

Each test boots a service with a short ``idle_timeout`` and stalls a raw
connection at one point of a request.  An idle keep-alive connection
closes without a reply; a connection that stops partway through a
request's head or body gets a 408 and is closed.
"""

from __future__ import annotations

import asyncio
import time

from tests.serve.test_http import boot

IDLE_TIMEOUT = 0.3


def stall(tmp_path, data: bytes) -> tuple[bytes, float]:
    """Everything the server sends after ``data`` until it closes, and
    how long the close took."""

    async def scenario():
        service = boot(tmp_path, workers=1, idle_timeout=IDLE_TIMEOUT)
        await service.start()
        try:
            start = time.monotonic()  # no later than the server's deadline starts
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                writer.write(data)
                reply = await asyncio.wait_for(reader.read(), 10 * IDLE_TIMEOUT)
                return reply, time.monotonic() - start
            finally:
                writer.close()
        finally:
            await service.stop()

    return asyncio.run(scenario())


def test_idle_keep_alive_connection_closes_without_a_reply(tmp_path):
    reply, elapsed = stall(tmp_path, b"GET /healthz HTTP/1.1\r\n\r\n")
    # The one request is answered and kept alive; then the idle
    # connection is closed with nothing more sent.
    assert reply.startswith(b"HTTP/1.1 200 ")
    assert reply.count(b"HTTP/1.1") == 1
    assert b"Connection: keep-alive" in reply
    assert elapsed >= IDLE_TIMEOUT


def test_stall_mid_headers_gets_408(tmp_path):
    reply, elapsed = stall(tmp_path, b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
    assert reply.startswith(b"HTTP/1.1 408 ")
    assert b"Connection: close" in reply
    assert elapsed >= IDLE_TIMEOUT


def test_stall_mid_body_gets_408(tmp_path):
    reply, elapsed = stall(
        tmp_path,
        b"POST /v1/reorder HTTP/1.1\r\nContent-Length: 50\r\n\r\n"
        b'{"graph": "uni"',
    )
    assert reply.startswith(b"HTTP/1.1 408 ")
    assert b"timed out mid-body" in reply
    assert elapsed >= IDLE_TIMEOUT
