"""Minimal asyncio HTTP/1.1 layer for the reordering service.

Deliberately thin: the repo's dependency policy is stdlib + numpy/scipy,
so instead of a web framework this module implements exactly the subset
the service needs — request-line + header parsing, ``Content-Length``
bodies, keep-alive connections, JSON in / JSON out — as one
:class:`asyncio.Protocol` the server hands to ``loop.create_server``.

Design points:

* :class:`Connection` is the protocol and owns its read buffer: the
  transport appends bytes as they arrive, so a request already buffered
  (pipelined, or read with the previous one) parses without waiting, and
  bytes that arrive while a handler awaits a long computation stay
  buffered for the next parse.
* One waiter future, resolved by the next bytes, EOF, loss of the
  connection or the deadline, serves both :meth:`Connection.read_request`
  and :meth:`Connection.wait_disconnect`; no read creates a task.
* One deadline covers a whole request, head and body.  The connection
  keeps one timer and re-arms it lazily: a request only moves a float
  forward, and the timer, when it fires early, re-arms itself at the
  current deadline.
* Framing is strict where HTTP/1.1 leaves room for two readings:
  conflicting ``Content-Length`` headers are a 400, and any
  ``Transfer-Encoding`` is a 501 that closes the connection, so a
  chunked body is never parsed as the next request.
* :meth:`Connection.wait_disconnect` is how the serving layer notices a
  client abandoning an in-flight request — the coalescing scheduler uses
  it to drop waiters (and cancel still-queued jobs) instead of computing
  for nobody.
"""

from __future__ import annotations

import asyncio
import json

__all__ = ["HttpError", "Request", "Connection", "encode_response"]

#: Hard caps keeping one client from ballooning server memory.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 256 * 1024 * 1024
#: Buffered bytes beyond which a connection nobody is reading from stops
#: reading from its socket until a parse needs more.
READ_HIGH_WATER = 256 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Maps straight to an HTTP error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(
        self, method: str, target: str, headers: dict[str, str], body: bytes
    ) -> None:
        self.method = method
        self.path, _, self.query = target.partition("?")
        self.headers = headers
        self.body = body

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "JSON body must be an object")
        return payload

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


def encode_response(
    status: int, payload: dict | bytes, keep_alive: bool = True, default=None
) -> bytes:
    """Serialize one JSON (or raw) response with Content-Length framing."""
    if isinstance(payload, bytes):
        body = payload
        ctype = "application/octet-stream"
    else:
        body = json.dumps(payload, default=default).encode()
        ctype = "application/json"
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode() + body


class Connection(asyncio.Protocol):
    """One client connection: the protocol, its read buffer and deadline.

    ``handler(connection)`` is the coroutine that serves the connection;
    it starts when the transport connects.  A connection made without a
    handler is driven by whoever feeds its protocol callbacks.
    """

    def __init__(self, handler=None) -> None:
        self._handler = handler
        self._task: asyncio.Task | None = None  # the loop holds tasks weakly
        self._loop: asyncio.AbstractEventLoop | None = None
        self.transport: asyncio.Transport | None = None
        self._buf = bytearray()
        self._eof = False  # the peer closed its side, or the connection is gone
        self._lost = False  # the connection is gone: nothing more can be sent
        self._waiter: asyncio.Future | None = None
        self._reading_paused = False
        self._drain: asyncio.Future | None = None
        self._deadline: float | None = None  # loop time the request must be read by
        self._timer: asyncio.TimerHandle | None = None
        self._timed_out = False

    # -- protocol callbacks --------------------------------------------------
    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._loop = asyncio.get_running_loop()
        if self._handler is not None:
            self._task = self._loop.create_task(self._handler(self))

    def data_received(self, data: bytes) -> None:
        self._buf += data
        if len(self._buf) > READ_HIGH_WATER and not self._reading_paused:
            # Stop reading until a parse needs more, so a client cannot
            # grow the buffer at will (not even while its job runs).
            self._reading_paused = True
            self.transport.pause_reading()
        self._wake()

    def eof_received(self) -> bool:
        self._eof = True
        self._wake()
        return True  # keep the write side open for the reply

    def connection_lost(self, exc: Exception | None) -> None:
        self._eof = self._lost = True
        self._wake()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._drain is not None and not self._drain.done():
            self._drain.set_result(None)

    def pause_writing(self) -> None:
        self._drain = self._loop.create_future()

    def resume_writing(self) -> None:
        if self._drain is not None and not self._drain.done():
            self._drain.set_result(None)
        self._drain = None

    # -- waiting -------------------------------------------------------------
    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _wait(self, resume: bool = True) -> asyncio.Future:
        """The future the next bytes, EOF, loss or deadline resolves.

        ``resume`` restarts reading paused at :data:`READ_HIGH_WATER`:
        a parse needs more bytes, a disconnect watcher does not.
        """
        if resume and self._reading_paused:
            self._reading_paused = False
            self.transport.resume_reading()
        waiter = self._waiter
        if waiter is None or waiter.done():
            # Done includes cancelled: a disconnect watcher cancelled
            # while parked on the waiter cancels the future with it.
            waiter = self._waiter = self._loop.create_future()
        return waiter

    def _set_deadline(self, timeout: float) -> None:
        self._timed_out = False
        deadline = self._deadline = self._loop.time() + timeout
        timer = self._timer
        if timer is None or timer.when() > deadline:
            if timer is not None:
                timer.cancel()
            self._timer = self._loop.call_at(deadline, self._on_deadline)

    def _on_deadline(self) -> None:
        armed, self._timer = self._timer.when(), None
        deadline = self._deadline
        if deadline is None:
            return  # no request is being read: disarm until the next one
        if deadline > armed:
            self._timer = self._loop.call_at(deadline, self._on_deadline)
        else:
            self._timed_out = True
            self._wake()

    async def wait_disconnect(self) -> None:
        """Return once the peer has closed its side or the connection is gone.

        Bytes that arrive meanwhile stay in the buffer for the next
        request parse, so watching for disconnect never corrupts the
        protocol stream.  Past :data:`READ_HIGH_WATER` buffered bytes
        reading stays paused, and a disconnect shows at the next parse.
        """
        while not self._eof:
            await self._wait(resume=False)

    # -- requests ------------------------------------------------------------
    async def read_request(self, timeout: float | None = None) -> Request | None:
        """Parse the next request; ``None`` on a closed or idle connection.

        ``timeout`` bounds the whole request, head and body: a connection
        idle that long closes without a reply (``None``), and one that
        stalls mid-request gets a 408.
        """
        if timeout is None:
            self._timed_out = False
        else:
            self._set_deadline(timeout)
        buf = self._buf
        try:
            scan = 0
            while (end := buf.find(b"\r\n\r\n", scan)) < 0:
                # The head ends at least 3 bytes before the buffer does.
                if len(buf) - 3 > MAX_HEADER_BYTES:
                    raise HttpError(400, "request headers too large")
                if self._eof:
                    if buf:
                        raise HttpError(400, "connection closed mid-request")
                    return None
                if self._timed_out:
                    if buf:
                        raise HttpError(408, "timed out mid-request")
                    return None  # idle keep-alive connection: just close
                scan = max(0, len(buf) - 3)
                await self._wait()
            if end > MAX_HEADER_BYTES:
                raise HttpError(400, "request headers too large")
            lines = buf[:end].decode("latin-1").split("\r\n")
            del buf[: end + 4]
            parts = lines[0].split()
            if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
                raise HttpError(400, f"malformed request line {lines[0]!r}")
            method, target, _ = parts
            headers: dict[str, str] = {}
            for line in lines[1:]:
                name, sep, value = line.partition(":")
                if not sep or not name or name != name.strip():
                    # Whitespace around a name is also how a folded line
                    # would smuggle in a header: reject, never guess.
                    raise HttpError(400, f"malformed header line {line!r}")
                name = name.lower()
                value = value.strip()
                if name == "content-length" and headers.get(name, value) != value:
                    raise HttpError(400, "conflicting Content-Length headers")
                headers[name] = value
            if "transfer-encoding" in headers:
                raise HttpError(501, "Transfer-Encoding is not supported")
            length = headers.get("content-length", "0")
            if not (length.isascii() and length.isdigit()):
                raise HttpError(400, f"bad Content-Length {length!r}")
            body_len = int(length)
            if body_len > MAX_BODY_BYTES:
                raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            while len(buf) < body_len:
                if self._eof:
                    raise HttpError(400, "connection closed mid-body")
                if self._timed_out:
                    raise HttpError(408, "timed out mid-body")
                await self._wait()
            body = bytes(buf[:body_len])
            del buf[:body_len]
            return Request(method, target, headers, body)
        finally:
            self._deadline = None

    # -- replies -------------------------------------------------------------
    async def send(self, data: bytes) -> None:
        if self._lost:
            raise ConnectionResetError("connection lost")
        self.transport.write(data)
        if self._drain is not None:  # the transport's write buffer is full
            await self._drain
            if self._lost:
                raise ConnectionResetError("connection lost")

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()
