"""HTTP/1.1 framing under arbitrary byte splits, malformed input and EOF.

:class:`~repro.serve.http.Connection` is an :class:`asyncio.Protocol`, so
these tests feed its callbacks directly — no sockets.  A feeder task
delivers the stream in chunks cut at hypothesis-chosen offsets, yielding
to the loop between chunks and, like a real transport, delivering
nothing while the connection has paused reading.  Whatever the cuts, a
stream must parse to the same requests; anything malformed must end in
a 4xx (or the 501 of an unsupported ``Transfer-Encoding``) or a clean
close, never another exception and never a hang.  One live-server case
checks that hostile connections leave ``/healthz`` answering.
"""

from __future__ import annotations

import asyncio

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.serve.client import ServeClient
from repro.serve.http import MAX_HEADER_BYTES, READ_HIGH_WATER, Connection, HttpError

from tests.serve.test_http import boot


class FakeTransport:
    """The slice of :class:`asyncio.Transport` a connection uses."""

    def __init__(self) -> None:
        self.paused = False
        self.closed = False
        self.written = bytearray()

    def pause_reading(self) -> None:
        self.paused = True

    def resume_reading(self) -> None:
        self.paused = False

    def write(self, data: bytes) -> None:
        self.written += data

    def close(self) -> None:
        self.closed = True


def chunks_of(data: bytes, cuts: list[int]) -> list[bytes]:
    bounds = [0, *sorted({c % (len(data) + 1) for c in cuts}), len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


async def parse(chunks: list[bytes], eof: bool = True, limit: int = 1000) -> list:
    """Every outcome of reading ``chunks``: requests, then ``None`` (a
    clean close) or the :class:`HttpError` that ended the connection."""
    conn = Connection()
    transport = FakeTransport()
    conn.connection_made(transport)

    async def feed() -> None:
        for chunk in chunks:
            while transport.paused:
                await asyncio.sleep(0)
            conn.data_received(chunk)
            await asyncio.sleep(0)
        if eof:
            conn.eof_received()

    feeder = asyncio.ensure_future(feed())
    outcomes: list = []
    try:
        for _ in range(limit):
            try:
                request = await asyncio.wait_for(conn.read_request(), 5)
            except HttpError as exc:
                outcomes.append(exc)
                break
            outcomes.append(request)
            if request is None:
                break
    finally:
        feeder.cancel()
    return outcomes


def run(chunks: list[bytes], eof: bool = True) -> list:
    return asyncio.run(parse(chunks, eof))


def as_tuple(request) -> tuple:
    return (request.method, request.path, request.query, request.headers, request.body)


def ends_cleanly(outcomes: list) -> bool:
    last = outcomes[-1]
    if last is None:
        return True
    return isinstance(last, HttpError) and (400 <= last.status < 500 or last.status == 501)


# -- strategies ---------------------------------------------------------------

tokens = st.text("abcdefghijklmnopqrstuvwxyz0123456789-_.", min_size=1, max_size=12)
header_names = tokens.filter(
    lambda n: n not in ("content-length", "transfer-encoding")
)
header_values = st.text(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 =;,/", max_size=20
).map(str.strip)


@st.composite
def requests(draw) -> tuple[bytes, tuple]:
    """One well-formed request: its bytes and the ``Request`` it parses to."""
    method = draw(st.sampled_from(["GET", "POST", "PUT", "DELETE"]))
    path = "/" + "/".join(draw(st.lists(tokens, max_size=3)))
    query = draw(st.one_of(st.just(""), tokens.map(lambda t: "k=" + t)))
    target = path + ("?" + query if query else "")
    headers = draw(st.dictionaries(header_names, header_values, max_size=4))
    body = draw(st.binary(max_size=64))
    if body or draw(st.booleans()):
        headers["content-length"] = str(len(body))
    head = f"{method} {target} HTTP/1.1\r\n" + "".join(
        f"{name.title()}: {value}\r\n" for name, value in headers.items()
    )
    data = head.encode("latin-1") + b"\r\n" + body
    return data, (method, path, query, headers, body)


cuts = st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=12)


# -- properties ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(requests(), min_size=1, max_size=5), cuts, st.booleans())
def test_pipelined_requests_parse_identically_under_any_split(reqs, cut, eof):
    stream = b"".join(data for data, _ in reqs)
    expected = [want for _, want in reqs]
    outcomes = asyncio.run(parse(chunks_of(stream, cut), eof, limit=len(reqs) + eof))
    assert [as_tuple(r) for r in outcomes[: len(reqs)]] == expected
    if eof:
        assert outcomes[len(reqs):] == [None]


request_lines = st.one_of(
    st.text(max_size=40).filter(lambda s: "\r\n" not in s),
    st.builds(
        lambda m, t, v: f"{m} {t} {v}",
        tokens, tokens, st.sampled_from(["HTTP/2.0", "HTTP/x", "http/1.1", "FTP/1.0"]),
    ),
    st.builds(lambda m: f"{m} /", tokens),
    st.builds(lambda m, t: f"{m} {t} HTTP/1.1 extra", tokens, tokens),
)


@settings(max_examples=60, deadline=None)
@given(request_lines, cuts)
def test_malformed_request_line_is_a_400(line, cut):
    raw = line.encode("utf-8")
    parts = raw.decode("latin-1").split()
    assume(not (len(parts) == 3 and parts[2].startswith("HTTP/1.")))
    outcomes = run(chunks_of(raw + b"\r\nHost: x\r\n\r\n", cut))
    (error,) = outcomes
    assert isinstance(error, HttpError) and error.status == 400


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=300), cuts)
def test_arbitrary_bytes_end_in_a_4xx_or_a_clean_close(data, cut):
    outcomes = run(chunks_of(data, cut))
    for outcome in outcomes[:-1]:
        assert outcome is not None and not isinstance(outcome, HttpError)
    assert ends_cleanly(outcomes)


def head_of_length(n: int) -> bytes:
    """A request head of exactly ``n`` bytes before its blank line."""
    start = b"GET /healthz HTTP/1.1\r\nX-Pad: "
    return start + b"p" * (n - len(start))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=-4, max_value=4), cuts)
def test_header_limit_is_exact_under_any_split(offset, cut):
    n = MAX_HEADER_BYTES + offset
    data = head_of_length(n) + b"\r\n\r\n"
    outcomes = run(chunks_of(data, cut))
    if n <= MAX_HEADER_BYTES:
        assert outcomes[0].path == "/healthz"
        assert outcomes[1:] == [None]
    else:
        (error,) = outcomes
        assert (error.status, error.message) == (400, "request headers too large")


@settings(max_examples=10, deadline=None)
@given(cuts)
def test_endless_head_is_refused_once_it_passes_the_limit(cut):
    data = head_of_length(MAX_HEADER_BYTES + 4)
    (error,) = run(chunks_of(data, cut), eof=False)
    assert (error.status, error.message) == (400, "request headers too large")


@settings(max_examples=40, deadline=None)
@given(requests(), st.integers(min_value=1, max_value=1 << 20), cuts)
def test_half_close_mid_request_is_a_400_after_complete_requests(req, keep, cut):
    data, want = req
    partial = data[: keep % len(data)] or data[:1]
    outcomes = run(chunks_of(data + partial, cut))
    assert as_tuple(outcomes[0]) == want
    (error,) = outcomes[1:]
    assert error.status == 400
    assert error.message in ("connection closed mid-request", "connection closed mid-body")


def test_repeated_content_length_must_agree():
    same = b"POST /v1/x HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nok"
    (request, end) = run([same])
    assert (request.body, end) == (b"ok", None)
    conflicting = b"POST /v1/x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 12\r\n\r\nok"
    (error,) = run([conflicting])
    assert (error.status, error.message) == (400, "conflicting Content-Length headers")


def test_content_length_must_be_plain_digits():
    for length in (b"-1", b"+2", b"1_0", b"2, 2", b"0x2", b"\xb2"):
        (error,) = run([b"POST /v1/x HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\nok"])
        assert error.status == 400, length


def test_transfer_encoding_is_refused_not_misread():
    chunked = (
        b"POST /v1/x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"1c\r\nGET /smuggled HTTP/1.1\r\n\r\n\r\n0\r\n\r\n"
    )
    (error,) = run([chunked])
    assert error.status == 501


def test_whitespace_before_a_header_colon_is_refused():
    for line in (b"Content-Length : 2", b" Content-Length: 2", b"\tX: y", b": y"):
        (error,) = run([b"POST /v1/x HTTP/1.1\r\n" + line + b"\r\n\r\nok"])
        assert error.status == 400, line


def test_reading_pauses_while_nobody_reads():
    async def scenario():
        conn = Connection()
        transport = FakeTransport()
        conn.connection_made(transport)
        body_len = 2 * READ_HIGH_WATER
        conn.data_received(b"POST /up HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % body_len)
        conn.data_received(b"a" * READ_HIGH_WATER)
        assert transport.paused  # nobody is reading: stop pulling bytes
        reading = asyncio.ensure_future(conn.read_request())
        await asyncio.sleep(0)
        assert not transport.paused  # the parse needs the rest of the body
        conn.data_received(b"a" * READ_HIGH_WATER)
        request = await reading
        assert request.body == b"a" * body_len

        # A disconnect watcher does not restart reading: a client cannot
        # grow the buffer while its job runs either.
        conn.data_received(b"GET / HTTP/1.1\r\n\r\n" + b"x" * READ_HIGH_WATER)
        assert transport.paused
        watch = asyncio.ensure_future(conn.wait_disconnect())
        await asyncio.sleep(0)
        assert transport.paused and not watch.done()
        watch.cancel()
        request = await conn.read_request()
        assert request.path == "/"

    asyncio.run(scenario())


def test_hostile_connections_leave_healthz_answering(tmp_path):
    hostile = [
        (b"BREW /pot HTCPCP/1.0\r\n\r\n", 400),
        (b"POST /v1/reorder HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc", 400),
        (b"POST /v1/reorder HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 501),
        (b"POST /v1/reorder HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 400),  # half-close
        (b"GET /healthz HTTP/1.1\r\n", 400),  # half-close mid-head
    ]

    async def exchange(port: int, data: bytes) -> bytes:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(data)
            writer.write_eof()
            return await asyncio.wait_for(reader.read(), 10)
        finally:
            writer.close()

    async def scenario():
        service = boot(tmp_path, workers=1)
        await service.start()
        try:
            replies = await asyncio.gather(
                *(exchange(service.port, data) for data, _ in hostile)
            )
            for (data, status), reply in zip(hostile, replies):
                assert reply.startswith(f"HTTP/1.1 {status} ".encode()), (data[:40], reply)
                assert b"Connection: close" in reply
            # A request followed by a half-close still gets its reply.
            reply = await exchange(service.port, b"GET /healthz HTTP/1.1\r\n\r\n")
            assert reply.startswith(b"HTTP/1.1 200 ")
            async with ServeClient(service.host, service.port) as client:
                assert await client.get("/healthz") == (200, {"status": "ok"})
        finally:
            await service.stop()

    asyncio.run(scenario())
