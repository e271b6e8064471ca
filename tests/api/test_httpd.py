"""HTTP/1.1 framing on both sides of the serving hop.

The server half (:class:`~repro.api.httpd.AsyncHttpServer`) is driven
with raw sockets, so each test controls the exact bytes on the wire.
The client half (:class:`~repro.api.httpd.ClientConnection`, used by
:class:`~repro.api.client.HttpTransport`) runs against that server, or
against a scripted socket server when the test needs a misbehaving
peer: one that closes an idle connection or cuts a body short.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.api.client import HttpTransport
from repro.api.httpd import AsyncHttpServer, ClientConnection, HttpResponse
from repro.api.protocol import QueryRequest, ReleaseRequest
from repro.errors import GatewayError

#: a reply large enough to need many socket writes and reads
BIG = bytes(range(256)) * (3 * 4096 + 7)  # ~3 MiB


class Handler:
    """Echoes the request; ``/big`` sends :data:`BIG`, ``/close``
    closes the connection, ``/block`` waits for :attr:`release`."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def handle(self, request):
        if request.path == "/block":
            self.entered.set()
            self.release.wait(10)
        if request.path == "/big":
            return HttpResponse(200, BIG,
                                content_type="application/octet-stream")
        return HttpResponse.json(200, {
            "ok": True, "epoch": 1,
            "rows": [{"method": request.method, "path": request.path,
                      "body": request.body.decode("utf-8"),
                      "session": request.headers.get("x-repro-session")}],
        }, close=request.path == "/close")


@pytest.fixture()
def handler():
    return Handler()


@pytest.fixture()
def server(handler):
    srv = AsyncHttpServer(handler, workers=2, max_body_bytes=1024)
    srv.start()
    yield srv
    handler.release.set()
    srv.stop()


def _raw(server) -> socket.socket:
    return socket.create_connection((server.host, server.port), timeout=5)


def _read_until_eof(sock: socket.socket) -> bytes:
    data = bytearray()
    while chunk := sock.recv(65536):
        data += chunk
    return bytes(data)


def _split_replies(data: bytes) -> list[tuple[int, dict, bytes]]:
    """Every complete reply in *data*, in order."""
    replies = []
    while data:
        end = data.index(b"\r\n\r\n")
        lines = data[:end].decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        body = data[end + 4:end + 4 + length]
        replies.append((int(lines[0].split()[1]), headers, body))
        data = data[end + 4 + length:]
    return replies


def _post(path: str, body: bytes, extra: str = "") -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: t\r\n{extra}"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


# ---------------------------------------------------------------------------
# The server's framing
# ---------------------------------------------------------------------------


class TestServerFraming:
    def test_expect_100_continue_is_acknowledged_before_the_body(
            self, server):
        with _raw(server) as sock:
            sock.sendall(b"POST /echo HTTP/1.1\r\nHost: t\r\n"
                         b"Expect: 100-continue\r\n"
                         b"Content-Length: 5\r\n\r\n")
            interim = sock.recv(64)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(b"hello")
            sock.sendall(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n")
            (status, _, body), _ = _split_replies(_read_until_eof(sock))
        assert status == 200
        assert json.loads(body)["rows"][0]["body"] == "hello"

    def test_malformed_request_line_is_400_then_closed(self, server):
        with _raw(server) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            replies = _split_replies(_read_until_eof(sock))
        assert len(replies) == 1
        status, headers, body = replies[0]
        assert status == 400 and headers["connection"] == "close"
        assert json.loads(body)["error"]["code"] == "malformed_request"

    def test_body_over_the_limit_is_400(self, server):
        with _raw(server) as sock:
            sock.sendall(_post("/echo", b"x" * 2048))
            [(status, headers, body)] = _split_replies(
                _read_until_eof(sock))
        assert status == 400 and headers["connection"] == "close"
        assert "exceeds 1024 bytes" in \
            json.loads(body)["error"]["message"]

    def test_pipelined_requests_are_answered_in_order(self, server):
        with _raw(server) as sock:
            sock.sendall(_post("/first", b"1") + _post(
                "/second", b"2", "Connection: close\r\n"))
            replies = _split_replies(_read_until_eof(sock))
        paths = [json.loads(body)["rows"][0]["path"]
                 for _, _, body in replies]
        assert paths == ["/first", "/second"]
        assert [headers["connection"] for _, headers, _ in replies] \
            == ["keep-alive", "close"]

    def test_http_10_request_closes_the_connection(self, server):
        with _raw(server) as sock:
            sock.sendall(b"GET /old HTTP/1.0\r\n\r\n")
            [(status, headers, _)] = _split_replies(_read_until_eof(sock))
        assert status == 200 and headers["connection"] == "close"

    def test_full_admission_queue_sheds_429(self, handler):
        srv = AsyncHttpServer(handler, workers=1, queue_capacity=1)
        srv.start()
        try:
            first, second, third = _raw(srv), _raw(srv), _raw(srv)
            first.sendall(b"GET /block HTTP/1.1\r\n\r\n")
            assert handler.entered.wait(5)  # the one worker is busy
            second.sendall(b"GET /queued HTTP/1.1\r\n\r\n")
            deadline = time.monotonic() + 5
            while srv._queue.qsize() < 1:  # parked behind the worker
                assert time.monotonic() < deadline
                time.sleep(0.005)
            third.sendall(b"GET /shed HTTP/1.1\r\nConnection: close"
                          b"\r\n\r\n")
            [(status, _, body)] = _split_replies(_read_until_eof(third))
            assert status == 429
            assert json.loads(body)["error"]["code"] == "overloaded"
            assert srv.shed_requests == 1
            handler.release.set()
            # the one slot frees once the worker takes /queued; an /end
            # sent before that would be shed, rightly
            deadline = time.monotonic() + 5
            while srv._queue.qsize() > 0:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            for sock, path in ((first, "/block"), (second, "/queued")):
                sock.sendall(b"GET /end HTTP/1.1\r\nConnection: close"
                             b"\r\n\r\n")
                replies = _split_replies(_read_until_eof(sock))
                assert [s for s, _, _ in replies] == [200, 200]
                assert json.loads(replies[0][2])["rows"][0]["path"] \
                    == path
            for sock in (first, second, third):
                sock.close()
        finally:
            handler.release.set()
            srv.stop()

    def test_multi_mib_reply_arrives_intact(self, server):
        with _raw(server) as sock:
            sock.sendall(b"GET /big HTTP/1.1\r\nConnection: close\r\n\r\n")
            [(status, headers, body)] = _split_replies(
                _read_until_eof(sock))
        assert status == 200 and int(headers["content-length"]) == len(BIG)
        assert body == BIG


# ---------------------------------------------------------------------------
# The client's framing
# ---------------------------------------------------------------------------


class SendSpy:
    """A socket stand-in that counts ``sendall`` calls."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.sent: list[bytes] = []

    def sendall(self, data: bytes) -> None:
        self.sent.append(bytes(data))
        self._sock.sendall(data)

    def __getattr__(self, name: str):
        return getattr(self._sock, name)


class ScriptedServer:
    """A blocking socket server that answers each connection's first
    request with ``script(index)`` and then closes that connection, so
    a client that keeps it sees an idle keep-alive close."""

    def __init__(self, script) -> None:
        self.script = script
        self.requests: list[bytes] = []
        self.closed = threading.Event()
        self._stopping = False
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stopping:
            conn, _ = self._listener.accept()
            with conn:
                data = bytearray()
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                head, _, body = bytes(data).partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                while len(body) < length:
                    body += conn.recv(65536)
                if not head:
                    continue
                self.requests.append(head.split(b"\r\n")[0])
                conn.sendall(self.script(len(self.requests) - 1))
            self.closed.set()

    def close(self) -> None:
        self._stopping = True
        socket.create_connection(("127.0.0.1", self.port)).close()
        self._thread.join(5)
        self._listener.close()


def _reply(payload: dict, *, length: int | None = None) -> bytes:
    body = json.dumps(payload).encode()
    declared = len(body) if length is None else length
    return (f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {declared}\r\nConnection: keep-alive"
            f"\r\n\r\n").encode() + body


OK = {"ok": True, "epoch": 3, "rows": [{"n": 1}]}


class TestClientFraming:
    def test_one_sendall_per_request(self, server):
        conn = ClientConnection(server.host, server.port, timeout=5)
        conn.connect()
        spy = conn.sock = SendSpy(conn.sock)
        for index in range(3):
            status, body, keep = conn.request(
                "POST", "/echo", b'{"i": %d}' % index,
                {"Content-Type": "application/json"})
            assert status == 200 and keep
        assert len(spy.sent) == 3
        assert all(message.endswith(b'}') for message in spy.sent)
        assert json.loads(body)["rows"][0]["body"] == '{"i": 2}'
        conn.close()

    def test_transport_sends_each_request_in_one_write(self, server):
        transport = HttpTransport(
            f"http://{server.host}:{server.port}", session_id="s-spy")
        transport.query(QueryRequest(query="q"))  # opens the connection
        spy = transport._conn.sock = SendSpy(transport._conn.sock)
        response = transport.query(QueryRequest(query="q"))
        assert response.ok and response.rows[0]["session"] == "s-spy"
        [message] = spy.sent
        head, _, body = message.partition(b"\r\n\r\n")
        assert head.startswith(b"POST /v1/query HTTP/1.1\r\n")
        assert b"\r\nX-Repro-Session: s-spy" in head
        assert b"\r\nContent-Length: %d" % len(body) in head
        assert json.loads(body)["query"] == "q"
        transport.close()

    def test_connection_close_reply_reconnects(self, server):
        transport = HttpTransport(f"http://{server.host}:{server.port}")
        assert transport._exchange("/close", None)["ok"]
        assert transport._conn is None  # the reply closed it
        assert transport._exchange("/open", None)["ok"]
        kept = transport._conn
        assert kept is not None and kept.sock is not None
        assert transport._exchange("/open", None)["ok"]
        assert transport._conn is kept
        transport.close()

    def test_idle_close_retries_a_query_but_not_a_release(self):
        scripted = ScriptedServer(lambda index: _reply(OK))
        try:
            transport = HttpTransport(scripted.url, retries=2,
                                      backoff=0.001)
            assert transport.query(QueryRequest(query="q")).ok
            assert scripted.closed.wait(5)  # the server hung up idle
            scripted.closed.clear()
            assert transport.query(QueryRequest(query="q")).ok
            assert len(scripted.requests) == 2  # retried once
            assert scripted.closed.wait(5)
            with pytest.raises(GatewayError):
                transport.release(ReleaseRequest(source="s"))
            assert len(scripted.requests) == 2  # never replayed
            transport.close()
        finally:
            scripted.close()

    def test_truncated_body_is_a_gateway_error(self):
        scripted = ScriptedServer(
            lambda index: _reply(OK, length=4096))
        try:
            transport = HttpTransport(scripted.url, retries=0)
            with pytest.raises(GatewayError, match="ended after"):
                transport.query(QueryRequest(query="q"))
            assert transport._conn is None
        finally:
            scripted.close()

    def test_bad_status_line_is_a_connection_error(self):
        scripted = ScriptedServer(lambda index: b"SPDY/3 200\r\n\r\n")
        try:
            conn = ClientConnection("127.0.0.1", scripted.port,
                                    timeout=5)
            with pytest.raises(ConnectionError, match="bad status line"):
                conn.request("GET", "/", None, {})
            assert conn.sock is None
        finally:
            scripted.close()

    def test_multi_mib_body_is_read_whole(self, server):
        conn = ClientConnection(server.host, server.port, timeout=5)
        status, body, keep = conn.request("GET", "/big")
        assert status == 200 and keep and body == BIG
        conn.close()

    def test_session_id_with_a_line_break_is_rejected(self):
        with pytest.raises(ValueError):
            HttpTransport("http://127.0.0.1:1", session_id="s\r\nX: y")
