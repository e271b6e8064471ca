"""A selectors-based HTTP/1.1 server for the governed surface.

:class:`AsyncHttpServer` replaces the stdlib ``ThreadingHTTPServer``
front tier: one event-loop thread multiplexes every connection through
a :mod:`selectors` selector (so hundreds of idle or slow clients cost
file descriptors, not threads), and a small fixed worker pool executes
the actual request handlers (which may block on the epoch lock or on
upstream backends). Between the two sits the **admission queue**: a
bounded hand-off from the loop to the workers. When it overflows, the
request is shed immediately with a canned ``429 overloaded`` envelope
— the server degrades by rejecting cheaply, never by stalling every
accepted connection behind an unbounded backlog.

The server is protocol-aware just enough to be useful to the gateway
and the fleet router and no more:

* requests are parsed into :class:`HttpRequest` (method, split target,
  lower-cased headers, complete body);
* HTTP/1.1 keep-alive is honored (``Connection: close`` and HTTP/1.0
  opt out), with exact ``Content-Length`` on every reply;
* ``Expect: 100-continue`` is acknowledged as soon as the header block
  arrives, so curl-style clients never stall before sending a body;
* malformed framing and oversized headers/bodies are answered with the
  protocol's standard error envelope and the connection is closed.

Handlers implement one method, ``handle(request) -> HttpResponse``;
everything else (framing, scheduling, shedding) is the server's.

The client half of the same framing is :class:`ClientConnection`: one
keep-alive HTTP/1.1 connection that writes each request (request line,
headers and body) with a single ``sendall`` and reads the reply with a
minimal status-line and header parser. The protocol client
(:class:`~repro.api.client.HttpTransport`) and the fleet router's
backend pool (:class:`~repro.fleet.balancer.Backend`) both use it, so
no request on the serving hop goes through the stdlib HTTP client.
"""

from __future__ import annotations

import collections
import json
import queue
import selectors
import socket
import ssl
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["AsyncHttpServer", "ClientConnection", "EncodedJSON",
           "HttpRequest", "HttpResponse", "error_payload"]

#: request bodies above this are rejected (a malformed-client guard,
#: not a security boundary — the server is an internal service door)
MAX_BODY_BYTES = 8 * 1024 * 1024

#: a header block larger than this is not a sane protocol client
MAX_HEADER_BYTES = 64 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 403: "Forbidden", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 410: "Gone",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable",
}


def error_payload(code: str, message: str,
                  kind: str = "ProtocolError", *,
                  retryable: bool = False) -> dict[str, Any]:
    """The standard wire error envelope (same shape every route uses)."""
    return {
        "ok": False,
        "error": {"code": code, "kind": kind, "message": message,
                  "retryable": retryable, "details": None},
    }


class EncodedJSON:
    """A JSON value encoded ahead of time, or on demand.

    :meth:`HttpResponse.json` splices it verbatim where it sits as a
    top-level payload value. *text* is the bytes, or a zero-argument
    callable that returns them when the body is built, so the encoding
    runs inside :meth:`HttpResponse.json`. The bytes must equal
    ``json.dumps(value, sort_keys=True).encode("utf-8")``, so the body
    is byte-identical to encoding the value in place.
    """

    __slots__ = ("_text",)

    def __init__(self, text: "bytes | Callable[[], bytes]") -> None:
        self._text = text

    @property
    def text(self) -> bytes:
        text = self._text
        return text if isinstance(text, bytes) else text()


def _encode_json(payload: Any) -> bytes:
    """``json.dumps(payload, sort_keys=True)`` as UTF-8 bytes, with any
    top-level :class:`EncodedJSON` value spliced in as it is."""
    if not isinstance(payload, dict) or not any(
            isinstance(value, EncodedJSON) for value in payload.values()):
        return json.dumps(payload, sort_keys=True).encode("utf-8")
    # Encode each run of plain keys in one call without its braces, and
    # copy the spliced bytes once, into the joined body.
    pieces: list[bytes] = [b"{"]
    plain: dict[str, Any] = {}
    for key in sorted(payload):
        value = payload[key]
        if not isinstance(value, EncodedJSON):
            plain[key] = value
            continue
        if plain:
            pieces += [json.dumps(plain, sort_keys=True)
                       .encode("utf-8")[1:-1], b", "]
            plain = {}
        pieces += [json.dumps(key).encode("utf-8"), b": ", value.text,
                   b", "]
    if plain:
        pieces.append(json.dumps(plain, sort_keys=True)
                      .encode("utf-8")[1:-1])
    else:
        pieces.pop()  # the separator after the last spliced value
    pieces.append(b"}")
    return b"".join(pieces)


@dataclass
class HttpRequest:
    """One parsed request, body fully buffered."""

    method: str
    path: str
    query: str
    headers: dict[str, str]
    body: bytes
    #: None when the client sent no Content-Length header
    content_length: int | None
    keep_alive: bool


@dataclass
class HttpResponse:
    """One reply; the server adds framing (status line, lengths)."""

    status: int
    body: bytes
    content_type: str = "application/json"
    #: force-close the connection after this reply
    close: bool = False

    @classmethod
    def json(cls, status: int, payload: Any, *,
             close: bool = False) -> "HttpResponse":
        """A JSON reply; every JSON body is built here (see
        :func:`_encode_json`)."""
        return cls(status=status, body=_encode_json(payload), close=close)


class _Malformed(Exception):  # repro-lint: disable=error-taxonomy -- internal framing sentinel: caught inside this module and turned into a canned 400 reply; it never crosses the protocol surface as a typed error
    """Framing failure; carries the canned reply and closes the conn."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.response = HttpResponse.json(
            400, error_payload("malformed_request", message), close=True)


@dataclass
class _Connection:
    sock: socket.socket
    addr: Any
    inbuf: bytearray = field(default_factory=bytearray)
    outbuf: bytearray = field(default_factory=bytearray)
    #: a request has been handed off and its reply is still pending
    busy: bool = False
    closed: bool = False
    close_after: bool = False
    #: 100-continue already acknowledged for the in-flight header block
    continued: bool = False


class AsyncHttpServer:
    """Event-loop front end + bounded worker pool, stdlib only.

    *handler* has ``handle(HttpRequest) -> HttpResponse``. *workers*
    bounds concurrently executing handlers; *queue_capacity* bounds
    requests parked between the loop and the workers — the admission
    limit. ``port=0`` binds an ephemeral port.
    """

    def __init__(self, handler: Any, *, host: str = "127.0.0.1",
                 port: int = 0, workers: int = 16,
                 queue_capacity: int = 256,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 name: str = "repro-httpd") -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.handler = handler
        self.workers = workers
        self.queue_capacity = queue_capacity
        self.max_body_bytes = max_body_bytes
        self.name = name
        #: requests shed by admission control since start
        self.shed_requests = 0
        self._listener = socket.socket(socket.AF_INET,
                                       socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET,
                                  socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(512)
        self._listener.setblocking(False)
        self._address = self._listener.getsockname()
        self._selector: selectors.BaseSelector | None = None
        self._queue: "queue.Queue[tuple[_Connection, HttpRequest] | None]" \
            = queue.Queue(maxsize=queue_capacity)
        self._replies: "collections.deque[tuple[_Connection, HttpResponse, bool]]" \
            = collections.deque()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._started = False

    # -- addresses -----------------------------------------------------------

    @property
    def server_address(self) -> tuple[str, int]:
        return self._address

    @property
    def host(self) -> str:
        return self._address[0]

    @property
    def port(self) -> int:
        return self._address[1]

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ,
                                ("listener", None))
        self._selector.register(self._wake_r, selectors.EVENT_READ,
                                ("wakeup", None))
        loop = threading.Thread(target=self._run_loop,
                                name=f"{self.name}-loop", daemon=True)
        loop.start()
        self._threads.append(loop)
        for index in range(self.workers):
            worker = threading.Thread(
                target=self._run_worker,
                name=f"{self.name}-worker-{index}", daemon=True)
            worker.start()
            self._threads.append(worker)

    def stop(self) -> None:
        if not self._started:
            self._listener.close()
            self._wake_r.close()
            self._wake_w.close()
            return
        self._stop.set()
        self._wakeup()
        for _ in range(self.workers):
            try:
                self._queue.put_nowait(None)
            except queue.Full:  # workers will see the stop flag
                break
        for thread in self._threads:
            thread.join(timeout=10)
        self._threads = []
        self._started = False

    def serve_forever(self) -> None:
        """Start and block the calling thread until :meth:`stop`."""
        self.start()
        try:
            self._stop.wait()
        except KeyboardInterrupt:  # pragma: no cover - CLI convenience
            self.stop()

    # -- worker side ---------------------------------------------------------

    def _run_worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None or self._stop.is_set():
                return
            conn, request = item
            try:
                response = self.handler.handle(request)
            except Exception as exc:  # handler bugs stay per-request
                response = HttpResponse.json(500, error_payload(
                    "internal_error", f"unhandled server error: {exc}",
                    kind=type(exc).__name__))
            self._push_reply(conn, response,
                             not request.keep_alive or response.close)

    def _push_reply(self, conn: _Connection, response: HttpResponse,
                    close_after: bool) -> None:
        self._replies.append((conn, response, close_after))
        self._wakeup()

    def _wakeup(self) -> None:
        try:
            self._wake_w.send(b"x")
        except OSError:  # pragma: no cover - shutting down
            pass

    # -- event loop ----------------------------------------------------------

    def _run_loop(self) -> None:
        assert self._selector is not None
        try:
            while not self._stop.is_set():
                for key, events in self._selector.select(timeout=0.2):
                    kind, conn = key.data
                    if kind == "listener":
                        self._accept()
                    elif kind == "wakeup":
                        self._drain_wakeup()
                    else:
                        self._service(conn, events)
        finally:
            self._shutdown_sockets()

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP,
                                socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - platform quirk
                pass
            conn = _Connection(sock=sock, addr=addr)
            self._selector.register(sock, selectors.EVENT_READ,
                                    ("conn", conn))

    def _drain_wakeup(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass
        while self._replies:
            conn, response, close_after = self._replies.popleft()
            if conn.closed:
                continue
            conn.busy = False
            conn.close_after = conn.close_after or close_after
            conn.outbuf += _encode(response,
                                   close=conn.close_after)
            self._want_write(conn)

    def _service(self, conn: _Connection, events: int) -> None:
        if conn.closed:
            return
        if events & selectors.EVENT_READ:
            try:
                data = conn.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                data = None
            except OSError:
                self._close(conn)
                return
            if data == b"":
                # client went away; anything in flight is abandoned
                self._close(conn)
                return
            if data:
                conn.inbuf += data
                self._advance(conn)
        if conn.closed:
            return
        if events & selectors.EVENT_WRITE and conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
                del conn.outbuf[:sent]
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._close(conn)
                return
            if not conn.outbuf:
                if conn.close_after:
                    self._close(conn)
                    return
                self._want_read_only(conn)
                # a pipelined/buffered next request may be complete
                self._advance(conn)

    def _advance(self, conn: _Connection) -> None:
        """Parse and dispatch at most one request (strictly in order)."""
        if conn.busy or conn.closed or conn.close_after:
            return
        try:
            request = self._try_parse(conn)
        except _Malformed as exc:
            conn.busy = True
            conn.close_after = True
            conn.outbuf += _encode(exc.response, close=True)
            self._want_write(conn)
            return
        if request is None:
            return
        conn.busy = True
        conn.continued = False
        try:
            self._queue.put_nowait((conn, request))
        except queue.Full:
            self.shed_requests += 1
            shed = self._overload_response()
            conn.busy = False
            conn.close_after = not request.keep_alive
            conn.outbuf += _encode(shed, close=conn.close_after)
            self._want_write(conn)

    def _overload_response(self) -> HttpResponse:
        builder: Callable[[], HttpResponse] | None = getattr(
            self.handler, "overload_response", None)
        if builder is not None:
            return builder()
        return HttpResponse.json(429, error_payload(
            "overloaded",
            "admission queue is full; retry after a backoff",
            retryable=True))

    def _try_parse(self, conn: _Connection) -> HttpRequest | None:
        buf = conn.inbuf
        end = buf.find(b"\r\n\r\n")
        if end < 0:
            if len(buf) > MAX_HEADER_BYTES:
                raise _Malformed("header block too large")
            return None
        head = bytes(buf[:end]).decode("latin-1")
        lines = head.split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _Malformed(f"bad request line {lines[0]!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if not sep:
                raise _Malformed(f"bad header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length")
        content_length: int | None = None
        if raw_length is not None:
            try:
                content_length = int(raw_length)
            except ValueError:
                raise _Malformed("bad Content-Length") from None
            if content_length < 0:
                raise _Malformed("bad Content-Length")
            if content_length > self.max_body_bytes:
                raise _Malformed(
                    f"request body exceeds {self.max_body_bytes} bytes")
        body_start = end + 4
        needed = body_start + (content_length or 0)
        if len(buf) < needed:
            if content_length and not conn.continued and \
                    "100-continue" in headers.get("expect", "").lower():
                conn.continued = True
                conn.outbuf += b"HTTP/1.1 100 Continue\r\n\r\n"
                self._want_write(conn)
            return None
        body = bytes(buf[body_start:needed])
        del conn.inbuf[:needed]
        connection = headers.get("connection", "").lower()
        keep_alive = "close" not in connection
        if version == "HTTP/1.0":
            keep_alive = "keep-alive" in connection
        path, _, query = target.partition("?")
        return HttpRequest(method=method, path=path, query=query,
                           headers=headers, body=body,
                           content_length=content_length,
                           keep_alive=keep_alive)

    # -- selector plumbing ---------------------------------------------------

    def _want_write(self, conn: _Connection) -> None:
        if conn.closed:
            return
        self._selector.modify(
            conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE,
            ("conn", conn))

    def _want_read_only(self, conn: _Connection) -> None:
        if conn.closed:
            return
        self._selector.modify(conn.sock, selectors.EVENT_READ,
                              ("conn", conn))

    def _close(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):  # pragma: no cover
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover
            pass

    def _shutdown_sockets(self) -> None:
        if self._selector is None:
            return
        for key in list(self._selector.get_map().values()):
            kind, conn = key.data
            if kind == "conn":
                self._close(conn)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        try:
            self._selector.unregister(self._wake_r)
        except (KeyError, ValueError):
            pass
        self._wake_r.close()
        self._wake_w.close()
        self._selector.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<AsyncHttpServer {self.host}:{self.port} "
                f"workers={self.workers} "
                f"queue={self.queue_capacity}>")


def _encode(response: HttpResponse, *, close: bool) -> bytes:
    reason = _REASONS.get(response.status, "Unknown")
    connection = "close" if close or response.close else "keep-alive"
    head = (f"HTTP/1.1 {response.status} {reason}\r\n"
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(response.body)}\r\n"
            f"Connection: {connection}\r\n\r\n")
    return head.encode("latin-1") + response.body


#: bytes asked of the socket per read until a reply's length is known
_RECV_BYTES = 65536


class ClientConnection:
    """One keep-alive HTTP/1.1 client connection (``http`` or ``https``).

    :meth:`request` sends the request line, ``Host``, the caller's
    headers, ``Content-Length`` and the body as one buffer with one
    ``sendall``, then reads one reply: a status line, a header block,
    and a body framed by ``Content-Length`` or, without one, by EOF. A
    reply that closes the connection (``Connection: close``, an
    HTTP/1.0 reply without ``keep-alive``, or no ``Content-Length``)
    closes the socket, and :meth:`request` reports ``keep=False``.

    EOF before a complete reply, a short body and a bad status line
    raise :class:`ConnectionError`; with socket errors and timeouts,
    every transport failure is an ``OSError``. A failed request closes
    the connection, since its framing state is unknown.
    """

    __slots__ = ("host", "port", "timeout", "tls", "sock", "_host_header")

    def __init__(self, host: str, port: int | None = None, *,
                 timeout: float | None = None, tls: bool = False) -> None:
        self.host = host
        self.port = port or (443 if tls else 80)
        self.timeout = timeout
        self.tls = tls
        self.sock: socket.socket | None = None
        name = f"[{host}]" if ":" in host else host
        self._host_header = name if port is None else f"{name}:{port}"

    def connect(self) -> None:
        sock = socket.create_connection((self.host, self.port),
                                        self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.tls:
                sock = ssl.create_default_context().wrap_socket(
                    sock, server_hostname=self.host)
        except BaseException:
            sock.close()
            raise
        self.sock = sock

    def settimeout(self, timeout: float | None) -> None:
        """Bound the open socket's later operations."""
        if self.sock is not None:
            self.sock.settimeout(timeout)

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best effort
                pass

    def request(self, method: str, target: str, body: bytes | None = None,
                headers: dict[str, str] | None = None,
                ) -> tuple[int, bytes, bool]:
        """One exchange: ``(status, body, keep)``; *keep* is False when
        the reply closed the connection."""
        if self.sock is None:
            self.connect()
        sock = self.sock
        assert sock is not None
        head = [f"{method} {target} HTTP/1.1\r\nHost: {self._host_header}"]
        if headers:
            head += [f"{name}: {value}" for name, value in headers.items()]
        if body is not None:
            head.append(f"Content-Length: {len(body)}")
        message = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
        try:
            sock.sendall(message + body if body else message)
            status, payload, keep = _read_reply(sock)
        except BaseException:
            self.close()
            raise
        if not keep:
            self.close()
        return status, payload, keep

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.sock is not None else "closed"
        return f"<ClientConnection {self._host_header} {state}>"


def _read_reply(sock: socket.socket) -> tuple[int, bytes, bool]:
    """Read one final reply from *sock*: ``(status, body, keep)``."""
    buf = bytearray()
    while (end := buf.find(b"\r\n\r\n")) < 0:
        if len(buf) > MAX_HEADER_BYTES:
            raise ConnectionError("reply header block too large")
        chunk = sock.recv(_RECV_BYTES)
        if not chunk:
            raise ConnectionError(
                "connection closed before a complete reply")
        buf += chunk
    lines = bytes(buf[:end]).decode("latin-1").split("\r\n")
    version, _, rest = lines[0].partition(" ")
    code = rest[:3]
    if not version.startswith("HTTP/1.") or len(code) != 3 \
            or not code.isdigit():
        raise ConnectionError(f"bad status line {lines[0]!r}")
    status = int(code)
    start = end + 4
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise ConnectionError("chunked replies are not supported")
    connection = headers.get("connection", "").lower()
    keep = "keep-alive" in connection if version == "HTTP/1.0" \
        else "close" not in connection
    raw_length = headers.get("content-length")
    if raw_length is None:
        # the body runs to EOF, which also ends the connection
        while chunk := sock.recv(_RECV_BYTES):
            buf += chunk
        return status, bytes(buf[start:]), False
    try:
        length = int(raw_length)
    except ValueError:
        length = -1
    if length < 0:
        raise ConnectionError(f"bad Content-Length {raw_length!r}")
    have = len(buf) - start
    if have >= length:
        return status, bytes(buf[start:start + length]), keep
    body = bytearray(length)
    view = memoryview(body)
    view[:have] = buf[start:]
    while have < length:
        got = sock.recv_into(view[have:])
        if not got:
            raise ConnectionError(
                f"reply body ended after {have} of {length} bytes")
        have += got
    view.release()
    return status, bytes(body), keep
