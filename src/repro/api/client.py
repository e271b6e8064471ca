"""The analyst/steward session object over the v1 protocol.

:class:`GovernedClient` is the documented way to talk to the governed
system. One client is one *session*: it can pin the serving epoch for
repeatable reads, stream large answers as cursor-paginated pages, and
submit releases idempotently — and it does all of that through the same
:class:`~repro.api.protocol.QueryRequest` / ``QueryResponse`` envelopes
whether it sits in the same process as the service
(:class:`InProcessTransport`) or on the other side of the HTTP gateway
(:class:`HttpTransport`). Swapping the transport changes latency, never
semantics — the parity tests pin the payloads byte-identical.

Quickstart::

    from repro.api import GovernedClient
    from repro.datasets import build_supersede, EXEMPLARY_QUERY
    from repro.mdm import MDM

    mdm = MDM(build_supersede().ontology)
    with GovernedClient(mdm) as client:
        response = client.query(EXEMPLARY_QUERY)
        print(response.epoch, len(response.rows))
        for page in client.stream(EXEMPLARY_QUERY, page_size=2):
            ...

    remote = GovernedClient("http://127.0.0.1:8799")   # same protocol
"""

from __future__ import annotations

import json
import secrets
import threading
import time
import urllib.parse
from typing import Any, Iterator, Mapping, Sequence

from repro.errors import EpochSuperseded, GatewayError
from repro.api.endpoint import ProtocolEndpoint
from repro.api.httpd import ClientConnection
from repro.api.protocol import (
    DescribeResponse, QueryRequest, QueryResponse, ReleaseRequest,
    ReleaseResponse,
)

__all__ = ["GovernedClient", "InProcessTransport", "HttpTransport",
           "as_transport"]


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class InProcessTransport:
    """Envelopes handed straight to a :class:`ProtocolEndpoint`.

    No serialization happens, responses keep their ``relation`` and
    ``exception`` objects — the zero-copy fast path the overhead gate in
    ``benchmarks/bench_gateway.py`` holds below 15% of a direct
    :meth:`GovernedService.serve
    <repro.service.serving.GovernedService.serve>` call.
    """

    def __init__(self, endpoint: ProtocolEndpoint) -> None:
        self.endpoint = endpoint

    def query(self, request: QueryRequest) -> QueryResponse:
        return self.endpoint.handle_query(request)

    def release(self, request: ReleaseRequest) -> ReleaseResponse:
        return self.endpoint.handle_release(request)

    def describe(self, timeout: float | None = None) -> DescribeResponse:
        return self.endpoint.handle_describe(timeout)

    def close(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InProcessTransport {self.endpoint!r}>"


#: shed responses the transport transparently retries (admission
#: control rejected the request before any work happened, so a backoff
#: retry is always safe)
_SHED_CODES = frozenset({"overloaded", "no_fresh_replica"})


class HttpTransport:
    """The same envelopes as JSON over one persistent HTTP connection.

    Each transport is one wire session: it keeps a single keep-alive
    :class:`~repro.api.httpd.ClientConnection` to the gateway (or fleet
    router), which writes each request with one ``sendall``, and stamps
    every request with its ``X-Repro-Session`` id — the token the fleet
    router uses for session-sticky, epoch-monotonic routing. A reply
    that closes the connection makes the next request reconnect.

    Protocol-level failures arrive as error envelopes and re-raise as
    their typed exceptions; transport-level failures (connection
    refused, non-JSON body) raise :class:`~repro.errors.GatewayError`.
    Transient failures are retried transparently with exponential
    backoff (*retries* attempts beyond the first): connection-refused
    always, mid-request transport failures and ``overloaded`` /
    ``no_fresh_replica`` shed envelopes only for idempotent requests
    (queries, describes, releases carrying an idempotency key).
    """

    def __init__(self, base_url: str, *,
                 timeout: float | None = 30.0, retries: int = 2,
                 backoff: float = 0.05,
                 session_id: str | None = None) -> None:
        self.base_url = base_url.rstrip("/")
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme not in ("http", "https"):
            raise ValueError(
                f"a transport URL must be http(s)://..., got {base_url!r}")
        self._scheme = parsed.scheme
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.session_id = session_id or f"s-{secrets.token_hex(8)}"
        if "\r" in self.session_id or "\n" in self.session_id:
            raise ValueError("a session id cannot hold a line break")
        self._conn: ClientConnection | None = None
        self._lock = threading.Lock()

    # -- the wire ------------------------------------------------------------

    def _connect(self) -> ClientConnection:
        if self._conn is None:
            conn = ClientConnection(self._host, self._port,
                                    timeout=self.timeout,
                                    tls=self._scheme == "https")
            conn.connect()
            self._conn = conn
        return self._conn

    def _drop_connection(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _request_once(self, conn: ClientConnection,
                      method: str, path: str,
                      data: bytes | None) -> tuple[int, bytes]:
        headers = {"Accept": "application/json",
                   "X-Repro-Session": self.session_id}
        if data is not None:
            headers["Content-Type"] = "application/json"
        status, body, keep = conn.request(method, path, data, headers)
        if not keep:
            self._drop_connection()
        return status, body

    def _exchange(self, path: str, payload: Mapping[str, Any] | None,
                  *, idempotent: bool = True) -> dict[str, Any]:
        url = f"{self.base_url}{path}"
        data = None if payload is None \
            else json.dumps(payload).encode("utf-8")
        method = "GET" if data is None else "POST"
        last_error: GatewayError | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            with self._lock:
                try:
                    conn = self._connect()
                except OSError as exc:
                    # connect-phase failure: nothing reached the server,
                    # always safe to retry
                    self._drop_connection()
                    last_error = GatewayError(
                        f"gateway unreachable at {url}: {exc}")
                    last_error.__cause__ = exc
                    continue
                try:
                    status, body = self._request_once(
                        conn, method, path, data)
                except OSError as exc:
                    self._drop_connection()
                    last_error = GatewayError(
                        f"gateway unreachable at {url}: {exc}")
                    last_error.__cause__ = exc
                    # The request may have reached the server before
                    # the transport died — replay-safe only when the
                    # request is idempotent.
                    if not idempotent:
                        raise last_error
                    continue
            try:
                decoded = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise GatewayError(
                    f"gateway at {url} returned a non-JSON body "
                    f"({body[:120]!r})") from exc
            if not isinstance(decoded, dict):
                raise GatewayError(
                    f"gateway at {url} returned a non-object body")
            error = decoded.get("error")
            if idempotent and isinstance(error, Mapping) and \
                    error.get("code") in _SHED_CODES and \
                    attempt < self.retries:
                last_error = None
                continue  # shed before any work — back off and retry
            return decoded
        assert last_error is not None
        raise last_error

    # -- transport protocol --------------------------------------------------

    def query(self, request: QueryRequest) -> QueryResponse:
        return QueryResponse.from_dict(
            self._exchange("/v1/query", request.to_dict()))

    def release(self, request: ReleaseRequest) -> ReleaseResponse:
        # Without an idempotency key, a mid-flight transport failure is
        # ambiguous (the release may have landed) — never replayed.
        return ReleaseResponse.from_dict(self._exchange(
            "/v1/releases", request.to_dict(),
            idempotent=request.idempotency_key is not None))

    def describe(self, timeout: float | None = None) -> DescribeResponse:
        path = "/v1/describe" if timeout is None \
            else f"/v1/describe?timeout={timeout}"
        return DescribeResponse.from_dict(self._exchange(path, None))

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<HttpTransport {self.base_url} "
                f"session={self.session_id}>")


def as_transport(target: Any) -> Any:
    """Coerce anything protocol-shaped into a transport.

    Accepts a transport, a :class:`ProtocolEndpoint`, a
    :class:`~repro.service.serving.GovernedService`, an
    :class:`~repro.mdm.system.MDM` (its memoized governed service is
    used) or a gateway base URL string.
    """
    if isinstance(target, (InProcessTransport, HttpTransport)):
        return target
    if isinstance(target, ProtocolEndpoint):
        return InProcessTransport(target)
    if isinstance(target, str):
        if not target.startswith(("http://", "https://")):
            raise ValueError(
                f"a transport URL must be http(s)://..., got {target!r}")
        return HttpTransport(target)
    from repro.mdm.system import MDM
    from repro.service.serving import GovernedService
    if isinstance(target, MDM):
        # Reuse a live memoized service rather than minting one with
        # default parameters (which would close and replace it).
        target = target._serving if target._serving is not None \
            else target.serving()
    if isinstance(target, GovernedService):
        return InProcessTransport(target.endpoint)
    if hasattr(target, "query") and hasattr(target, "release") \
            and hasattr(target, "describe"):
        return target  # duck-typed custom transport
    raise TypeError(
        f"cannot build a protocol transport from {type(target).__name__}")


# ---------------------------------------------------------------------------
# The session object
# ---------------------------------------------------------------------------


class GovernedClient:
    """One protocol session: pinned reads, paginated streams, releases.

    *target* is anything :func:`as_transport` accepts. *timeout* is the
    per-request seconds bound forwarded on every envelope (how long a
    query may wait for a draining release).

    **Epoch pinning.** An unpinned session always reads the current
    epoch. :meth:`pin` freezes the session at the epoch it observes;
    from then on every query demands exactly that epoch and fails typed
    with :class:`~repro.errors.EpochSuperseded` once a release lands —
    repeatable reads with an explicit, observable end. :meth:`refresh`
    re-pins at the new epoch; :meth:`unpin` returns to always-current.
    """

    def __init__(self, target: Any, *, pin: bool = False,
                 timeout: float | None = None) -> None:
        self._transport = as_transport(target)
        self.timeout = timeout
        self._pinned: int | None = None
        if pin:
            self.pin()

    # -- session state -------------------------------------------------------

    @property
    def transport(self) -> Any:
        return self._transport

    @property
    def pinned_epoch(self) -> int | None:
        """The epoch this session demands, or None when unpinned."""
        return self._pinned

    def pin(self) -> int:
        """Freeze the session at the currently served epoch."""
        self._pinned = self.describe().epoch
        return self._pinned

    def refresh(self) -> int:
        """Re-pin at the epoch now served (after ``EpochSuperseded``)."""
        return self.pin()

    def unpin(self) -> None:
        self._pinned = None

    # -- analyst side --------------------------------------------------------

    def query(self, query: Any, *, distinct: bool = True,
              page_size: int | None = None,
              request_id: str | None = None) -> QueryResponse:
        """Pose one OMQ; returns the (first) page, raising typed errors."""
        request = QueryRequest(
            query=query, distinct=distinct, epoch=self._pinned,
            page_size=page_size, timeout=self.timeout,
            request_id=request_id)
        return self._transport.query(request).raise_for_error()

    def rows(self, query: Any, *, distinct: bool = True,
             ) -> list[dict[str, Any]]:
        """The full answer rows in one shot (no pagination)."""
        return self.query(query, distinct=distinct).rows

    def fetch_page(self, cursor: str, *,
                   page_size: int | None = None,
                   request_id: str | None = None) -> QueryResponse:
        """The next page of a paginated answer.

        Raises :class:`~repro.errors.EpochSuperseded` when a release
        landed since the cursor was opened, and
        :class:`~repro.errors.InvalidCursorError` when the cursor is
        unknown, exhausted or evicted.
        """
        request = QueryRequest(cursor=cursor, page_size=page_size,
                               epoch=self._pinned,
                               timeout=self.timeout,
                               request_id=request_id)
        return self._transport.query(request).raise_for_error()

    def stream(self, query: Any, *, page_size: int = 100,
               distinct: bool = True) -> Iterator[QueryResponse]:
        """Iterate an answer page by page (epoch-consistent snapshot).

        The first page arrives before the full answer is serialized;
        every page reports the same epoch/fingerprint. A release landing
        mid-stream raises :class:`~repro.errors.EpochSuperseded` from
        the next page fetch.
        """
        response = self.query(query, distinct=distinct,
                              page_size=page_size)
        yield response
        while response.cursor is not None:
            response = self.fetch_page(response.cursor)
            yield response

    def stream_rows(self, query: Any, *, page_size: int = 100,
                    distinct: bool = True,
                    ) -> Iterator[dict[str, Any]]:
        """Flattened row iterator over :meth:`stream`."""
        for response in self.stream(query, page_size=page_size,
                                    distinct=distinct):
            yield from response.rows

    # -- steward side --------------------------------------------------------

    def submit_release(self, *, source: str | None = None,
                       wrapper: str | None = None,
                       id_attributes: Sequence[str] = (),
                       non_id_attributes: Sequence[str] = (),
                       feature_hints: Mapping[str, str] | None = None,
                       rows: Sequence[Mapping[str, Any]] | None = None,
                       absorbed_concepts: Sequence[str] = (),
                       idempotency_key: str | None = None,
                       release: Any = None,
                       physical_wrapper: Any = None,
                       request_id: str | None = None) -> ReleaseResponse:
        """Submit one release (declarative fields or a typed Release).

        With *idempotency_key*, resubmitting after an ambiguous failure
        is safe: a key the endpoint has already honored replays the
        recorded response with ``replayed=True``.
        """
        request = ReleaseRequest(
            source=source, wrapper=wrapper,
            id_attributes=tuple(id_attributes),
            non_id_attributes=tuple(non_id_attributes),
            feature_hints=feature_hints,
            rows=tuple(rows) if rows is not None else None,
            absorbed_concepts=tuple(str(c) for c in absorbed_concepts),
            idempotency_key=idempotency_key, timeout=self.timeout,
            request_id=request_id, release=release,
            physical_wrapper=physical_wrapper)
        response = self._transport.release(request).raise_for_error()
        if self._pinned is not None and response.epoch is not None:
            # The session's own release moved the world; a pinned
            # session would instantly go stale, so it follows its own
            # writes to the new epoch.
            self._pinned = response.epoch
        return response

    # -- introspection -------------------------------------------------------

    def describe(self) -> DescribeResponse:
        return self._transport.describe(self.timeout).raise_for_error()

    def check_pin(self) -> int:
        """Assert the pinned epoch is still served; returns it.

        Raises :class:`~repro.errors.EpochSuperseded` when a release
        has landed since :meth:`pin`.
        """
        current = self.describe().epoch
        if self._pinned is not None and current != self._pinned:
            raise EpochSuperseded(
                f"session pinned epoch {self._pinned}, the service now "
                f"serves epoch {current}",
                requested=self._pinned, serving=current)
        return current if self._pinned is None else self._pinned

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "GovernedClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pin = f" pinned@{self._pinned}" if self._pinned is not None \
            else ""
        return f"<GovernedClient {self._transport!r}{pin}>"
