"""The fleet front door: epoch-consistent request routing over HTTP.

:class:`FleetRouter` is an :class:`~repro.api.httpd.AsyncHttpServer`
handler that speaks the same v1 wire protocol as a single gateway —
clients point :class:`~repro.api.client.GovernedClient` at the router
and cannot tell the difference — but fans reads out across a fleet:

* ``GET``/``POST /v1/query`` are **routed**: the session's epoch floor
  (see :mod:`repro.fleet.balancer`) picks the fresh candidates,
  stickiness keeps a session's cursors on the replica that minted
  them, the leader absorbs whatever no replica can serve, and
  explicitly *pinned* requests ride the leader (a pin names the
  leader's process-local serving epoch);
* ``POST /v1/releases`` always forwards to the leader (replicas are
  read-only and would 403); a successful release raises the session's
  floor, so the same session's next read is never served by a replica
  that has not yet applied the release — read-your-writes through the
  router;
* ``GET /v1/describe`` / ``GET /v1/journal`` proxy to the leader;
* ``GET /v1/fleet`` is the router's own introspection route: the
  per-backend health/epoch/lag/traffic table plus admission and
  routing counters;
* a probe thread refreshes every backend's health, applied epoch,
  ``ready`` flag and lag; ``FAILURE_THRESHOLD`` consecutive failures
  evict a backend from rotation until a probe succeeds again.

A transport failure against one backend is retried on the next
candidate (with a short backoff) — the client sees one successful
answer or one typed error envelope, never a half-routed request.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
from typing import Any

from repro.api.httpd import (
    AsyncHttpServer, HttpRequest, HttpResponse, error_payload,
)
from repro.fleet.balancer import Backend, EpochBalancer

__all__ = ["FleetRouter"]

_TRANSPORT_ERRORS = (OSError,)

#: headers never copied through to a backend (hop-by-hop / re-derived)
_HOP_HEADERS = frozenset({
    "connection", "content-length", "host", "expect", "keep-alive",
    "transfer-encoding",
})


def _forward_headers(request: HttpRequest) -> dict[str, str]:
    return {name: value for name, value in request.headers.items()
            if name not in _HOP_HEADERS}


def _epoch_of(payload: bytes) -> int | None:
    """The highest **fingerprint epoch** a backend response reports.

    The envelope's plain ``epoch`` field is the serving lock's
    write-section counter — process-local (a freshly recovered leader
    restarts it at 0; a replica that applied the same history in one
    batch reads 1), so it cannot order backends. The ontology
    fingerprint epoch is replay-deterministic: a leader and a caught-up
    replica report the same value, which makes it the one epoch the
    router can compare across processes.
    """
    try:
        data = json.loads(payload)
    except ValueError:
        return None
    if not isinstance(data, dict):
        return None
    best: int | None = None
    stack: list[Any] = [data]
    if isinstance(data.get("responses"), list):  # batch envelope
        stack.extend(data["responses"])
    for item in stack:
        if not isinstance(item, dict):
            continue
        fingerprint = item.get("fingerprint")
        if isinstance(fingerprint, (list, tuple)) and fingerprint \
                and isinstance(fingerprint[0], int):
            if best is None or fingerprint[0] > best:
                best = fingerprint[0]
    return best


def _pin_of(body: bytes) -> int:
    """The epoch pin a query request carries (max across a batch);
    -1 when unpinned or unparseable (backends reject malformed bodies
    themselves). Pinned requests are routed to the leader — see
    :meth:`FleetRouter._route_query`.
    """
    try:
        data = json.loads(body)
    except ValueError:
        return -1
    if not isinstance(data, dict):
        return -1
    items = data.get("batch") if isinstance(data.get("batch"), list) \
        else [data]
    pin = -1
    for item in items:
        if isinstance(item, dict) and isinstance(item.get("epoch"), int):
            pin = max(pin, item["epoch"])
    return pin


class FleetRouter:
    """Session-sticky, epoch-consistent HTTP router over a fleet."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 24, queue_capacity: int = 512,
                 probe_interval: float = 0.25,
                 probe_timeout: float = 5.0,
                 upstream_timeout: float = 30.0,
                 retry_backoff: float = 0.02,
                 release_retries: int = 2,
                 verbose: bool = False) -> None:
        self.balancer = EpochBalancer()
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.upstream_timeout = upstream_timeout
        self.retry_backoff = retry_backoff
        self.release_retries = release_retries
        self.verbose = verbose
        # -- routing counters (all monotonically increasing) -----------------
        self.routed_to_replicas = 0
        self.routed_to_leader = 0
        #: queries the leader absorbed while replicas were configured
        self.leader_fallbacks = 0
        #: requests retried on another backend after a transport failure
        self.upstream_retries = 0
        #: backends evicted after consecutive failures (probe or route)
        self.evictions = 0
        self.no_fresh_replica = 0
        self._counter_lock = threading.Lock()
        self._stop = threading.Event()
        self._prober: threading.Thread | None = None
        self._server = AsyncHttpServer(
            self, host=host, port=port, workers=workers,
            queue_capacity=queue_capacity, name="repro-fleet-router")

    # -- topology ------------------------------------------------------------

    def add_backend(self, key: str, url: str, role: str, *,
                    pid: int | None = None,
                    probe: bool = True) -> Backend:
        backend = Backend(key, url, role, pid=pid,
                          timeout=self.upstream_timeout)
        if probe:
            # probe before exposure so a joining backend enters the
            # candidate set with a real epoch, not a permissive default
            self._probe(backend)
        self.balancer.add_backend(backend)
        return backend

    def remove_backend(self, key: str) -> None:
        self.balancer.remove_backend(key)

    def replace_backend(self, key: str, url: str | None, role: str, *,
                        pid: int | None = None) -> Backend | None:
        """Swap a restarted backend in (or drop it when *url* is None).

        This is the supervisor's ``on_change`` hook: a replica respawned
        on a fresh ephemeral port replaces its predecessor atomically
        from the router's point of view.
        """
        self.balancer.remove_backend(key)
        if url is None:
            return None
        return self.add_backend(key, url, role, pid=pid)

    # -- lifecycle -----------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> "FleetRouter":
        for backend in self.balancer.backends():
            self._probe(backend)
        self._server.start()
        self._stop.clear()
        self._prober = threading.Thread(
            target=self._probe_loop, name="repro-fleet-prober",
            daemon=True)
        self._prober.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._prober is not None:
            self._prober.join(timeout=10)
            self._prober = None
        self._server.stop()
        for backend in self.balancer.backends():
            backend.close()

    def __enter__(self) -> "FleetRouter":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- health probing ------------------------------------------------------

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.probe_interval):
            for backend in self.balancer.backends():
                if self._stop.is_set():
                    return
                self._probe(backend)

    def _probe(self, backend: Backend) -> None:
        try:
            status, payload = backend.exchange(
                "GET", "/v1/describe", None,
                timeout=self.probe_timeout)
            data = json.loads(payload)
        except (ValueError, *_TRANSPORT_ERRORS):
            self._note_failure(backend)
            return
        if status != 200 or not isinstance(data, dict) \
                or not data.get("ok"):
            self._note_failure(backend)
            return
        backend.mark_success()
        fingerprint = data.get("fingerprint")
        if isinstance(fingerprint, (list, tuple)) and fingerprint:
            backend.observe_epoch(fingerprint[0])
        journal = (data.get("service") or {}).get("journal") or {}
        backend.lag = int(journal.get("replica_lag") or 0)
        ready = journal.get("ready")
        # services without a readiness signal (in-memory leaders) are
        # ready by definition — they have no journal to catch up on
        backend.ready = True if ready is None else bool(ready)

    def _note_failure(self, backend: Backend) -> None:
        if backend.mark_failure():
            with self._counter_lock:
                self.evictions += 1

    # -- request handling (AsyncHttpServer handler contract) -----------------

    def overload_response(self) -> HttpResponse:
        return HttpResponse.json(429, error_payload(
            "overloaded",
            "fleet router admission queue is full; retry after a "
            "backoff", kind="OverloadedError", retryable=True))

    def handle(self, request: HttpRequest) -> HttpResponse:
        method, path = request.method, request.path
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return HttpResponse.json(200, {
                "status": "ok", "role": "fleet-router",
                "epoch": self.balancer.max_epoch(),
                "backends": len(self.balancer.backends()),
            })
        if path == "/v1/fleet":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return HttpResponse.json(200, self.fleet_state())
        if path in ("/v1/describe", "/v1/journal"):
            if method != "GET":
                return self._method_not_allowed(method, path)
            return self._forward_to_leader(request, idempotent=True)
        if path == "/v1/query":
            if method not in ("GET", "POST"):
                return self._method_not_allowed(method, path)
            return self._route_query(request)
        if path == "/v1/releases":
            if method != "POST":
                return self._method_not_allowed(method, path)
            return self._route_release(request)
        return HttpResponse.json(404, error_payload(
            "not_found", f"no route {path}"))

    @staticmethod
    def _method_not_allowed(method: str, path: str) -> HttpResponse:
        return HttpResponse.json(405, error_payload(
            "method_not_allowed", f"{method} not allowed on {path}"))

    # -- the routed read path ------------------------------------------------

    def _route_query(self, request: HttpRequest) -> HttpResponse:
        session_id = request.headers.get("x-repro-session")
        state = self.balancer.session(session_id)
        if request.method == "GET":
            pin = -1
            values = urllib.parse.parse_qs(request.query).get("epoch")
            if values and values[0].lstrip("-").isdigit():
                pin = int(values[0])
        else:
            pin = _pin_of(request.body)
        floor = max(state.floor, pin)
        pinned = pin >= 0
        if pinned:
            # An explicit pin names a *serving* epoch — a process-local
            # counter minted by the describe/response that the router
            # forwarded to the leader. Only the leader can honor it
            # (a replica's serving epoch counts its own apply batches),
            # so pinned reads ride the leader like mutations do.
            leader = self.balancer.leader
            candidates = [leader] if leader is not None else []
        else:
            candidates = self.balancer.candidates(
                floor=floor, sticky_key=state.backend_key)
        if not candidates:
            with self._counter_lock:
                self.no_fresh_replica += 1
            return HttpResponse.json(503, error_payload(
                "no_fresh_replica",
                f"no reachable backend has applied epoch >= {floor}",
                kind="NoFreshReplicaError", retryable=True))
        headers = _forward_headers(request)
        target = request.path + (f"?{request.query}" if request.query
                                 else "")
        replicas_configured = any(
            b.role == "replica" for b in self.balancer.backends())
        last_error: BaseException | None = None
        for attempt, backend in enumerate(candidates):
            if attempt:
                with self._counter_lock:
                    self.upstream_retries += 1
                time.sleep(self.retry_backoff * attempt)
            backend.enter()
            try:
                status, payload = backend.exchange(
                    request.method, target,
                    request.body if request.method == "POST" else None,
                    headers)
            except _TRANSPORT_ERRORS as exc:
                last_error = exc
                self._note_failure(backend)
                continue
            finally:
                backend.leave()
            backend.mark_success()
            epoch = _epoch_of(payload)
            self.balancer.note_response(session_id, backend, epoch,
                                        sticky=not pinned)
            with self._counter_lock:
                if backend.role == "leader":
                    self.routed_to_leader += 1
                    if replicas_configured:
                        self.leader_fallbacks += 1
                else:
                    self.routed_to_replicas += 1
            return HttpResponse(status=status, body=payload)
        return HttpResponse.json(502, error_payload(
            "gateway_error",
            f"every candidate backend failed; last error: "
            f"{type(last_error).__name__}: {last_error}",
            kind="GatewayError", retryable=True))

    # -- the leader-only paths -----------------------------------------------

    def _route_release(self, request: HttpRequest) -> HttpResponse:
        # a release is only safely retryable when the caller supplied
        # an idempotency key (the leader dedupes the replay)
        idempotent = False
        try:
            body = json.loads(request.body)
            idempotent = bool(isinstance(body, dict)
                              and body.get("idempotency_key"))
        except ValueError:
            pass
        return self._forward_to_leader(request, idempotent=idempotent)

    def _forward_to_leader(self, request: HttpRequest, *,
                           idempotent: bool) -> HttpResponse:
        leader = self.balancer.leader
        if leader is None:
            return HttpResponse.json(502, error_payload(
                "gateway_error", "the fleet has no leader backend",
                kind="GatewayError", retryable=True))
        session_id = request.headers.get("x-repro-session")
        headers = _forward_headers(request)
        target = request.path + (f"?{request.query}" if request.query
                                 else "")
        body = request.body if request.method == "POST" else None
        attempts = 1 + (self.release_retries if idempotent else 0)
        last_error: BaseException | None = None
        for attempt in range(attempts):
            if attempt:
                with self._counter_lock:
                    self.upstream_retries += 1
                time.sleep(self.retry_backoff * attempt)
            leader.enter()
            try:
                status, payload = leader.exchange(
                    request.method, target, body, headers)
            except _TRANSPORT_ERRORS as exc:
                last_error = exc
                self._note_failure(leader)
                continue
            finally:
                leader.leave()
            leader.mark_success()
            if request.path != "/v1/journal":
                # raise the session floor on the epoch this response
                # observed — read-your-writes for routed releases —
                # without stealing the session's fan-out stickiness
                self.balancer.note_response(
                    session_id, leader, _epoch_of(payload),
                    sticky=False)
            return HttpResponse(status=status, body=payload)
        return HttpResponse.json(502, error_payload(
            "gateway_error",
            f"leader unreachable: {type(last_error).__name__}: "
            f"{last_error}", kind="GatewayError", retryable=True))

    # -- introspection -------------------------------------------------------

    def fleet_state(self) -> dict[str, Any]:
        with self._counter_lock:
            counters = {
                "routed_to_replicas": self.routed_to_replicas,
                "routed_to_leader": self.routed_to_leader,
                "leader_fallbacks": self.leader_fallbacks,
                "upstream_retries": self.upstream_retries,
                "evictions": self.evictions,
                "no_fresh_replica": self.no_fresh_replica,
            }
        return {
            "ok": True,
            "role": "fleet-router",
            "url": self.url,
            "epoch": self.balancer.max_epoch(),
            "sessions": self.balancer.tracked_sessions,
            "admission": {
                "queue_capacity": self._server.queue_capacity,
                "shed_requests": self._server.shed_requests,
            },
            "counters": counters,
            "backends": [b.snapshot()
                         for b in self.balancer.backends()],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FleetRouter {self.url} "
                f"backends={len(self.balancer.backends())}>")
