"""Routing state and policy for the replica fleet.

Two pieces live here, deliberately separated from the HTTP plumbing in
:mod:`repro.fleet.router` so the routing *decision* is unit-testable
without sockets:

* :class:`Backend` — one upstream node (the leader or a replica): its
  health as observed by probes, its last known applied epoch, a pool
  of keep-alive :class:`~repro.api.httpd.ClientConnection` objects,
  and per-backend traffic counters;
* :class:`EpochBalancer` — the decision: given a session and its epoch
  floor, produce the ordered candidate list that can serve the request
  without time travel.

**The epoch-consistency invariant.** A session that has observed epoch
E (by pinning, by reading an answer tagged E, or by landing a release
that produced E) must never be routed to a backend whose applied epoch
is < E — otherwise the session could watch governance history run
backwards across two requests. The balancer enforces this with a
per-session *floor*: every response's epoch raises the floor, and only
backends at-or-past the floor are candidates. The leader is always a
candidate of last resort — it defines the newest epoch — so "no fresh
replica" degrades to leader traffic, not to failure, as long as the
leader is reachable.
"""

from __future__ import annotations

import threading
import urllib.parse
from dataclasses import dataclass
from typing import Any

from repro.api.httpd import ClientConnection
from repro.util.lru import LRU

__all__ = ["Backend", "EpochBalancer", "SessionState"]

#: pooled keep-alive connections kept per backend
POOL_CAPACITY = 64

#: consecutive probe/exchange failures before a backend is evicted
FAILURE_THRESHOLD = 3

#: sessions tracked before the least-recently-used one is forgotten
SESSION_CAPACITY = 4096


class Backend:
    """One upstream node the router can forward to."""

    def __init__(self, key: str, url: str, role: str, *,
                 pid: int | None = None,
                 timeout: float = 30.0,
                 failure_threshold: int = FAILURE_THRESHOLD) -> None:
        self.key = key
        self.url = url.rstrip("/")
        parsed = urllib.parse.urlsplit(self.url)
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port
        self.role = role  # "leader" | "replica"
        self.pid = pid
        self.timeout = timeout
        self.failure_threshold = failure_threshold
        # -- observed state (prober + passive updates) -----------------------
        self.healthy = False  # guarded-by: _lock
        self.ready = role == "leader"
        #: highest applied epoch this backend has been seen to serve
        self.epoch = -1  # guarded-by: _lock
        self.lag = 0
        self.consecutive_failures = 0  # guarded-by: _lock
        #: True once consecutive_failures crossed the threshold; reset
        #: by the next successful probe (e.g. a supervisor restart)
        self.evicted = False  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        # -- traffic ---------------------------------------------------------
        self.inflight = 0  # guarded-by: _lock
        self.routed = 0  # guarded-by: _lock
        self._lock = threading.Lock()
        self._pool: list[ClientConnection] = []  # guarded-by: _lock

    # -- connection pool -----------------------------------------------------

    def _checkout(self) -> ClientConnection:
        with self._lock:
            if self._pool:
                return self._pool.pop()
        conn = ClientConnection(self._host, self._port,
                                timeout=self.timeout)
        conn.connect()
        return conn

    def _checkin(self, conn: ClientConnection) -> None:
        with self._lock:
            if len(self._pool) < POOL_CAPACITY:
                self._pool.append(conn)
                return
        conn.close()

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()

    # -- the wire ------------------------------------------------------------

    def exchange(self, method: str, path: str, body: bytes | None,
                 headers: dict[str, str] | None = None,
                 *, timeout: float | None = None,
                 ) -> tuple[int, bytes]:
        """One proxied request on a pooled keep-alive connection.

        *headers* (lower-case names, as the server parses them) override
        the ``accept`` / ``content-type`` defaults. A per-call *timeout*
        bounds this exchange only; a pooled connection goes back with
        the backend's own timeout. A reply that closes the connection
        is not pooled. Raises ``OSError`` on transport failure (the
        caller decides whether another backend retries); the failed
        connection is closed, never pooled.
        """
        conn = self._checkout()
        if timeout is not None:
            conn.settimeout(timeout)
        send_headers = {"accept": "application/json"}
        if body is not None:
            send_headers["content-type"] = "application/json"
        if headers:
            send_headers.update(headers)
        status, payload, keep = conn.request(method, path, body,
                                             send_headers)
        if keep:
            if timeout is not None:
                conn.settimeout(self.timeout)
            self._checkin(conn)
        return status, payload

    # -- health accounting ---------------------------------------------------

    def mark_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0
            if self.evicted:
                self.evicted = False
            self.healthy = True

    def mark_failure(self) -> bool:
        """Record one failure; returns True when this crossed the
        eviction threshold (the caller logs/counts the eviction)."""
        crossed = False
        with self._lock:
            self.consecutive_failures += 1
            self.healthy = False
            if not self.evicted and \
                    self.consecutive_failures >= self.failure_threshold:
                self.evicted = True
                self.evictions += 1
                crossed = True
        if crossed:
            # a dead backend's pooled connections are dead too
            self.close()
        return crossed

    def observe_epoch(self, epoch: int | None) -> None:
        # Check-then-act must be atomic: two probe/response threads
        # racing here could let a lower epoch overwrite a higher one,
        # and the router would briefly route floor-gated reads to a
        # backend it believes is behind (or ahead) of where it is.
        with self._lock:
            if isinstance(epoch, int) and epoch > self.epoch:
                self.epoch = epoch

    def enter(self) -> None:
        with self._lock:
            self.inflight += 1
            self.routed += 1

    def leave(self) -> None:
        with self._lock:
            self.inflight -= 1

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "key": self.key, "url": self.url, "role": self.role,
                "pid": self.pid, "healthy": self.healthy,
                "ready": self.ready, "epoch": self.epoch,
                "lag": self.lag, "inflight": self.inflight,
                "routed": self.routed,
                "consecutive_failures": self.consecutive_failures,
                "evicted": self.evicted, "evictions": self.evictions,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (f"<Backend {self.key} {self.role} "
                    f"epoch={self.epoch} healthy={self.healthy}>")


@dataclass
class SessionState:
    """What the router remembers about one client session."""

    #: highest epoch this session has observed through the router —
    #: the no-time-travel floor for its next request
    floor: int = -1
    #: preferred (sticky) backend key; cursors only resolve here
    backend_key: str | None = None


class EpochBalancer:
    """Session table + candidate ordering over a set of backends."""

    def __init__(self) -> None:
        self._backends: dict[str, Backend] = {}  # guarded-by: _lock
        self._sessions: LRU[str, SessionState] = \
            LRU(SESSION_CAPACITY)  # guarded-by: _lock
        self._lock = threading.Lock()
        self._rr = 0  # guarded-by: _lock

    # -- topology ------------------------------------------------------------

    def add_backend(self, backend: Backend) -> None:
        with self._lock:
            self._backends[backend.key] = backend

    def remove_backend(self, key: str) -> Backend | None:
        with self._lock:
            backend = self._backends.pop(key, None)
        if backend is not None:
            backend.close()
        return backend

    def backends(self) -> list[Backend]:
        with self._lock:
            return list(self._backends.values())

    def backend(self, key: str) -> Backend | None:
        with self._lock:
            return self._backends.get(key)

    @property
    def leader(self) -> Backend | None:
        with self._lock:
            for backend in self._backends.values():
                if backend.role == "leader":
                    return backend
        return None

    def max_epoch(self) -> int:
        return max((b.epoch for b in self.backends()), default=-1)

    # -- sessions ------------------------------------------------------------

    def session(self, session_id: str | None) -> SessionState:
        """The session's state (a fresh one for unknown/absent ids)."""
        if session_id is None:
            return SessionState()
        with self._lock:
            state = self._sessions.get(session_id)
            if state is None:
                state = SessionState()
                self._sessions.put(session_id, state)
            return state

    def note_response(self, session_id: str | None, backend: Backend,
                      epoch: int | None, *, sticky: bool = True) -> None:
        """Raise the session's floor (and, for routed fan-out reads,
        its stickiness) after a successfully served request.

        *sticky* is False for leader-forwarded traffic — describes,
        releases and pinned queries must raise the floor but not drag
        the session's fan-out reads onto the leader permanently.
        """
        backend.observe_epoch(epoch)
        if session_id is None:
            return
        with self._lock:
            state = self._sessions.get(session_id)
            if state is None:
                return
            if isinstance(epoch, int) and epoch > state.floor:
                state.floor = epoch
            if sticky:
                state.backend_key = backend.key

    @property
    def tracked_sessions(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- the decision --------------------------------------------------------

    def candidates(self, *, floor: int,
                   sticky_key: str | None = None) -> list[Backend]:
        """Backends that may serve a request with epoch floor *floor*,
        in routing order.

        Order: the sticky backend first (when fresh enough), then the
        remaining fresh replicas least-loaded first, then the leader —
        always last, always included (it can never be behind). An empty
        list means *no backend at all* can serve without time travel —
        the router's ``no_fresh_replica``.
        """
        with self._lock:
            backends = list(self._backends.values())
            self._rr += 1
            rotation = self._rr
        leader = None
        fresh: list[Backend] = []
        for backend in backends:
            if backend.role == "leader":
                leader = backend
                continue
            if not backend.healthy or backend.evicted or \
                    not backend.ready:
                continue
            if backend.epoch < floor:
                continue  # routing here would time-travel the session
            fresh.append(backend)
        # least-loaded first; equal loads rotate so idle fleets still
        # spread load instead of hammering one replica
        if fresh:
            fresh.sort(key=lambda b: b.inflight)
            if len(fresh) > 1 and all(
                    b.inflight == fresh[0].inflight for b in fresh):
                pivot = rotation % len(fresh)
                fresh = fresh[pivot:] + fresh[:pivot]
        if sticky_key is not None:
            for index, backend in enumerate(fresh):
                if backend.key == sticky_key and index:
                    fresh.insert(0, fresh.pop(index))
                    break
        ordered = fresh
        if leader is not None and (leader.healthy or not fresh):
            # the leader serves as the always-fresh fallback; when it
            # looks unhealthy it is still tried last rather than
            # failing a request that has nowhere else to go
            ordered = fresh + [leader]
        return ordered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (f"<EpochBalancer backends={len(self._backends)} "
                    f"sessions={len(self._sessions)}>")
