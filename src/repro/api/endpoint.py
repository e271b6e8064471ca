"""The server side of the v1 protocol: one handler, every transport.

:class:`ProtocolEndpoint` turns protocol envelopes into governed work
over one :class:`~repro.service.serving.GovernedService`. It is the
*only* place requests are interpreted — the in-process transport calls
its ``handle_*`` methods directly, the HTTP gateway calls the same
methods after JSON decoding, and :meth:`MDM.client
<repro.mdm.system.MDM.client>` opens a session over it — so in-process
and wire behavior cannot diverge.

What the endpoint adds on top of the serving layer:

* **epoch pinning** — a request carrying ``epoch=k`` is served only if
  the service is still at epoch *k*; otherwise it fails typed with
  ``epoch_superseded`` (the repeatable-reads contract of
  :class:`~repro.api.client.GovernedClient` sessions);
* **cursor pagination** — answers evaluate once under the read lock
  into an epoch-consistent snapshot; the first page returns before the
  full answer is ever serialized, later pages stream from the snapshot,
  and a release landing mid-stream invalidates every open cursor with
  ``epoch_superseded`` (no torn pages, no silent staleness);
* **idempotent releases** — a repeated ``idempotency_key`` replays the
  recorded outcome instead of running Algorithm 1 twice;
* **the error taxonomy** — every exception becomes a machine-readable
  :class:`~repro.api.protocol.ErrorInfo` while in-process callers keep
  the original exception object for faithful re-raising.
"""

from __future__ import annotations

import itertools
import secrets
import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.release import Release
from repro.errors import (
    EpochSuperseded, InvalidCursorError, MalformedRequestError,
    ReadOnlyReplicaError,
)
from repro.api.protocol import (
    DescribeResponse, ErrorInfo, QueryRequest, QueryResponse,
    ReleaseRequest, ReleaseResponse, check_api_version,
)
from repro.util.lru import LRU

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ontology import EvolutionEvent, OntologyFingerprint
    from repro.relational.rows import Relation
    from repro.service.serving import GovernedService

__all__ = ["ProtocolEndpoint"]

#: open cursors kept per endpoint before the least-recently-used one is
#: evicted (a bounded server-side footprint under heavy pagination)
CURSOR_CAPACITY = 256

#: recorded release outcomes kept for idempotent replay
IDEMPOTENCY_CAPACITY = 256


@dataclass
class _Cursor:
    """Server-side state of one paginated answer."""

    relation: "Relation"
    epoch: int
    fingerprint: tuple[int, int]
    page_size: int
    offset: int
    #: pages already served (the next page's 0-based index)
    page: int
    request_id: str | None
    distinct: bool
    #: set by the evolution listener when a release lands; the next
    #: fetch fails typed instead of serving a superseded snapshot
    superseded: bool = field(default=False)


class ProtocolEndpoint:
    """v1 protocol handler over one governed service."""

    def __init__(self, service: "GovernedService") -> None:
        self.service = service
        self._cursors: LRU[str, _Cursor] = LRU(CURSOR_CAPACITY)
        self._replays: LRU[str, ReleaseResponse] = LRU(IDEMPOTENCY_CAPACITY)
        self._state_lock = threading.Lock()
        self._token_counter = itertools.count(1)
        # Both volatile stores are scoped to the journal's boot id:
        # cursor tokens embed it (a token minted before a restart can
        # never resolve against post-recovery state), and the
        # idempotency replay store is *re-seeded from the journal* with
        # epochs recomputed during recovery replay — never the epochs a
        # previous boot recorded, which would be stale after a
        # snapshot-assisted restart. Seeding in journal order leaves
        # the newest outcomes when recovery holds more than fit.
        info = service.journal_info()
        self.boot_id = ((info or {}).get("boot_id")
                        or secrets.token_hex(8))
        for key, outcome in service.mdm.recovered_idempotency.items():
            self._replays.put(key, ReleaseResponse(
                ok=True, epoch=outcome.get("epoch"),
                triples_added=outcome.get("triples_added"),
                replayed=False))

    # -- lifecycle hooks -----------------------------------------------------

    def on_evolution(self, event: "EvolutionEvent") -> None:
        """Ontology evolution observed: supersede every open cursor.

        Wired through :meth:`GovernedService._on_evolution
        <repro.service.serving.GovernedService>`, so governed releases
        *and* bypassed writes both invalidate open pagination — a page
        stream never silently switches epochs mid-answer.
        """
        with self._state_lock:
            for state in self._cursors.values():
                state.superseded = True

    @property
    def open_cursors(self) -> int:
        with self._state_lock:
            return len(self._cursors)

    # -- queries -------------------------------------------------------------

    def handle_query(self, request: QueryRequest, *,
                     materialize: bool = True) -> QueryResponse:
        """Answer one :class:`QueryRequest` (fresh or continuation).

        ``materialize=False`` is for a caller that encodes the answer
        itself (the HTTP gateway): a full answer (no cursor) then comes
        back with ``rows=None`` and its rows only on :attr:`relation
        <repro.api.protocol.QueryResponse.relation>`, so no row dict is
        built for it. Pages and errors are unaffected.
        """
        started = time.perf_counter()
        try:
            check_api_version(request.api_version)
            request.validate()
            if request.cursor is not None:
                return self._continue_page(request, started)
            service = self.service
            with service.lock.read(request.timeout) as epoch:
                self._check_pin(request.epoch, epoch)
                service.stats.bump(queries=1)
                relation = service.mdm.engine.answer(
                    request.query, distinct=request.distinct,
                    scan_cache=service.scan_cache)
                fingerprint = service.mdm.ontology.fingerprint()
                # Build the page (and register its cursor) before
                # leaving the read section: a release draining readers
                # cannot land between evaluation and cursor
                # registration, so no cursor can dodge the
                # supersede-on-evolution sweep.
                return self._first_page(request, relation, epoch,
                                        _fp(fingerprint), started,
                                        materialize)
        except Exception as exc:
            return self._query_error(request, exc, started)

    def handle_query_batch(self, requests: Sequence[QueryRequest], *,
                           workers: int | None = None,
                           ) -> list[QueryResponse]:
        """Answer a batch under *one* read section (one serving epoch).

        The heavy lifting — canonical-key deduplication, the thread-pool
        fan-out, the shared scan cache — is :meth:`QueryEngine.
        answer_many <repro.query.engine.QueryEngine.answer_many>`'s.
        Each slot fails independently (an error envelope takes its
        place); continuation cursors cannot ride in a batch. All
        requests must agree on ``distinct`` — the batch is one unit of
        planning. The strictest (smallest) per-request timeout bounds
        the whole batch's wait for a draining release.
        """
        started = time.perf_counter()
        requests = list(requests)
        if not requests:
            return []
        try:
            for request in requests:
                check_api_version(request.api_version)
                request.validate()
                if request.cursor is not None:
                    raise MalformedRequestError(
                        "continuation cursors cannot be batched; fetch "
                        "pages one by one")
            distincts = {request.distinct for request in requests}
            if len(distincts) > 1:
                raise MalformedRequestError(
                    "a batch must agree on distinct")
            timeouts = [r.timeout for r in requests
                        if r.timeout is not None]
            timeout = min(timeouts) if timeouts else None
        except Exception as exc:
            return [self._query_error(request, exc, started)
                    for request in requests]

        service = self.service
        try:
            with service.lock.read(timeout) as epoch:
                service.stats.bump(batches=1,
                                   batched_queries=len(requests),
                                   queries=len(requests))
                live = [i for i, r in enumerate(requests)
                        if r.epoch is None or r.epoch == epoch]
                outcomes = service.mdm.engine.answer_many(
                    [requests[i].query for i in live],
                    distinct=requests[0].distinct,
                    workers=(service.max_workers if workers is None
                             else workers),
                    return_exceptions=True,
                    scan_cache=service.scan_cache)
                fingerprint = _fp(service.mdm.ontology.fingerprint())
                # Pages and cursors are built inside the read section
                # (see handle_query) so no slot's cursor can miss a
                # release's supersede sweep.
                by_slot: dict[int, "Relation | Exception"] = dict(
                    zip(live, outcomes))
                responses: list[QueryResponse] = []
                for i, request in enumerate(requests):
                    if i not in by_slot:
                        outcome: Exception = EpochSuperseded(
                            f"request pinned epoch {request.epoch}, "
                            f"the service now serves epoch {epoch}",
                            requested=request.epoch, serving=epoch)
                    else:
                        outcome = by_slot[i]
                    if isinstance(outcome, Exception):
                        # Error slots still report the batch's serving
                        # epoch — the evidence a failed slot observed
                        # the same release state as its siblings.
                        responses.append(replace(
                            self._query_error(request, outcome,
                                              started),
                            epoch=epoch, fingerprint=fingerprint))
                    else:
                        responses.append(self._first_page(
                            request, outcome, epoch, fingerprint,
                            started))
                return responses
        except Exception as exc:
            return [self._query_error(request, exc, started)
                    for request in requests]

    def _check_pin(self, requested: int | None, serving: int) -> None:
        if requested is not None and requested != serving:
            raise EpochSuperseded(
                f"request pinned epoch {requested}, the service now "
                f"serves epoch {serving}",
                requested=requested, serving=serving)

    def _first_page(self, request: QueryRequest, relation: "Relation",
                    epoch: int, fingerprint: tuple[int, int],
                    started: float,
                    materialize: bool = True) -> QueryResponse:
        columns = list(relation.schema.attribute_names)
        total = len(relation)
        size = request.page_size
        rows: list[dict[str, Any]] | None
        if size is None or total <= size:
            rows = relation.rows if materialize else None
            cursor = None
            has_more = False
        else:
            # The snapshot stays server-side; only the first page is
            # materialized into the response.
            rows = relation.page(0, size)
            cursor = self._store_cursor(request, relation, epoch,
                                        fingerprint, size)
            has_more = True
        return QueryResponse(
            ok=True, columns=columns, rows=rows, epoch=epoch,
            fingerprint=fingerprint, cursor=cursor, page=0,
            total_rows=total, has_more=has_more,
            request_id=request.request_id,
            elapsed_ms=_elapsed(started), relation=relation)

    def _store_cursor(self, request: QueryRequest, relation: "Relation",
                      epoch: int, fingerprint: tuple[int, int],
                      size: int) -> str:
        token = (f"{self.boot_id}.c{next(self._token_counter)}."
                 f"{secrets.token_hex(12)}")
        state = _Cursor(relation=relation, epoch=epoch,
                        fingerprint=fingerprint, page_size=size,
                        offset=size, page=1,
                        request_id=request.request_id,
                        distinct=request.distinct)
        with self._state_lock:
            self._cursors.put(token, state)
        return token

    def _continue_page(self, request: QueryRequest,
                       started: float) -> QueryResponse:
        token = request.cursor
        with self._state_lock:
            state = self._cursors.get(token)
            if state is None:
                if token and not token.startswith(f"{self.boot_id}."):
                    raise InvalidCursorError(
                        "cursor was issued by a previous boot of this "
                        "service; its snapshot did not survive the "
                        "restart — re-issue the query")
                raise InvalidCursorError(
                    "unknown, exhausted or evicted cursor")
            if state.superseded:
                self._cursors.pop(token)
                raise EpochSuperseded(
                    f"cursor opened at epoch {state.epoch} was "
                    "invalidated by a release; re-issue the query to "
                    "read the new epoch",
                    requested=state.epoch,
                    serving=self.service.lock.epoch)
            self._check_pin(request.epoch, state.epoch)
            size = request.page_size or state.page_size
            rows = state.relation.page(state.offset, size)
            page = state.page
            total = len(state.relation)
            state.offset += len(rows)
            state.page += 1
            has_more = state.offset < total
            if not has_more:
                self._cursors.pop(token)
            relation = state.relation
            epoch, fingerprint = state.epoch, state.fingerprint
        return QueryResponse(
            ok=True, columns=list(relation.schema.attribute_names),
            rows=rows, epoch=epoch, fingerprint=fingerprint,
            cursor=token if has_more else None, page=page,
            total_rows=total, has_more=has_more,
            request_id=request.request_id,
            elapsed_ms=_elapsed(started))

    def _query_error(self, request: QueryRequest, exc: Exception,
                     started: float) -> QueryResponse:
        return QueryResponse(
            ok=False, error=ErrorInfo.of(exc),
            request_id=request.request_id,
            elapsed_ms=_elapsed(started), exception=exc)

    # -- releases ------------------------------------------------------------

    def handle_release(self, request: ReleaseRequest) -> ReleaseResponse:
        """Land one release: drain readers, Algorithm 1, readmit.

        With an :attr:`~repro.api.protocol.ReleaseRequest.
        idempotency_key`, a repeated submission replays the recorded
        response (``replayed=True``) without touching the ontology.
        """
        started = time.perf_counter()
        try:
            check_api_version(request.api_version)
            request.validate()
            if getattr(self.service, "read_only", False):
                raise ReadOnlyReplicaError(
                    "this endpoint serves a journal-tailing read "
                    "replica; submit releases to the leader")
            key = request.idempotency_key
            if key is not None:
                with self._state_lock:
                    recorded = self._replays.get(key)
                if recorded is not None:
                    return recorded.replayed_as(request.request_id)
            service = self.service
            drain_timeout = request.timeout \
                if request.timeout is not None else service.drain_timeout
            with service.lock.write(drain_timeout) as next_epoch:
                # Replay may have raced us to the write lock: re-check
                # under a fresh look at the replay log.
                if key is not None:
                    with self._state_lock:
                        recorded = self._replays.get(key)
                    if recorded is not None:
                        return recorded.replayed_as(request.request_id)
                # Release assembly reads the ontology (alignment,
                # subgraph induction) — it must see a settled epoch,
                # so it happens inside the exclusive section too.
                release, absorbed = self._materialize(request)
                service.stats.bump(releases=1)
                delta = service.mdm.register_release(
                    release, absorbed_concepts=absorbed,
                    idempotency_key=key)
                response = ReleaseResponse(
                    ok=True, epoch=next_epoch,
                    fingerprint=_fp(service.mdm.ontology.fingerprint()),
                    triples_added=delta,
                    replayed=False, request_id=request.request_id,
                    elapsed_ms=_elapsed(started))
                # Record the outcome before readmitting anyone: a
                # racing duplicate submission must find it under the
                # write lock, never re-run Algorithm 1.
                if key is not None:
                    with self._state_lock:
                        self._replays.put(key, response)
            return response
        except Exception as exc:
            return ReleaseResponse(
                ok=False, error=ErrorInfo.of(exc),
                request_id=request.request_id,
                elapsed_ms=_elapsed(started), exception=exc)

    def _materialize(self, request: ReleaseRequest,
                     ) -> tuple[Release, "frozenset | None"]:
        """A declarative release request → a ready-to-apply Release."""
        from repro.rdf.term import IRI
        absorbed = frozenset(IRI(c) for c in request.absorbed_concepts) \
            if request.absorbed_concepts else None
        if request.release is not None:
            return request.release, absorbed
        from repro.evolution.release_builder import build_release
        release = build_release(
            self.service.mdm.ontology, request.source, request.wrapper,
            id_attributes=list(request.id_attributes),
            non_id_attributes=list(request.non_id_attributes),
            feature_hints=request.feature_hints)
        if request.physical_wrapper is not None:
            release.wrapper = request.physical_wrapper
        elif request.rows is not None:
            from repro.wrappers.base import StaticWrapper
            release.wrapper = StaticWrapper(
                request.wrapper, request.source,
                id_attributes=list(request.id_attributes),
                non_id_attributes=list(request.non_id_attributes),
                rows=request.rows)
        return release, absorbed

    # -- describe ------------------------------------------------------------

    def handle_describe(self, timeout: float | None = None,
                        ) -> DescribeResponse:
        """A consistent snapshot of ontology statistics + serving state."""
        started = time.perf_counter()
        service = self.service
        try:
            with service.lock.read(timeout) as epoch:
                statistics = service.mdm.statistics()
                fingerprint = _fp(service.mdm.ontology.fingerprint())
            return DescribeResponse(
                ok=True, epoch=epoch, fingerprint=fingerprint,
                statistics=statistics,
                service={
                    "stats": service.stats.snapshot(),
                    "lock": service.lock.stats.snapshot(),
                    "scan_cache": service.scan_cache.stats.snapshot(),
                    "answer_cache":
                        service.answer_cache.stats.snapshot(),
                    "rewrite_cache": (
                        service.mdm.cache.stats.snapshot()
                        if service.mdm.cache is not None else None),
                    "open_cursors": self.open_cursors,
                    "max_workers": service.max_workers,
                    "journal": service.journal_info(),
                    # Last-run operator timings: per-query PlanMetrics
                    # trees plus per-wrapper scan aggregates, so fleet
                    # operators can spot a slow wrapper from /describe
                    # without attaching a profiler. Rides in the
                    # free-form service dict — the envelope itself is
                    # frozen.
                    "plan_metrics": {
                        "queries": [
                            {"query": key, "metrics": tree.snapshot()}
                            for key, tree
                            in service.mdm.engine.plan_metrics_log()],
                        "wrapper_timings":
                            service.mdm.engine.wrapper_timings(),
                    },
                },
                elapsed_ms=_elapsed(started))
        except Exception as exc:
            return DescribeResponse(
                ok=False, error=ErrorInfo.of(exc),
                elapsed_ms=_elapsed(started), exception=exc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ProtocolEndpoint epoch={self.service.lock.epoch} "
                f"cursors={self.open_cursors}>")


def _fp(fingerprint: "OntologyFingerprint") -> tuple[int, int]:
    return (fingerprint.epoch, fingerprint.structure)


def _elapsed(started: float) -> float:
    return round((time.perf_counter() - started) * 1000.0, 3)
