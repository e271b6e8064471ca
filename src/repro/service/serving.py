"""The governed serving layer: concurrent analysts, serialized releases.

:class:`GovernedService` fronts an :class:`~repro.mdm.system.MDM` with
the concurrency contract the paper's MDM needs once many analysts query
one *evolving* BDI ontology (§6.1 under load):

* **queries are readers** — they enter an :class:`~repro.service.
  epoch_lock.EpochLock` read section, snapshot the ontology fingerprint
  and run lock-free on the warm rewrite cache; arbitrarily many run in
  parallel;
* **releases are writers** — they block new queries, drain the in-flight
  ones, mutate ``T`` through Algorithm 1 and only then readmit readers;
* every answer is tagged with the *serving epoch* it observed, so an
  answer is always consistent with exactly one release — never torn
  across a mutation, never stale after one (the rewrite cache
  invalidates by concept as before).

The service also registers an ontology evolution listener: a mutation of
``T`` that lands *outside* a service write section (someone calling
Algorithm 1 behind the service's back) is counted as a bypassed write —
the cache still protects correctness via fingerprints, but the operator
can see that the single-writer discipline was violated.

Since the protocol redesign, the service's request handling lives in
its :class:`~repro.api.endpoint.ProtocolEndpoint` (one implementation
for in-process calls and the HTTP gateway); :meth:`GovernedService.
serve`, :meth:`serve_many` and :meth:`apply_release` remain as thin
shims over protocol envelopes so existing call sites keep working.
New code should talk to :class:`~repro.api.client.GovernedClient`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING, Iterable

from repro.core.ontology import EvolutionEvent, OntologyFingerprint
from repro.core.release import Release
from repro.errors import AnswerFailed
from repro.mdm.system import MDM
from repro.query.omq import OMQ
from repro.relational.physical import ScanCache
from repro.relational.rows import Relation
from repro.service.epoch_lock import EpochLock
from repro.rdf.term import IRI

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.client import GovernedClient
    from repro.api.endpoint import ProtocolEndpoint
    from repro.wrappers.base import Wrapper

__all__ = ["GovernedService", "ServedAnswer", "ServiceStats"]


@dataclass(frozen=True)
class ServedAnswer:
    """One answered query plus the consistency evidence it was served
    under: the serving epoch (completed releases observed) and the
    ontology fingerprint snapshotted inside the read section.

    A failed query in a ``return_exceptions=True`` batch yields a slot
    with :attr:`relation` ``None`` and the exception in :attr:`error`.
    """

    relation: Relation | None
    #: serving epoch (EpochLock write count) the answer observed
    epoch: int
    #: ontology fingerprint at answering time
    fingerprint: OntologyFingerprint
    #: the query's failure, when the batch was asked not to raise
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.relation is not None

    def require(self) -> Relation:
        """The relation, or the typed failure of this slot.

        Re-raises the stored :attr:`error`; a slot that somehow carries
        neither relation nor error raises
        :class:`~repro.errors.AnswerFailed` instead of a bare
        ``AttributeError`` downstream.
        """
        if self.error is not None:
            raise self.error
        if self.relation is None:
            raise AnswerFailed(
                "answer slot holds no relation and recorded no error "
                f"(epoch {self.epoch})")
        return self.relation

    @property
    def rows(self) -> list[dict[str, object]]:
        """The answer rows; raises the slot's typed failure instead."""
        return self.require().rows


@dataclass
class ServiceStats:
    """Observability counters for one :class:`GovernedService`.

    Increments come from concurrently running reader threads, so they
    go through :meth:`bump`, which serializes on an internal lock —
    ``+=`` on a bare attribute can lose updates under contention.
    """

    queries: int = 0
    batches: int = 0
    batched_queries: int = 0
    releases: int = 0
    #: evolution events observed outside a service write section
    bypassed_writes: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def bump(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "queries": self.queries,
                "batches": self.batches,
                "batched_queries": self.batched_queries,
                "releases": self.releases,
                "bypassed_writes": self.bypassed_writes,
            }


class GovernedService:
    """Thread-safe query serving over one MDM.

    *max_workers* bounds the thread pool :meth:`serve_many` fans wrapper
    evaluation out on; ``drain_timeout`` (seconds, ``None`` = wait
    forever) bounds how long a release may wait for in-flight queries.
    """

    def __init__(self, mdm: MDM | None = None, *,
                 max_workers: int = 4,
                 drain_timeout: float | None = None,
                 state_dir: "str | None" = None,
                 read_only: bool = False) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if mdm is None:
            # A state_dir makes the service durable: every release is
            # journaled before it applies, and reopening the same
            # directory recovers the governed history.
            mdm = MDM.open(state_dir) if state_dir is not None else MDM()
        elif state_dir is not None:
            raise ValueError(
                "pass either a ready MDM or a state_dir, not both")
        self.mdm = mdm
        self.max_workers = max_workers
        self.drain_timeout = drain_timeout
        #: True for journal-tailing replicas: the endpoint rejects
        #: release submissions with ``read_only_replica``
        self.read_only = read_only
        #: replica-installed override for :meth:`journal_info`
        self._journal_info_override = None
        self.lock = EpochLock()
        self.stats = ServiceStats()
        #: shared physical-scan cache: every (wrapper, columns, filter)
        #: combination is fetched once across all queries, batches and
        #: releases. A release adds a wrapper and changes no existing
        #: one, so scans are not cleared at epoch boundaries: each key
        #: holds the bound wrapper object and its data_version, which
        #: key out rebinds (snapshot restore, journal replay,
        #: re-registration) and in-place data mutations.
        self.scan_cache = ScanCache()
        #: the engine's full answer cache (repeated analyst panels skip
        #: execution entirely); cleared at every epoch boundary through
        #: the evolution listener, because answers do change. If the
        #: engine was built with ``use_answer_cache=False`` the service
        #: installs its own so governed serving always has one.
        #: ``REPRO_ANSWER_CACHE=0`` in the environment opts a deployment
        #: out (memory-constrained replicas, benchmarks that must stress
        #: execution); the service then keeps a detached, always-empty
        #: cache so its observability surfaces stay valid.
        from repro.query.answer_cache import (
            AnswerCache, answer_cache_env_enabled,
        )
        if self.mdm.engine.answer_cache is None and \
                answer_cache_env_enabled():
            self.mdm.engine.answer_cache = AnswerCache()
        self.answer_cache = (self.mdm.engine.answer_cache
                             if self.mdm.engine.answer_cache is not None
                             else AnswerCache())
        #: registered standing panels: name → the OMQs the panel
        #: serves. Panel answers are maintained incrementally (when the
        #: engine's patch path is on) — a :meth:`refresh_panels` tick,
        #: or any ordinary read of the same query, brings them current
        #: for O(Δ) against the CDC change streams.
        self.panels: dict[str, tuple[OMQ | str, ...]] = {}
        #: attached change-stream drift monitors (see
        #: :meth:`attach_drift_monitor`) and the drafts they produced
        #: awaiting steward review
        self.drift_monitors: list = []
        self.drift_drafts: list = []
        #: lazily built protocol handler (see :attr:`endpoint`)
        self._endpoint: "ProtocolEndpoint | None" = None
        self.mdm.ontology.add_evolution_listener(self._on_evolution)

    @property
    def endpoint(self) -> "ProtocolEndpoint":
        """The v1 protocol handler over this service (memoized).

        One endpoint per service: the in-process transport, the HTTP
        gateway and the legacy ``serve*`` shims all share its cursor
        store and idempotency log, so a cursor opened in-process can be
        continued over the wire and vice versa.
        """
        if self._endpoint is None:
            from repro.api.endpoint import ProtocolEndpoint
            self._endpoint = ProtocolEndpoint(self)
        return self._endpoint

    def client(self, *, pin: bool = False,
               timeout: float | None = None) -> "GovernedClient":
        """A :class:`~repro.api.client.GovernedClient` session over
        this service (the documented way to consume it)."""
        from repro.api.client import GovernedClient
        return GovernedClient(self, pin=pin, timeout=timeout)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Detach from the ontology's evolution feed (idempotent).

        A closed service stops observing bypassed writes; if it was the
        MDM's memoized service (:meth:`MDM.serving
        <repro.mdm.system.MDM.serving>`), the MDM forgets it so the
        next ``serving()`` call mints a fresh one.
        """
        self.mdm.ontology.remove_evolution_listener(self._on_evolution)
        if getattr(self.mdm, "_serving", None) is self:
            self.mdm._serving = None

    def _on_evolution(self, event: EvolutionEvent) -> None:
        # Epoch boundary: materialized answers may describe the
        # pre-release state; drop them (the answer cache's per-entry
        # fingerprint evidence would key them out anyway — clearing
        # eagerly frees the memory at the boundary), and supersede
        # every open pagination cursor (a page stream never switches
        # epochs). Cached scans stay: their rows do not depend on T.
        self.answer_cache.clear()
        if self._endpoint is not None:
            self._endpoint.on_evolution(event)
        if not self.lock.held_for_write():
            self.stats.bump(bypassed_writes=1)

    # -- analyst side (readers) ----------------------------------------------

    def serve(self, query: OMQ | str, distinct: bool = True,
              timeout: float | None = None) -> ServedAnswer:
        """Answer one OMQ under the read lock, with epoch evidence.

        Legacy shim: builds a :class:`~repro.api.protocol.QueryRequest`
        and routes through :attr:`endpoint`, re-raising failures as
        their original exceptions. Prefer :meth:`client`.
        """
        from repro.api.protocol import QueryRequest
        response = self.endpoint.handle_query(QueryRequest(
            query=query, distinct=distinct,
            timeout=timeout)).raise_for_error()
        return ServedAnswer(
            relation=response.relation, epoch=response.epoch,
            fingerprint=OntologyFingerprint(*response.fingerprint))

    def answer(self, query: OMQ | str, distinct: bool = True,
               timeout: float | None = None) -> Relation:
        """Answer one OMQ; the epoch-less convenience form of
        :meth:`serve`."""
        return self.serve(query, distinct=distinct,
                          timeout=timeout).relation

    def serve_many(self, queries: Iterable[OMQ | str],
                   distinct: bool = True,
                   workers: int | None = None,
                   return_exceptions: bool = False,
                   timeout: float | None = None) -> list[ServedAnswer]:
        """Answer a batch under *one* read section.

        The whole batch observes a single serving epoch — a release
        either precedes every answer in the batch or follows all of
        them. Legacy shim over :meth:`ProtocolEndpoint.
        handle_query_batch <repro.api.endpoint.ProtocolEndpoint.
        handle_query_batch>`; deduplication and the evaluation fan-out
        are :meth:`QueryEngine.answer_many
        <repro.query.engine.QueryEngine.answer_many>`'s, duplicates in
        the batch share one relation object. With
        ``return_exceptions=True`` a failed query yields a
        :class:`ServedAnswer`-shaped slot holding the exception in
        ``relation``'s place.
        """
        from repro.api.protocol import QueryRequest
        responses = self.endpoint.handle_query_batch(
            [QueryRequest(query=query, distinct=distinct,
                          timeout=timeout) for query in queries],
            workers=workers)
        answers: list[ServedAnswer] = []
        for response in responses:
            if response.error is not None and not return_exceptions:
                response.raise_for_error()
            fingerprint = (
                OntologyFingerprint(*response.fingerprint)
                if response.fingerprint is not None
                else self.mdm.ontology.fingerprint())
            answers.append(ServedAnswer(
                relation=response.relation,
                epoch=response.epoch if response.epoch is not None
                else self.lock.epoch,
                fingerprint=fingerprint, error=response.exception))
        return answers

    def answer_many(self, queries: Iterable[OMQ | str],
                    distinct: bool = True,
                    workers: int | None = None,
                    return_exceptions: bool = False,
                    timeout: float | None = None,
                    ) -> list[Relation | Exception]:
        """Batch answering without the epoch evidence."""
        return [served.relation if served.ok else served.error
                for served in self.serve_many(
                    queries, distinct=distinct, workers=workers,
                    return_exceptions=return_exceptions,
                    timeout=timeout)]

    # -- standing panels (incremental maintenance) ---------------------------

    def register_panel(self, name: str,
                       queries: Iterable[OMQ | str],
                       distinct: bool = True,
                       warm: bool = True) -> None:
        """Declare a served panel: a named set of OMQs kept warm.

        ``warm=True`` answers the panel immediately, so its entries
        (and, once the sources churn, their standing queries) live in
        the answer cache from the start. Re-registering a name replaces
        its query set.
        """
        self.panels[name] = tuple(queries)
        if warm:
            self.serve_many(self.panels[name], distinct=distinct,
                            return_exceptions=True)

    def refresh_panels(self, workers: int | None = None,
                       distinct: bool = True) -> dict[str, dict]:
        """One maintenance tick: re-answer every registered panel.

        Each panel batch runs under one read section; stale cached
        answers are *patched* through their standing queries (O(Δ)
        against the sources' change logs) rather than recomputed, and
        the per-panel report says which it was: ``{queries, failures,
        patches, seeds, fallbacks, hits}`` — the deltas of the answer
        cache's counters across the tick.
        """
        report: dict[str, dict] = {}
        for name, queries in self.panels.items():
            stats = self.answer_cache.stats
            before = (stats.patches, stats.seeds, stats.fallbacks,
                      stats.hits)
            served = self.serve_many(queries, distinct=distinct,
                                     workers=workers,
                                     return_exceptions=True)
            report[name] = {
                "queries": len(served),
                "failures": sum(1 for s in served if not s.ok),
                "patches": stats.patches - before[0],
                "seeds": stats.seeds - before[1],
                "fallbacks": stats.fallbacks - before[2],
                "hits": stats.hits - before[3],
            }
        return report

    def attach_drift_monitor(self, monitor: Any) -> None:
        """Attach a change-stream drift monitor (e.g. a
        :class:`~repro.streaming.drift_feed.CollectionDriftMonitor`):
        :meth:`poll_drift` will tail it for in-flight schema drift."""
        self.drift_monitors.append(monitor)

    def poll_drift(self) -> list:
        """Screen every attached monitor's change stream once.

        New drafts (auto-drafted releases, or pending-confirmation
        reports for low-confidence renames) are returned *and*
        accumulated on :attr:`drift_drafts` for the steward — this
        deliberately never applies a release by itself: adaptation
        stays semi-automatic, the steward lands drafts through
        :meth:`apply_release`.
        """
        drafts = []
        for monitor in self.drift_monitors:
            draft = monitor.poll()
            if draft is not None:
                drafts.append(draft)
        self.drift_drafts.extend(drafts)
        return drafts

    # -- steward side (writers) ----------------------------------------------

    def apply_release(self, release: Release,
                      absorbed_concepts: "frozenset[IRI] | set[IRI] | "
                      "None" = None) -> dict[str, int]:
        """Land a release: drain readers, run Algorithm 1, readmit.

        Legacy shim over :meth:`ProtocolEndpoint.handle_release
        <repro.api.endpoint.ProtocolEndpoint.handle_release>` (a typed
        :class:`~repro.api.protocol.ReleaseRequest`). Returns Algorithm
        1's triples-added delta. Queries issued after this returns
        observe a strictly larger serving epoch.
        """
        from repro.api.protocol import ReleaseRequest
        response = self.endpoint.handle_release(ReleaseRequest(
            release=release,
            absorbed_concepts=tuple(
                str(c) for c in (absorbed_concepts or ())),
            timeout=self.drain_timeout)).raise_for_error()
        return response.triples_added

    def register_wrapper(self, wrapper: "Wrapper", **kwargs: Any,
                         ) -> dict[str, int]:
        """Writer-side :meth:`MDM.register_wrapper` (same keywords).

        Runs entirely inside the write section: release *assembly*
        (:meth:`MDM.build_wrapper_release
        <repro.mdm.system.MDM.build_wrapper_release>` reads the
        ontology for alignment and subgraph induction) must observe a
        settled epoch, exactly like the declarative release path in
        :meth:`ProtocolEndpoint.handle_release
        <repro.api.endpoint.ProtocolEndpoint.handle_release>`.
        """
        if self.read_only:
            from repro.errors import ReadOnlyReplicaError
            raise ReadOnlyReplicaError(
                "this service is a read replica; submit releases to "
                "the journal's leader")
        with self.lock.write(self.drain_timeout):
            self.stats.bump(releases=1)
            return self.mdm.register_wrapper(wrapper, **kwargs)

    # -- introspection -------------------------------------------------------

    def journal_info(self) -> "dict | None":
        """Durability & replication state for ``describe``.

        ``{seq, boot_id, snapshot_seq, replica_lag, role}`` — from the
        MDM's journal on a leader, from the replica's tail position on
        a follower, ``None`` for a purely in-memory service.
        """
        if self._journal_info_override is not None:
            return self._journal_info_override()
        return self.mdm.journal_info()

    @property
    def epoch(self) -> int:
        """Completed releases served by this service."""
        return self.lock.epoch

    def describe(self) -> str:
        """Human-readable serving-layer state (lock, batches, cache)."""
        from repro.mdm.analyst import describe_service
        return describe_service(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<GovernedService epoch={self.lock.epoch} "
                f"queries={self.stats.queries} "
                f"releases={self.stats.releases}>")
