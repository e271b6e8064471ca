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

The service's request handling lives in its :class:`~repro.api.
endpoint.ProtocolEndpoint`, the one way in for queries and releases
(in-process calls and the HTTP gateway alike); callers talk to it
through :class:`~repro.api.client.GovernedClient`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from repro.core.ontology import EvolutionEvent
from repro.mdm.system import MDM
from repro.query.answer_cache import AnswerCache
from repro.relational.physical import ScanCache
from repro.service.epoch_lock import EpochLock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.client import GovernedClient
    from repro.api.endpoint import ProtocolEndpoint
    from repro.wrappers.base import Wrapper

__all__ = ["GovernedService", "ServiceStats"]


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

    *max_workers* bounds the thread pool a query batch fans wrapper
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
        #: shared physical-scan cache: every (wrapper, columns)
        #: combination is fetched once across all queries, batches and
        #: releases. A release adds a wrapper and changes no existing
        #: one, so scans are not cleared at epoch boundaries: each key
        #: holds the bound wrapper object and its data_version, which
        #: key out rebinds (snapshot restore, journal replay,
        #: re-registration) and in-place data mutations.
        self.scan_cache = ScanCache()
        #: the engine's full answer cache (repeated analyst panels skip
        #: execution entirely). It is not cleared at epoch boundaries:
        #: each entry's evidence keys out what a release changed, an
        #: answer whose rewriting the release left alone stays a hit,
        #: and an additive release extends an answer by its new
        #: wrapper's rows. ``REPRO_ANSWER_CACHE=0`` in the environment
        #: builds engines without one (memory-constrained replicas,
        #: benchmarks that must stress execution); the service then
        #: keeps a detached, always-empty cache so its observability
        #: surfaces stay valid.
        self.answer_cache = (self.mdm.engine.answer_cache
                             if self.mdm.engine.answer_cache is not None
                             else AnswerCache())
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

        One endpoint per service: the in-process transport and the HTTP
        gateway share its cursor store and idempotency log, so a cursor opened in-process can be
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
        # Epoch boundary: supersede every open pagination cursor (a
        # page stream never switches epochs). Cached answers and scans
        # stay: an answer's evidence (fingerprint, rewriting, data
        # versions, bound objects) decides per lookup whether it is
        # still served, kept, extended or recomputed, and a scan's rows
        # do not depend on T.
        if self._endpoint is not None:
            self._endpoint.on_evolution(event)
        if not self.lock.held_for_write():
            self.stats.bump(bypassed_writes=1)

    # -- drift monitoring ----------------------------------------------------

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
        :meth:`ProtocolEndpoint.handle_release
        <repro.api.endpoint.ProtocolEndpoint.handle_release>`.
        """
        drafts = []
        for monitor in self.drift_monitors:
            draft = monitor.poll()
            if draft is not None:
                drafts.append(draft)
        self.drift_drafts.extend(drafts)
        return drafts

    # -- steward side (writers) ----------------------------------------------

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
