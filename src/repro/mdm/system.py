"""The Metadata Management System facade (paper §6.1, Figures 9-10).

:class:`MDM` bundles the full lifecycle behind one object:

* the **steward** registers sources and releases (Algorithm 1), aided by
  subgraph suggestion and attribute alignment;
* the **analyst** poses OMQs (SPARQL text or :class:`OMQBuilder`) and
  receives relational results, with `explain` exposing the rewriting;
* the ontology can be exported (N-Quads for the whole dataset, Turtle per
  graph) and inspected (triple counts, validation).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.core.ontology import BDIOntology
from repro.core.release import Release
from repro.errors import ReleaseError, SnapshotError
from repro.evolution.release_builder import build_release
from repro.mdm.analyst import OMQBuilder, describe_cache, \
    describe_global_graph
from repro.mdm.steward import align_attributes, suggest_subgraphs
from repro.query.cache import RewriteCache
from repro.query.engine import QueryEngine
from repro.query.omq import OMQ
from repro.query.rewriter import RewritingResult
from repro.rdf.ntriples import serialize_nquads
from repro.rdf.term import IRI
from repro.rdf.turtle import serialize_turtle
from repro.relational.rows import Relation
from repro.storage.journal import (
    Journal, execute_command, execute_release, replay_into,
)
from repro.storage.snapshot import Snapshot, restore_state, take_snapshot
from repro.util.lru import LRU
from repro.wrappers.base import Wrapper

__all__ = ["MDM"]

#: on-disk layout of one ``state_dir``
JOURNAL_FILE = "journal.jsonl"
SNAPSHOT_FILE = "snapshot.json"

#: journaled idempotency outcomes retained for replay across restarts
#: (matches the endpoint-side replay store's order of magnitude)
IDEMPOTENCY_OUTCOMES_KEPT = 512


class MDM:
    """One-stop facade over ontology, rewriting and execution."""

    def __init__(self, ontology: BDIOntology | None = None,
                 use_cache: bool = True) -> None:
        self.ontology = ontology or BDIOntology()
        self.engine = QueryEngine(self.ontology, use_cache=use_cache)
        self.release_log: list[Release] = []
        self._serving = None
        #: the durable command journal (attached by :meth:`open`);
        #: when set, every release is journaled before it is applied
        self.journal: Journal | None = None
        self._snapshot_path: Path | None = None
        self._snapshot_seq = 0
        #: idempotency outcomes recovered from the journal at
        #: :meth:`open` time (key -> {"seq", "epoch", "triples_added"});
        #: the protocol endpoint seeds its replay store from this
        self.recovered_idempotency: LRU[str, dict[str, Any]] = LRU(
            IDEMPOTENCY_OUTCOMES_KEPT)

    # -- durable lifecycle ---------------------------------------------------

    @classmethod
    def open(cls, state_dir: str | Path, *,
             use_cache: bool = True, fsync: bool = True) -> "MDM":
        """Open (or create) a durable MDM rooted at *state_dir*.

        Recovery runs snapshot-then-journal: if ``snapshot.json``
        exists its state is restored first (fingerprint-exact), then
        every journal record past the snapshot's sequence number is
        replayed through the deterministic command executor. A fresh
        directory yields an empty governed MDM whose first mutation
        starts the journal. A ``boot`` record is appended on every
        open, scoping volatile serving state (cursors, idempotency
        replays) to this process lifetime.
        """
        state = Path(state_dir)
        state.mkdir(parents=True, exist_ok=True)
        snapshot_path = state / SNAPSHOT_FILE
        snapshot_seq = 0
        recovered: dict[str, dict[str, Any]] = {}
        if snapshot_path.exists():
            snapshot = Snapshot.read(snapshot_path)
            ontology, release_log = restore_state(snapshot)
            mdm = cls(ontology, use_cache=use_cache)
            mdm.release_log = release_log
            snapshot_seq = snapshot.seq
            recovered.update(snapshot.idempotency)
        else:
            mdm = cls(use_cache=use_cache)
        journal = Journal.open(state / JOURNAL_FILE, fsync=fsync)
        # Journal-suffix outcomes override snapshotted ones (same key,
        # later release wins — replay recomputes the exact epochs).
        recovered.update(replay_into(
            mdm, journal.records(after=snapshot_seq), journal=journal))
        for key, outcome in recovered.items():
            mdm.recovered_idempotency.put(key, outcome)
        journal.append_boot()
        mdm.journal = journal
        mdm._snapshot_path = snapshot_path
        mdm._snapshot_seq = snapshot_seq
        return mdm

    def snapshot(self, path: str | Path | None = None) -> Snapshot:
        """Checkpoint the current state (see :mod:`repro.storage.snapshot`).

        Must not race mutations: call it from the steward thread, or
        inside the service's write lock. With no explicit *path* the
        snapshot lands at the state dir's ``snapshot.json`` and future
        :meth:`open` calls restore from it instead of replaying the
        full journal.
        """
        if path is None:
            if self._snapshot_path is None:
                raise SnapshotError(
                    "this MDM has no state dir; open it with "
                    "MDM.open(state_dir) or pass an explicit path")
            path = self._snapshot_path
        seq = self.journal.last_seq if self.journal is not None else 0
        snapshot = take_snapshot(self, seq=seq)
        snapshot.write(path)
        if Path(path) == self._snapshot_path:
            self._snapshot_seq = snapshot.seq
        return snapshot

    def journal_info(self) -> dict[str, Any] | None:
        """Durability state for ``describe`` (None = in-memory MDM)."""
        if self.journal is None:
            return None
        return {
            "seq": self.journal.last_seq,
            "boot_id": self.journal.boot_id,
            "snapshot_seq": self._snapshot_seq,
            "replica_lag": 0,
            "role": "leader",
            "ready": True,
        }

    def close(self) -> None:
        """Release the journal file handle (idempotent)."""
        if self.journal is not None:
            self.journal.close()

    @property
    def cache(self) -> RewriteCache | None:
        """The engine's release-aware rewriting cache (None when off).

        Releases registered through the steward interface invalidate
        exactly the affected concepts' entries.
        """
        return self.engine.cache

    @property
    def answer_cache(self):
        """The engine's full answer cache (None when off).

        Above the rewrite cache: a valid entry skips execution
        entirely. Validity is evidenced per entry (ontology fingerprint
        plus every scanned wrapper's data_version), so direct MDM use
        is exactly as safe as governed serving — a release or an
        in-place data write keys stale answers out at lookup time.
        """
        return self.engine.answer_cache

    # -- steward interface ---------------------------------------------------

    def add_concept(self, concept: IRI | str) -> IRI:
        """Journaled steward command: register a Global-graph concept.

        On a durable MDM the command is appended to the journal before
        it applies (like every mutation); on an in-memory MDM it is
        equivalent to ``ontology.globals.add_concept``. Always prefer
        these steward commands over editing ``ontology.globals``
        directly — direct edits are bypassed writes: they survive in a
        snapshot but not in a journal replay, and releases over
        features that only ever existed as bypassed writes cannot be
        recovered.
        """
        iri = IRI(str(concept))
        execute_command(self, "add_concept", {"concept": str(iri)},
                        journal=self.journal)
        return iri

    def add_feature(self, concept: IRI | str, feature: IRI | str,
                    datatype: IRI | str | None = None,
                    is_id: bool = False) -> IRI:
        """Journaled steward command: attach a feature to a concept."""
        iri = IRI(str(feature))
        payload: dict[str, Any] = {"concept": str(concept),
                                   "feature": str(iri), "is_id": is_id}
        if datatype is not None:
            payload["datatype"] = str(datatype)
        execute_command(self, "add_feature", payload,
                        journal=self.journal)
        return iri

    def add_property(self, subject: IRI | str, predicate: IRI | str,
                     obj: IRI | str) -> None:
        """Journaled steward command: a concept→concept edge in G."""
        execute_command(self, "add_property",
                        {"subject": str(subject),
                         "predicate": str(predicate),
                         "object": str(obj)},
                        journal=self.journal)

    def set_datatype(self, feature: IRI | str,
                     datatype: IRI | str) -> None:
        """Journaled steward command: set a feature's xsd datatype."""
        execute_command(self, "set_datatype",
                        {"feature": str(feature),
                         "datatype": str(datatype)},
                        journal=self.journal)

    def register_release(self, release: Release,
                         absorbed_concepts: frozenset[IRI] | set[IRI]
                         | None = None,
                         idempotency_key: str | None = None,
                         ) -> dict[str, int]:
        """Apply Algorithm 1; returns triples added per graph.

        When the steward extended G in preparation of this release (e.g.
        added the features a new wrapper maps to — mandatory for genuinely
        new features), pass the touched concepts as *absorbed_concepts*
        so the release's evolution event stays concept-attributed;
        otherwise those pending edits degrade it to an ungoverned
        (cache-flushing) event.

        On a durable MDM (:meth:`open`) the release is prevalidated,
        serialized as a change record, fsync'd to the journal and only
        then applied — crash-atomic by construction. *idempotency_key*
        rides along in the record so the protocol endpoint's replay
        store survives restarts with recomputed (never stale) epochs.
        """
        delta = execute_release(self, release,
                                absorbed_concepts=absorbed_concepts,
                                journal=self.journal,
                                idempotency_key=idempotency_key)
        if self.journal is not None and idempotency_key is not None:
            # Mirror the journaled outcome so snapshots can persist it:
            # a snapshot folds the release record in, so recovery
            # replay alone would never see this key again.
            self.recovered_idempotency.put(idempotency_key, {
                "seq": self.journal.last_seq,
                "epoch": self.ontology.epoch,
                "triples_added": delta,
            })
        return delta

    def build_wrapper_release(self, wrapper: Wrapper,
                              attribute_to_feature: dict[str, IRI | str]
                              | None = None,
                              subgraph=None) -> Release:
        """Assemble the release registering *wrapper*, without applying.

        With no explicit ``F``, attribute→feature alignment is attempted
        (existing source mappings first, then name similarity); with no
        explicit subgraph, the minimal subgraph induced by the mapped
        features is used. The one materialization path shared by
        :meth:`register_wrapper` and the governed writers
        (:meth:`GovernedService.register_wrapper
        <repro.service.serving.GovernedService.register_wrapper>`).
        """
        if attribute_to_feature is None or subgraph is None:
            release = build_release(
                self.ontology, wrapper.source_name, wrapper.name,
                id_attributes=list(wrapper.id_attributes),
                non_id_attributes=list(wrapper.non_id_attributes),
                feature_hints=attribute_to_feature)
            release.wrapper = wrapper
            return release
        return Release.for_wrapper(wrapper, subgraph,
                                   attribute_to_feature)

    def register_wrapper(self, wrapper: Wrapper,
                         attribute_to_feature: dict[str, IRI | str]
                         | None = None,
                         subgraph=None,
                         absorbed_concepts: frozenset[IRI] | set[IRI]
                         | None = None) -> dict[str, int]:
        """Register a physical wrapper, semi-automatically when possible.

        See :meth:`build_wrapper_release` for the assembly rules;
        *absorbed_concepts* is forwarded to :meth:`register_release`.
        """
        release = self.build_wrapper_release(
            wrapper, attribute_to_feature=attribute_to_feature,
            subgraph=subgraph)
        return self.register_release(release,
                                     absorbed_concepts=absorbed_concepts)

    def suggest_release_subgraphs(self, features: list[IRI | str],
                                  limit: int = 5):
        return suggest_subgraphs(self.ontology, features, limit=limit)

    def handle_drift(self, wrapper_name: str, documents: list[dict],
                     new_wrapper_name: str,
                     confirmed_renames: dict[str, str] | None = None,
                     feature_hints: dict[str, IRI | str] | None = None,
                     physical_wrapper: Wrapper | None = None):
        """Adapt to an *unanticipated* schema change (future-work ext.).

        Detects drift between *documents* (as served by the evolved
        source) and the declared schema of *wrapper_name*, proposes a
        release for *new_wrapper_name* and registers it. Returns the
        ``(DriftReport, delta)`` pair; raises
        :class:`~repro.errors.EvolutionError` when uncertain renames
        need steward confirmation.
        """
        from repro.core.vocabulary import attribute_local_name, \
            source_local_name, wrapper_uri
        from repro.evolution.drift import detect_drift, propose_release

        wrapper_iri = wrapper_uri(wrapper_name)
        source = source_local_name(
            self.ontology.sources.source_of_wrapper(wrapper_iri))
        declared = [
            attribute_local_name(a) for a in
            self.ontology.sources.attributes_of_wrapper(wrapper_iri)]
        schema = self.ontology.wrapper_relation_schema(wrapper_iri)
        id_fields = [name.split("/", 1)[1] for name in schema.id_names]

        report = detect_drift(source, wrapper_name, declared, documents)
        if not report.has_drift:
            return report, {}
        release = propose_release(
            self.ontology, report, new_wrapper_name,
            id_fields=id_fields, confirmed_renames=confirmed_renames,
            feature_hints=feature_hints)
        release.wrapper = physical_wrapper
        delta = self.register_release(release)
        return report, delta

    def suggest_alignments(self, attributes: list[str], top_k: int = 3):
        return align_attributes(self.ontology, attributes, top_k=top_k)

    # -- analyst interface ----------------------------------------------------------

    def query_builder(self) -> OMQBuilder:
        return OMQBuilder(self.ontology)

    def client(self, *, pin: bool = False,
               timeout: float | None = None,
               max_workers: int | None = None,
               drain_timeout: float | None = None):
        """A :class:`~repro.api.client.GovernedClient` session over this
        MDM's governed service (the documented consumption path).

        The session speaks the same v1 protocol the HTTP gateway
        serves: epoch-pinned repeatable reads, cursor-paginated
        streaming, idempotent release submission. With no explicit
        *max_workers* / *drain_timeout*, an already-running memoized
        service is reused as-is — a convenience accessor never closes
        and replaces a configured live service (which would orphan its
        open cursors); pass the parameters to reconfigure deliberately
        through :meth:`serving`.
        """
        if max_workers is None and drain_timeout is None \
                and self._serving is not None:
            service = self._serving
        else:
            service = self.serving(
                max_workers=4 if max_workers is None else max_workers,
                drain_timeout=drain_timeout)
        return service.client(pin=pin, timeout=timeout)

    def query(self, omq: str | OMQ, distinct: bool = True) -> Relation:
        """Pose an OMQ; returns the result relation (Figure 9 pipeline).

        The single-caller facade: it runs the engine path the protocol
        endpoint runs, but carries no epoch evidence and is not
        serialized against releases. Anything concurrent or remote
        should use :meth:`client`.
        """
        return self.engine.answer(omq, distinct=distinct)

    def serving(self, max_workers: int = 4,
                drain_timeout: float | None = None):
        """The :class:`~repro.service.GovernedService` over this MDM.

        The service serializes releases against in-flight queries
        (epoch readers-writer lock); route *all* traffic — steward and
        analyst — through it once concurrent use starts. One MDM backs
        one service: repeated calls return the same instance (each
        service registers an evolution listener on the ontology, so
        minting one per call would leak listeners and make stale
        services misreport bypassed writes). Calling again with
        different parameters closes and replaces the current service.
        """
        from repro.service.serving import GovernedService
        service = self._serving
        if service is not None:
            if (service.max_workers, service.drain_timeout) == \
                    (max_workers, drain_timeout):
                return service
            service.close()
        self._serving = GovernedService(self, max_workers=max_workers,
                                        drain_timeout=drain_timeout)
        return self._serving

    def rewrite(self, omq: str | OMQ) -> RewritingResult:
        return self.engine.rewrite(omq)

    def explain(self, omq: str | OMQ, analyze: bool = False) -> str:
        return self.engine.explain(omq, analyze=analyze)

    def describe(self) -> str:
        return describe_global_graph(self.ontology)

    # -- administration ---------------------------------------------------------------

    def validate(self) -> list[str]:
        return self.ontology.validate()

    def statistics(self) -> dict[str, int]:
        counts = self.ontology.triple_counts()
        counts["releases"] = len(self.release_log)
        counts["concepts"] = len(self.ontology.globals.concepts())
        counts["features"] = len(self.ontology.globals.features())
        counts["wrappers"] = len(self.ontology.sources.wrappers())
        counts["data_sources"] = len(self.ontology.sources.data_sources())
        counts["evolution_epoch"] = self.ontology.epoch
        if self.journal is not None:
            counts["journal_seq"] = self.journal.last_seq
            counts["snapshot_seq"] = self._snapshot_seq
        if self.cache is not None:
            counts["cached_rewritings"] = len(self.cache)
            counts["cache_hits"] = self.cache.stats.hits
            counts["cache_misses"] = self.cache.stats.misses
        answer_cache = self.engine.answer_cache
        if answer_cache is not None:
            counts["cached_answers"] = len(answer_cache)
            counts["answer_cache_hits"] = answer_cache.stats.hits
            counts["answer_cache_misses"] = answer_cache.stats.misses
        return counts

    def describe_cache(self) -> str:
        """Human-readable state of the rewriting cache (debugging aid)."""
        return describe_cache(self.cache)

    def export_nquads(self) -> str:
        """The whole ontology dataset (all named graphs) as N-Quads."""
        return serialize_nquads(self.ontology.dataset)

    def export_turtle(self, graph: str = "G") -> str:
        """One primary graph as Turtle (``G``, ``S`` or ``M``)."""
        graphs = {"G": self.ontology.g, "S": self.ontology.s,
                  "M": self.ontology.m}
        try:
            return serialize_turtle(graphs[graph])
        except KeyError:
            raise ReleaseError(
                f"unknown graph {graph!r}; expected G, S or M") from None
