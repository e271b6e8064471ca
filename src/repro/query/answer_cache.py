"""The full answer cache: canonical OMQ → materialized answer.

Sits *above* the rewrite cache (which skips Algorithms 2-5) and the
scan cache (which skips wrapper fetches): a valid entry here skips
**execution entirely** — no physical operator runs, no wrapper is
touched; the stored :class:`~repro.relational.rows.Relation` is handed
back as-is. The repeated analyst panel — the dominant governed-serving
workload — becomes a dictionary lookup.

Validity is evidence-based, mirroring the rewrite cache's
release-awareness:

* the **ontology fingerprint** the answer was computed under must still
  be current — any release landing through Algorithm 1 (or a bypassed
  mutation of ``T``) keys the entry out, unless the release left the
  entry's rewriting alone or only extended it (below);
* the **data_version** of every wrapper the plan scanned must be
  unchanged — an in-place data write (a document-store upsert, a REST
  source refresh) makes exactly the answers that read it miss, and the
  engine patches them from the sources' change streams;
* the **bound objects** the plan scanned must be the same objects,
  compared by identity — a bare rebind of a wrapper name moves neither
  the fingerprint nor (necessarily) the data version, and it evicts
  the entry without a patch.

All three checks happen per lookup, so the cache is correct without
any cooperation from the serving layer, which does not clear it at
epoch boundaries. Each entry also remembers the rewriting object it was
computed from, and two cases are decided by that identity once the
fingerprint check failed:

* **keep** — the rewrite cache returned the very rewriting the entry was
  computed from (the release touched only other concepts). The entry is
  a hit and its fingerprint is refreshed.
* **extend** — the current rewriting extends the entry's
  (:attr:`~repro.query.rewriter.RewritingResult.extends`: an additive
  release only added walks over a new wrapper). :meth:`AnswerCache.
  lookup` misses but keeps the entry, and the engine computes the new
  walks' rows alone and unions them into it
  (:meth:`AnswerCache.extension_base`), counting the outcome in
  :attr:`AnswerCacheStats.extended` or, when an old wrapper's data or
  binding moved, in :attr:`AnswerCacheStats.extension_fallbacks`.

Every other fingerprint mismatch evicts, counted as the fallback
``not_extended``. Fingerprints remain the validity evidence of a
hit: two engines sharing one answer cache never share rewriting
objects, and hit on the fingerprint alone.

Entries are shared objects: treat returned relations as immutable,
exactly like rewrite-cache results and shared scans. A relation the
cache serves again (a hit, or a patched answer) is marked reused, so
the gateway encodes its rows once (:meth:`~repro.relational.rows.
Relation.rows_json`); a fresh answer keeps no encoded copy.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.relational.rows import Relation
from repro.util.lru import LRU, LRUStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ontology import OntologyFingerprint
    from repro.query.rewriter import RewritingResult
    from repro.streaming.standing import StandingQuery

__all__ = ["AnswerCache", "AnswerCacheStats", "CachedAnswer",
           "DataVersions", "answer_cache_env_enabled"]


def answer_cache_env_enabled() -> bool:
    """False when ``REPRO_ANSWER_CACHE=0`` opts this process out.

    The deployment-level kill switch for default answer caching:
    memory-constrained replicas and benchmarks that must stress
    execution set it. It reaches processes no constructor call does,
    such as the replicas a fleet supervisor spawns.
    """
    return os.environ.get("REPRO_ANSWER_CACHE", "1") != "0"

#: answers one :class:`AnswerCache` keeps (LRU entries), and the rows
#: they may hold together (each answer weighs its row count)
ANSWER_CACHE_ENTRIES = 256
ANSWER_CACHE_ROWS = 1_000_000

#: the data-state evidence of one answer: ``(wrapper, data_version)``
#: per wrapper the plan scanned, sorted for a canonical representation
DataVersions = "tuple[tuple[str, object], ...]"


@dataclass
class AnswerCacheStats(LRUStats):
    """Counters of one :class:`AnswerCache`."""

    stores: int = 0
    #: entries dropped because their fingerprint or bound objects no
    #: longer matched at lookup time, or because a patch attempt failed
    evictions: int = 0
    #: whole-cache clears (administrative resets)
    invalidations: int = 0
    #: stale entries brought current by O(Δ) incremental maintenance
    #: instead of eviction (the patch path)
    patches: int = 0
    #: standing queries lazily created (first patchable miss per entry)
    seeds: int = 0
    #: patch attempts that degraded to a full recompute (the valve
    #: tripped on delta volume, or the patch path raised)
    fallbacks: int = 0
    #: entries discarded because the patch path raised, by exception
    #: class name, so a programming error (``TypeError``) does not pass
    #: for an ordinary fallback
    fallback_errors: dict[str, int] = field(default_factory=dict)
    #: stale entries across a release kept as hits, because the
    #: rewrite cache returned the rewriting they were computed from
    kept: int = 0
    #: answers extended by the rows of the walks an additive release
    #: added, instead of recomputed
    extended: int = 0
    #: answers a release made stale that were recomputed instead of
    #: extended, by reason: ``not_extended`` (the current rewriting does
    #: not extend the entry's), ``data_moved`` (an old wrapper's data
    #: version moved), ``rebound`` (an old wrapper name is bound to
    #: another object) or ``unversioned`` (a version probe failed)
    extension_fallbacks: dict[str, int] = field(default_factory=dict)


@dataclass
class CachedAnswer:
    """One materialized answer plus the evidence it is valid under.

    ``standing`` is the entry's incremental maintainer (a
    :class:`~repro.streaming.standing.StandingQuery`), attached lazily
    the first time the entry goes stale under an unchanged ontology;
    ``lock`` serializes patch attempts on this entry so concurrent
    readers refresh it once.
    """

    key: str
    distinct: bool
    fingerprint: "OntologyFingerprint"
    data_versions: "tuple[tuple[str, object], ...]"
    relation: Relation
    #: the objects the answer read, aligned with ``data_versions`` and
    #: compared by identity (see :func:`same_objects`)
    bound: tuple[object, ...] = ()
    #: the rewriting the answer was computed from (compared by identity;
    #: see the module docstring)
    rewriting: "RewritingResult | None" = field(
        default=None, repr=False, compare=False)
    standing: "StandingQuery | None" = field(
        default=None, repr=False, compare=False)
    lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False)


def _bump(counts: dict[str, int], reason: str) -> None:
    counts[reason] = counts.get(reason, 0) + 1


def same_objects(left: tuple[object, ...],
                 right: tuple[object, ...]) -> bool:
    """True when both tuples hold the very same objects, in order."""
    return len(left) == len(right) and all(
        a is b for a, b in zip(left, right))


class AnswerCache:
    """Thread-safe, LRU-bounded cache of fully materialized answers.

    Keys are ``(canonical OMQ key, distinct)``; validity evidence (the
    ontology fingerprint and every scanned wrapper's data_version) is
    stored per entry and re-checked on every lookup, so a stale entry
    can never be served — at worst it is evicted and recomputed. The
    LRU holds at most :data:`ANSWER_CACHE_ENTRIES` answers and
    :data:`ANSWER_CACHE_ROWS` rows.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: LRU[tuple[str, bool], CachedAnswer] = LRU(
            ANSWER_CACHE_ENTRIES, ANSWER_CACHE_ROWS)  # guarded-by: _lock
        self.stats = AnswerCacheStats()  # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return ((key, True) in self._entries
                    or (key, False) in self._entries)

    def lookup(self, key: str, distinct: bool,
               fingerprint: "OntologyFingerprint",
               data_versions: "tuple[tuple[str, object], ...]",
               bound: tuple[object, ...] = (),
               rewriting: "RewritingResult | None" = None,
               ) -> Relation | None:
        """The cached answer, or ``None`` when absent/stale.

        Every stale entry counts as a miss. A *data-stale* entry under
        an unchanged fingerprint survives it: only the wrappers' data
        moved, so the incremental patch path (:meth:`patchable_entry`
        → :meth:`install_patch`) can bring it current for O(Δ) instead
        of a recompute. A rebind (*bound* holds another object) evicts.
        An epoch change (fingerprint mismatch) keeps the entry when
        *rewriting* is the entry's own rewriting or extends it (see the
        module docstring), and evicts it otherwise — the rewriting or
        the source itself may no longer be the one the entry read, and
        fingerprints only move forward.
        """
        slot = (key, distinct)
        with self._lock:
            entry = self._entries.get(slot)
            if entry is None:
                self.stats.misses += 1
                return None
            if entry.fingerprint != fingerprint:
                if rewriting is not None and entry.rewriting is rewriting:
                    entry.fingerprint = fingerprint
                    self.stats.kept += 1
                elif rewriting is not None and rewriting.extension_of(
                        entry.rewriting):
                    # the engine extends it (extension_base)
                    self.stats.misses += 1
                    return None
                else:
                    self._entries.pop(slot)
                    self.stats.evictions += 1
                    self.stats.misses += 1
                    _bump(self.stats.extension_fallbacks, "not_extended")
                    return None
            if not same_objects(entry.bound, bound):
                self._entries.pop(slot)
                self.stats.evictions += 1
                self.stats.misses += 1
                return None
            if entry.data_versions != data_versions:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            entry.relation.mark_reused()
            return entry.relation

    def extension_base(self, key: str, distinct: bool,
                       rewriting: "RewritingResult",
                       ) -> CachedAnswer | None:
        """The entry *rewriting* extends: present, and computed from the
        rewriting :attr:`~repro.query.rewriter.RewritingResult.extends`
        names. Its answer plus the added walks' rows is the answer of
        *rewriting*, while the old wrappers' data and bindings hold."""
        with self._lock:
            entry = self._entries.peek((key, distinct))
            if entry is None or not rewriting.extension_of(
                    entry.rewriting):
                return None
            return entry

    def note_extension_fallback(self, reason: str) -> None:
        """Count one answer recomputed instead of extended."""
        with self._lock:
            _bump(self.stats.extension_fallbacks, reason)

    def patchable_entry(self, key: str, distinct: bool,
                        fingerprint: "OntologyFingerprint",
                        ) -> CachedAnswer | None:
        """The entry a patch attempt may refresh: present and computed
        under the current fingerprint (its data_versions may lag)."""
        with self._lock:
            entry = self._entries.peek((key, distinct))
            if entry is None or entry.fingerprint != fingerprint:
                return None
            return entry

    def install_patch(self, entry: CachedAnswer, relation: Relation,
                      data_versions: "tuple[tuple[str, object], ...]",
                      standing: "StandingQuery", kind: str) -> None:
        """Publish a maintained answer back into *entry*.

        *kind* is the accounting bucket: ``"seed"`` (standing query
        just created), ``"patch"`` (O(Δ) refresh), ``"fallback"``
        (the valve reseeded). Caller holds ``entry.lock``; the entry is
        updated in place so a concurrent LRU eviction at worst orphans
        it — the returned relation stays correct either way. A live
        entry is re-weighed by its new relation's rows.
        """
        relation.mark_reused()
        with self._lock:
            entry.relation = relation
            entry.data_versions = data_versions
            entry.standing = standing
            if kind == "seed":
                self.stats.seeds += 1
            elif kind == "fallback":
                self.stats.fallbacks += 1
            else:
                self.stats.patches += 1
            slot = (entry.key, entry.distinct)
            if self._entries.peek(slot) is entry:
                self.stats.lru_evictions += len(self._entries.put(
                    slot, entry, len(relation)))

    def discard(self, key: str, distinct: bool,
                error: BaseException | None = None) -> bool:
        """Drop one entry (a failed patch attempt clears its state so
        the normal recompute-and-store path takes over). *error* is
        what the patch attempt raised; it is counted as a fallback
        under its class name."""
        with self._lock:
            entry = self._entries.pop((key, distinct))
            if entry is None:
                return False
            self.stats.evictions += 1
            if error is not None:
                self.stats.fallbacks += 1
                _bump(self.stats.fallback_errors, type(error).__name__)
            return True

    def store(self, key: str, distinct: bool,
              fingerprint: "OntologyFingerprint",
              data_versions: "tuple[tuple[str, object], ...]",
              relation: Relation,
              bound: tuple[object, ...] = (),
              rewriting: "RewritingResult | None" = None,
              extended: bool = False) -> CachedAnswer:
        """Install an answer (last-writer-wins; LRU-evicts past either
        bound, possibly the answer itself when it alone outweighs the
        row bound). *extended* counts it as an extended answer."""
        entry = CachedAnswer(key=key, distinct=distinct,
                             fingerprint=fingerprint,
                             data_versions=data_versions,
                             relation=relation, bound=bound,
                             rewriting=rewriting)
        with self._lock:
            self.stats.stores += 1
            if extended:
                self.stats.extended += 1
            self.stats.lru_evictions += len(self._entries.put(
                (key, distinct), entry, len(relation)))
        return entry

    def clear(self) -> int:
        """Drop every cached answer; returns how many were dropped."""
        with self._lock:
            dropped = self._entries.clear()
            if dropped:
                self.stats.invalidations += 1
            return dropped
