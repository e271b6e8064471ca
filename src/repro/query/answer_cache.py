"""The full answer cache: canonical OMQ → materialized answer.

Sits *above* the rewrite cache (which skips Algorithms 2-5) and the
scan cache (which skips wrapper fetches): a valid entry here skips
**execution entirely** — no physical operator runs, no wrapper is
touched; the stored :class:`~repro.relational.rows.Relation` is handed
back as-is. The repeated analyst panel — the dominant governed-serving
workload — becomes a dictionary lookup.

Validity is evidence-based, and :meth:`AnswerCache.lookup` is the one
place that compares an answer's evidence (the ontology fingerprint,
the rewriting object, the bound objects and data versions of the
wrappers the plan scanned) with the current one. Every lookup is a hit
or a miss, and a miss hands its caller one :data:`Action`:

1. a version probe raised (a
   :class:`~repro.relational.physical.Unversioned` token): ``uncached``
   — fail closed, the answer is neither served, stored, extended nor
   patched;
2. no entry: ``compute``;
3. the fingerprint moved, but the rewrite cache returned the entry's
   very rewriting (the release touched only other concepts): the entry
   is **kept**, its fingerprint refreshed, and the checks go on;
4. the fingerprint moved, and the current rewriting extends the
   entry's (:attr:`~repro.query.rewriter.RewritingResult.extends`: an
   additive release only added walks over a new wrapper): ``extend``
   with the entry — under LAV its answer plus the new walks' rows is
   the answer — unless an old wrapper was ``rebound`` or its data moved
   (``data_moved``): ``compute``;
5. the fingerprint moved otherwise (``not_extended``): evict,
   ``compute`` — fingerprints only move forward;
6. a wrapper name is bound to another object (a bare rebind): evict,
   ``compute``;
7. a data version moved (an in-place write): ``patch`` with the entry,
   from the sources' change streams;
8. otherwise: a **hit**.

The reasons in cases 1 (when the entry was extendable), 4 and 5 are
counted in :attr:`AnswerCacheStats.extension_fallbacks`. The checks
run per lookup, so the cache is correct without any cooperation from
the serving layer, which does not clear it at epoch boundaries.
Fingerprints remain the validity evidence of a hit: two engines
sharing one answer cache never share rewriting objects, and hit on the
fingerprint alone.

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

from repro.relational.physical import Unversioned
from repro.relational.rows import Relation
from repro.util.lru import LRU, LRUStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ontology import OntologyFingerprint
    from repro.query.rewriter import RewritingResult
    from repro.streaming.standing import StandingQuery

__all__ = ["Action", "AnswerCache", "AnswerCacheStats", "CachedAnswer",
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
    #: those fallbacks by cause: ``delta_volume`` (the valve tripped),
    #: ``no_deltas`` (a wrapper served no change stream), ``seed`` (the
    #: standing query had lost its state) or ``error`` (the patch path
    #: raised; see :attr:`fallback_errors`)
    fallback_reasons: dict[str, int] = field(default_factory=dict)
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
    ``lock`` serializes patch and extension attempts on this entry so
    concurrent readers refresh or extend it once.
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


#: what a lookup miss leaves its caller to do: ``("extend", entry)``,
#: ``("patch", entry)``, ``("compute", None)`` or ``("uncached", None)``
Action = tuple[str, CachedAnswer | None]


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
               action: list[Action] | None = None,
               ) -> Relation | None:
        """The cached answer, or ``None`` when absent/stale.

        Every stale entry counts as a miss. With *action* given, a miss
        appends the one :data:`Action` the evidence leaves the caller
        (the module docstring lists the cases). Only a rewriting that
        no longer covers the entry, or a rebind, evicts it.
        """
        slot = (key, distinct)
        with self._lock:
            entry = self._entries.get(slot)
            verdict = self._judge(slot, entry, fingerprint, data_versions,
                                  bound, rewriting)
            if entry is not None and verdict == "hit":
                self.stats.hits += 1
                entry.relation.mark_reused()
                return entry.relation
            self.stats.misses += 1
            if action is not None:
                action.append((verdict, entry if verdict in (
                    "extend", "patch") else None))
            return None

    # repro-lint: disable=guarded-by -- sole caller is lookup, which
    # holds the lock.
    def _judge(self, slot: tuple[str, bool], entry: CachedAnswer | None,
               fingerprint: "OntologyFingerprint",
               data_versions: "tuple[tuple[str, object], ...]",
               bound: tuple[object, ...],
               rewriting: "RewritingResult | None") -> str:
        """The verdict on *entry*'s evidence: ``hit`` or an action.
        Counts the evictions, keeps and extension fallbacks it decides."""
        stats = self.stats
        extends = (entry is not None and rewriting is not None
                   and rewriting.extension_of(entry.rewriting))
        if any(isinstance(version, Unversioned)
               for _, version in data_versions):
            if extends:
                stats.tally("extension_fallbacks", "unversioned")
            return "uncached"
        if entry is None:
            return "compute"
        if entry.fingerprint != fingerprint:
            if rewriting is not None and entry.rewriting is rewriting:
                entry.fingerprint = fingerprint
                stats.kept += 1
            elif extends:
                # Under LAV the old walks are unchanged: the entry plus
                # the added walks' rows is the answer while the old
                # wrappers hold the objects and data the entry read.
                now = dict(data_versions)
                current = {name: obj for (name, _), obj
                           in zip(data_versions, bound)}
                if any(current.get(name) is not obj for (name, _), obj
                       in zip(entry.data_versions, entry.bound)):
                    stats.tally("extension_fallbacks", "rebound")
                elif any(now.get(name) != version
                         for name, version in entry.data_versions):
                    stats.tally("extension_fallbacks", "data_moved")
                else:
                    return "extend"
                return "compute"
            else:
                stats.tally("extension_fallbacks", "not_extended")
                return self._evict(slot)
        if not same_objects(entry.bound, bound):
            return self._evict(slot)
        if entry.data_versions != data_versions:
            return "patch"
        return "hit"

    # repro-lint: disable=guarded-by -- callers hold the lock.
    def _evict(self, slot: tuple[str, bool]) -> str:
        self._entries.pop(slot)
        self.stats.evictions += 1
        return "compute"

    def install_patch(self, entry: CachedAnswer, relation: Relation,
                      data_versions: "tuple[tuple[str, object], ...]",
                      standing: "StandingQuery", kind: str,
                      reason: str = "") -> None:
        """Publish a maintained answer back into *entry*.

        *kind* is the accounting bucket: ``"seed"`` (standing query
        just created), ``"patch"`` (O(Δ) refresh), ``"fallback"``
        (the standing query reseeded, counted under *reason*: the
        refresh outcome's
        :attr:`~repro.streaming.standing.RefreshOutcome.cause`). Caller
        holds ``entry.lock``; the entry is
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
                self.stats.tally("fallback_reasons", reason)
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
                self.stats.tally("fallback_reasons", "error")
                self.stats.tally("fallback_errors", type(error).__name__)
            return True

    def store(self, key: str, distinct: bool,
              fingerprint: "OntologyFingerprint",
              data_versions: "tuple[tuple[str, object], ...]",
              relation: Relation,
              bound: tuple[object, ...] = (),
              rewriting: "RewritingResult | None" = None,
              base: CachedAnswer | None = None) -> CachedAnswer:
        """Install an answer (last-writer-wins; LRU-evicts past either
        bound, possibly the answer itself when it alone outweighs the
        row bound). *base* is the entry the answer extends: it counts
        as an extended answer, and *base* can no longer be extended."""
        entry = CachedAnswer(key=key, distinct=distinct,
                             fingerprint=fingerprint,
                             data_versions=data_versions,
                             relation=relation, bound=bound,
                             rewriting=rewriting)
        with self._lock:
            self.stats.stores += 1
            if base is not None:
                self.stats.extended += 1
                base.rewriting = None
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
