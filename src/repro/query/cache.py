"""Release-aware memoization of query rewritings (§5-§6 operational).

Rewriting an OMQ (Algorithms 2-5) is pure in the ontology ``T``: the same
query over the same ``⟨G, S, M⟩`` always yields the same UCQ. The paper's
governance story says evolution arrives as *releases* (Algorithm 1), each
touching a known set of Global-graph concepts — so a cached rewriting only
becomes stale when a release lands on a concept the rewriting involves.
This module makes that observation operational:

* :func:`canonical_omq_key` — a canonical form of the OMQ ``⟨π, φ⟩`` that
  is insensitive to SPARQL surface syntax (whitespace, prefix choice,
  triple order) but faithful to projection order (π determines output
  columns);
* :class:`RewriteCache` — an LRU table of :class:`CachedRewriting`
  entries validated against the ontology's
  :class:`~repro.core.ontology.OntologyFingerprint`:

  - **epoch check** — when releases landed since the entry was stored,
    the entry survives iff no
    :class:`~repro.core.ontology.EvolutionEvent` intersects its concept
    set (fine-grained invalidation; the §2.1 w4 release evicts only
    VoD-concept rewritings, feedback rewritings keep their warm hit);
  - **structure check** — mutations that bypassed the release machinery
    evict the entry outright, as they cannot be attributed to concepts.
    Detection is deterministic (a monotonic mutation counter feeds the
    structural hash) and survives interleaving with releases: Algorithm
    1 marks its event *ungoverned* when it finds unattributed edits on
    entry, and post-event edits are caught by comparing the current
    structure against the latest event's recorded structure.

Soundness argument for the concept test: every phase of the rewriting
reads ``T`` only through the query's concepts — features and IDs of those
concepts (Algorithms 2-3), wrappers providing their features and edges
(Algorithms 4-5). A release whose subgraph mentions none of them cannot
add, remove or alter any walk of the cached result.

A release that does touch an entry's concept need not cost a full
rewrite. Algorithm 1 marks an event *additive* (it names the wrapper it
added, :attr:`~repro.core.ontology.EvolutionEvent.wrapper`) when the
wrapper is new, no steward edits were absorbed, the event is governed
and every ``owl:sameAs`` it wrote belongs to an attribute it created.
Such a release edits no existing wrapper's attributes, mappings or LAV
graph and leaves G alone, so every old walk, and its coverage and
minimality, is unchanged; only walks over the new wrapper can appear.
When every release touching a single-concept entry is additive and no
edit followed the last event, :meth:`RewriteCache.lookup` still misses
but hands the entry and the added wrappers to its caller, which passes
them to :func:`~repro.query.rewriter.rewrite` (``extend=``) to compute
only the new walks. Multi-concept entries, non-additive
releases (including every event decoded from a snapshot) and trailing
out-of-band edits fall back to a full rewrite, counted by reason in
:attr:`CacheStats.extension_fallbacks`.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

from repro.core.ontology import BDIOntology
from repro.query.omq import OMQ
from repro.query.rewriter import RewritingResult
from repro.rdf.term import IRI
from repro.util.lru import LRU, LRUStats

__all__ = ["CacheStats", "CachedRewriting", "RewriteCache",
           "canonical_omq_key", "concepts_of_result"]

#: rewritings one :class:`RewriteCache` keeps (LRU entries)
REWRITE_CACHE_ENTRIES = 256


def canonical_omq_key(query: OMQ) -> str:
    """A canonical cache key for ``⟨π, φ⟩``.

    Projection order is preserved (it names the output columns); the
    pattern graph is serialized as its sorted triple set, so textual
    variants of the same OMQ — reformatted SPARQL, different prefix
    names, reordered WHERE triples — collide onto one key.
    """
    pi = ",".join(str(feature) for feature in query.pi)
    phi = ";".join(sorted(t.n3() for t in query.phi))
    return hashlib.sha256(f"π={pi}|φ={phi}".encode()).hexdigest()


def concepts_of_result(result: RewritingResult) -> frozenset[IRI]:
    """The concept footprint of one rewriting (its invalidation granule).

    Phase 1 (query expansion) already derives the concepts the query
    spans; every later phase only consults ``T`` through them, so they
    are exactly the concepts whose releases can change the result.
    """
    return frozenset(result.concepts)


@dataclass
class CacheStats(LRUStats):
    """Observability counters for one :class:`RewriteCache`."""

    #: entries written (one per miss in engine usage)
    stores: int = 0
    #: stores that overwrote a live entry under the same key (duplicate
    #: concurrent misses racing to memoize one rewriting)
    replacements: int = 0
    #: entries evicted because a release touched one of their concepts
    invalidated: int = 0
    #: entries evicted because the ontology changed outside a release
    structure_evictions: int = 0
    #: entries evicted because the cache was consulted for an ontology
    #: other than the one they were computed against
    lineage_evictions: int = 0
    #: entries revalidated across ≥1 release touching other concepts
    survived_releases: int = 0
    #: stale entries :meth:`RewriteCache.lookup` handed out to be
    #: extended with the walks of wrappers additive releases added
    extended: int = 0
    #: invalidations a release touching the entry forced instead of an
    #: extension, by reason: ``multi_concept``, ``non_additive`` or
    #: ``out_of_band_edit``
    extension_fallbacks: dict[str, int] = field(default_factory=dict)


#: a stale single-concept rewriting and the wrappers the additive
#: releases since it was stored added (``rewrite(..., extend=)``)
Extension = tuple[RewritingResult, tuple[str, ...]]


@dataclass
class CachedRewriting:
    """One memoized rewriting plus the state it was validated against."""

    key: str
    result: RewritingResult
    concepts: frozenset[IRI]
    #: ontology epoch at store/last-revalidation time
    epoch: int
    #: structural fingerprint component at store/last-revalidation time
    structure: int
    #: identity of the ontology the entry was computed against, so a
    #: cache accidentally shared across ontologies cannot serve results
    #: from the wrong one on a fingerprint collision
    ontology_id: int = 0
    #: number of times this entry served a hit (debugging aid)
    hit_count: int = field(default=0, compare=False)


class RewriteCache:
    """LRU cache of rewritings with release-granular invalidation.

    One cache serves one ontology lineage; sharing it between engines
    over the *same* :class:`~repro.core.ontology.BDIOntology` (as
    :class:`~repro.mdm.system.MDM` does) is the intended deployment.
    Cached :class:`~repro.query.rewriter.RewritingResult` objects are
    returned by reference — treat them as immutable.

    Thread safety: every operation (lookup, store, invalidation,
    introspection) runs under one internal reentrant lock, so the table
    and its :class:`CacheStats` stay mutually consistent under
    concurrent readers — the contract :meth:`QueryEngine.answer_many
    <repro.query.engine.QueryEngine.answer_many>` relies on. The lock
    does **not** freeze the ontology: callers that interleave lookups
    with releases need the serving layer's epoch lock
    (:class:`repro.service.EpochLock`) for answer-level consistency.
    """

    def __init__(self) -> None:
        self._entries: LRU[str, CachedRewriting] = \
            LRU(REWRITE_CACHE_ENTRIES)  # guarded-by: _lock
        self.stats = CacheStats()  # guarded-by: _lock
        #: guards _entries and stats together; reentrant so explicit
        #: invalidation may be called from evolution listeners that fire
        #: while a store is in progress on the same thread.
        self._lock = threading.RLock()

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    # -- core operations -----------------------------------------------------

    def lookup(self, ontology: BDIOntology, query: OMQ,
               key: str | None = None,
               extendable: list[Extension] | None = None,
               ) -> RewritingResult | None:
        """Return the cached rewriting for *query*, if still valid.

        Validation is two-staged: releases since the entry was stored are
        checked concept-by-concept (selective survival), then the
        structural fingerprint guards against ungoverned mutations.
        Pass *key* when :func:`canonical_omq_key` was already computed.

        An entry that only additive releases made stale is a miss too.
        With *extendable* given, it is taken out of the cache and
        appended there as ``(result, added wrappers)`` for
        :func:`~repro.query.rewriter.rewrite`'s ``extend=`` (the caller
        stores the extended result); without, it is invalidated.
        """
        key = key if key is not None else canonical_omq_key(query)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None

            if entry.ontology_id != id(ontology):
                # The cache is being consulted for a different ontology
                # than the entry was computed against; fingerprints of
                # distinct ontologies can collide, so identity is
                # checked first.
                self._entries.pop(key)
                self.stats.lineage_evictions += 1
                self.stats.misses += 1
                return None

            fingerprint = ontology.fingerprint()
            if entry.epoch != fingerprint.epoch:
                events = ontology.evolution_since(entry.epoch)
                if not events:
                    # Epoch mismatch with no recorded events: the entry
                    # predates a different lineage of this ontology
                    # object (e.g. an id() reuse); nothing can be
                    # proven, evict.
                    self._entries.pop(key)
                    self.stats.lineage_evictions += 1
                    self.stats.misses += 1
                    return None
                if any(e.ungoverned for e in events):
                    # An event covering edits that bypassed the
                    # governance layer: nothing can be attributed to
                    # concepts, evict.
                    self._entries.pop(key)
                    self.stats.structure_evictions += 1
                    self.stats.misses += 1
                    return None
                touching = [e for e in events
                            if e.concepts & entry.concepts]
                if touching:
                    # A release met the entry's concepts: it is extended
                    # when every such release only added a wrapper (see
                    # the module docstring), else rewritten cold.
                    self._entries.pop(key)
                    self.stats.misses += 1
                    reason: str | None = None
                    if len(entry.concepts) > 1:
                        reason = "multi_concept"
                    elif any(e.wrapper is None for e in touching):
                        reason = "non_additive"
                    elif events[-1].structure != fingerprint.structure:
                        reason = "out_of_band_edit"
                    elif extendable is not None:
                        extendable.append((entry.result, tuple(
                            e.wrapper for e in touching
                            if e.wrapper is not None)))
                        self.stats.extended += 1
                        return None
                    self.stats.invalidated += 1
                    if reason is not None:
                        self.stats.tally("extension_fallbacks", reason)
                    return None
                if events[-1].structure != fingerprint.structure:
                    # T was mutated out of band *after* the latest
                    # recorded event; those edits have no concept
                    # attribution, evict.
                    self._entries.pop(key)
                    self.stats.structure_evictions += 1
                    self.stats.misses += 1
                    return None
                # Every intervening event touched only foreign concepts
                # and nothing ungoverned happened since: the entry is
                # still exact. Revalidate it against the current
                # fingerprint so later lookups short-circuit.
                entry.epoch = fingerprint.epoch
                entry.structure = fingerprint.structure
                self.stats.survived_releases += 1
            elif entry.structure != fingerprint.structure:
                # Same epoch but different shape: T was mutated outside
                # the release machinery; no concept attribution is
                # possible.
                self._entries.pop(key)
                self.stats.structure_evictions += 1
                self.stats.misses += 1
                return None

            entry.hit_count += 1
            self.stats.hits += 1
            return entry.result

    def store(self, ontology: BDIOntology, query: OMQ,
              result: RewritingResult,
              key: str | None = None) -> CachedRewriting:
        """Memoize *result* under the canonical key of *query*.

        Pass *key* when :func:`canonical_omq_key` was already computed
        (e.g. by the preceding :meth:`lookup`).
        """
        with self._lock:
            fingerprint = ontology.fingerprint()
            entry = CachedRewriting(
                key=key if key is not None else canonical_omq_key(query),
                result=result,
                concepts=concepts_of_result(result),
                epoch=fingerprint.epoch,
                structure=fingerprint.structure,
                ontology_id=id(ontology))
            self.stats.stores += 1
            if entry.key in self._entries:
                self.stats.replacements += 1
            self.stats.lru_evictions += len(
                self._entries.put(entry.key, entry))
            return entry

    # -- explicit invalidation ----------------------------------------------

    def invalidate_concepts(self, concepts: "frozenset[IRI] | set[IRI] "
                            "| list[IRI]") -> int:
        """Evict every entry touching any of *concepts*; return count.

        Manual analogue of a release event — useful when a steward edits
        G directly and knows which concepts were involved.
        """
        victims = frozenset(IRI(str(c)) for c in concepts)
        with self._lock:
            stale = [key for key, entry in self._entries.items()
                     if entry.concepts & victims]
            for key in stale:
                self._entries.pop(key)
            self.stats.invalidated += len(stale)
            return len(stale)

    def clear(self) -> int:
        """Drop every entry; return how many were dropped."""
        with self._lock:
            return self._entries.clear()

    # -- introspection -------------------------------------------------------

    def entries(self) -> list[CachedRewriting]:
        """Current entries, least-recently-used first (a snapshot; safe
        to iterate while other threads hit the cache)."""
        with self._lock:
            return self._entries.values()
