"""Analyst-facing helpers: graph exploration and OMQ construction.

The MDM frontend (paper Figure 10) lets analysts *draw* queries over a
graph rendering of G; the drawing is converted to the SPARQL template of
Code 3. :class:`OMQBuilder` is the programmatic equivalent: navigate
concepts/edges, project features, get the SPARQL (or the parsed OMQ).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.ontology import BDIOntology
from repro.core.vocabulary import GLOBAL_GRAPH
from repro.errors import MalformedQueryError, UnknownConceptError, \
    UnknownFeatureError
from repro.query.cache import REWRITE_CACHE_ENTRIES
from repro.query.omq import OMQ, parse_omq
from repro.rdf.namespace import G as G_NS
from repro.rdf.term import IRI

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.answer_cache import AnswerCache
    from repro.query.cache import RewriteCache
    from repro.service.serving import GovernedService

__all__ = ["OMQBuilder", "describe_answer_cache", "describe_cache",
           "describe_global_graph", "describe_service"]


class OMQBuilder:
    """Fluent construction of template-conforming OMQs.

    >>> builder = (OMQBuilder(ontology)
    ...     .project("sup:applicationId full IRI", "…lagRatio IRI")
    ...     .edge(app, "sup:hasMonitor IRI", monitor)
    ...     .edge(monitor, "sup:generatesQoS IRI", info))
    >>> sparql = builder.to_sparql()
    """

    def __init__(self, ontology: BDIOntology) -> None:
        self.ontology = ontology
        self._projected: list[IRI] = []
        self._edges: list[tuple[IRI, IRI, IRI]] = []

    # -- building --------------------------------------------------------------

    def project(self, *features: IRI | str) -> "OMQBuilder":
        """Project features (or concepts — Algorithm 2 will substitute
        their IDs)."""
        for feature in features:
            iri = IRI(str(feature))
            if not (self.ontology.globals.is_feature(iri)
                    or self.ontology.globals.is_concept(iri)):
                raise UnknownFeatureError(
                    f"{iri} is neither a feature nor a concept of G")
            if iri not in self._projected:
                self._projected.append(iri)
        return self

    def edge(self, subject: IRI | str, predicate: IRI | str,
             obj: IRI | str) -> "OMQBuilder":
        """Navigate a domain object property between two concepts."""
        s, p, o = IRI(str(subject)), IRI(str(predicate)), IRI(str(obj))
        for concept in (s, o):
            if not self.ontology.globals.is_concept(concept):
                raise UnknownConceptError(
                    f"{concept} is not a concept of G")
        self._edges.append((s, p, o))
        return self

    # -- output -----------------------------------------------------------------

    def _pattern_triples(self) -> list[tuple[IRI, IRI, IRI]]:
        triples = list(self._edges)
        for feature in self._projected:
            if self.ontology.globals.is_feature(feature):
                owner = self.ontology.globals.concept_of_feature(feature)
                triples.append((owner, IRI(str(G_NS.hasFeature)), feature))
        if not triples:
            raise MalformedQueryError(
                "cannot build an OMQ without any edge or projection")
        return triples

    def to_sparql(self) -> str:
        if not self._projected:
            raise MalformedQueryError("no projected element")
        variables = [f"?v{i}" for i in range(1, len(self._projected) + 1)]
        values = " ".join(f"<{p}>" for p in self._projected)
        lines = [
            f"SELECT {' '.join(variables)}",
            f"FROM <{GLOBAL_GRAPH}>",
            "WHERE {",
            f"    VALUES ({' '.join(variables)}) {{ ({values}) }}",
        ]
        triples = self._pattern_triples()
        for index, (s, p, o) in enumerate(triples):
            terminator = " ." if index < len(triples) - 1 else ""
            lines.append(f"    <{s}> <{p}> <{o}>{terminator}")
        lines.append("}")
        return "\n".join(lines)

    def to_omq(self) -> OMQ:
        return parse_omq(self.to_sparql())


def _by_reason(counts: dict[str, int]) -> str:
    """``reason = count`` pairs in reason order, or ``none``."""
    return ", ".join(f"{reason} = {counts[reason]}"
                     for reason in sorted(counts)) or "none"


def describe_cache(cache: "RewriteCache | None") -> str:
    """Readable inventory of a rewriting cache: stats + per-entry state.

    Together with the per-entry concepts and the rejected-walk section
    of :meth:`~repro.query.rewriter.RewritingResult.report`, this makes
    cache behaviour debuggable without a debugger: what is cached, under
    which key, over which concepts, and how often it was served.
    """
    if cache is None:
        return "rewriting cache: disabled"
    stats = cache.stats
    lines = [
        f"rewriting cache: {len(cache)}/{REWRITE_CACHE_ENTRIES} entries",
        f"  lookups = {stats.lookups} (hits = {stats.hits}, "
        f"misses = {stats.misses}, hit rate = {stats.hit_rate:.1%})",
        f"  invalidated by releases = {stats.invalidated}, "
        f"survived releases = {stats.survived_releases}, "
        f"structure evictions = {stats.structure_evictions}, "
        f"lineage evictions = {stats.lineage_evictions}, "
        f"LRU evictions = {stats.lru_evictions}",
        f"  extended by additive releases = {stats.extended}, "
        f"extension fallbacks: {_by_reason(stats.extension_fallbacks)}",
    ]
    for entry in cache.entries():
        concepts = ", ".join(sorted(
            c.local_name for c in entry.concepts)) or "∅"
        lines.append(
            f"  [{entry.key[:12]}…] epoch {entry.epoch}, "
            f"{len(entry.result.walks)} walk(s), "
            f"{entry.hit_count} hit(s), concepts: {concepts}")
    return "\n".join(lines)


def describe_answer_cache(cache: "AnswerCache") -> str:
    """Readable counters of an answer cache: hits, evictions, answers
    kept or extended across releases (and why others were not), and
    incremental maintenance."""
    stats = cache.stats
    return "\n".join([
        f"answer cache: {len(cache)} cached answer(s), "
        f"hits = {stats.hits}, misses = {stats.misses}, "
        f"hit rate = {stats.hit_rate:.1%}, "
        f"evictions = {stats.evictions}, "
        f"LRU evictions = {stats.lru_evictions}, "
        f"invalidations = {stats.invalidations}",
        f"  across releases: kept = {stats.kept}, "
        f"extended = {stats.extended}, "
        f"extension fallbacks: {_by_reason(stats.extension_fallbacks)}",
        f"  incremental maintenance: patches = {stats.patches}, "
        f"seeds = {stats.seeds}, fallbacks = {stats.fallbacks} "
        f"(errors: {_by_reason(stats.fallback_errors)}), "
        f"fallback causes: {_by_reason(stats.fallback_reasons)}",
    ])


def describe_service(service: "GovernedService") -> str:
    """Readable state of a governed serving layer.

    Lock epoch and drain behaviour, query/batch/release counters, the
    bypassed-write count (mutations that skipped the service's write
    path) and the underlying rewrite cache — the operator's one-stop
    view of the concurrency contract in action.
    """
    stats = service.stats
    lock_stats = service.lock.stats
    lines = [
        f"governed service: epoch {service.lock.epoch} "
        f"({stats.releases} release(s) served)",
        f"  queries answered = {stats.queries} "
        f"({stats.batches} batch(es) covering "
        f"{stats.batched_queries} of them, "
        f"pool width = {service.max_workers})",
        f"  lock: reads = {lock_stats.reads}, "
        f"blocked reads = {lock_stats.reads_blocked}, "
        f"writes = {lock_stats.writes}, "
        f"drained writes = {lock_stats.writes_drained} "
        f"(max {lock_stats.max_drained_readers} reader(s), "
        f"{lock_stats.drain_seconds * 1e3:.2f} ms total)",
        f"  bypassed writes (outside the service) = "
        f"{stats.bypassed_writes}",
    ]
    scan_stats = service.scan_cache.stats
    lines.append(
        f"  scan cache: {len(service.scan_cache)} cached scan(s), "
        f"hits = {scan_stats.hits}, misses = {scan_stats.misses}, "
        f"hit rate = {scan_stats.hit_rate:.1%}, "
        f"invalidations = {scan_stats.invalidations}, "
        f"evictions: data version = {scan_stats.version_evictions}, "
        f"rebind = {scan_stats.rebind_evictions}, "
        f"LRU = {scan_stats.lru_evictions}, "
        f"failed probes: version = {sum(scan_stats.unversioned.values())}"
        f", estimate = {sum(scan_stats.unestimated.values())}")
    lines.append("  " + describe_answer_cache(service.answer_cache)
                 .replace("\n", "\n  "))
    journal = service.journal_info()
    if journal is None:
        lines.append("  journal: none (in-memory state — a restart "
                     "loses the governed history)")
    else:
        lag = journal.get("replica_lag")
        lines.append(
            f"  journal: {journal.get('role', 'leader')} at seq "
            f"{journal.get('seq')} (boot {journal.get('boot_id')}, "
            f"snapshot seq {journal.get('snapshot_seq')}, "
            f"replica lag {lag})")
    timings = service.mdm.engine.wrapper_timings()
    if timings:
        lines.append("  observed scan timings (recent runs):")
        for wrapper in sorted(timings):
            entry = timings[wrapper]
            lines.append(
                f"    {wrapper}: {entry['scans']} scan(s), "
                f"{entry['rows']} row(s), "
                f"{float(entry['seconds']) * 1e3:.2f} ms")
    return "\n".join(lines) + "\n" + describe_cache(service.mdm.cache)


def describe_global_graph(ontology: BDIOntology) -> str:
    """Readable inventory of G: concepts, features (IDs marked), edges."""
    lines: list[str] = ["Global graph:"]
    for concept in ontology.globals.concepts():
        lines.append(f"  {concept.local_name} <{concept}>")
        for feature in ontology.globals.features_of(concept):
            marker = " [ID]" if ontology.globals.is_id_feature(feature) \
                else ""
            datatype = ontology.globals.datatype_of(feature)
            dt_text = f" : {datatype.local_name}" if datatype else ""
            lines.append(f"    - {feature.local_name}{marker}{dt_text}")
    edges = ontology.globals.object_properties()
    if edges:
        lines.append("  edges:")
        for edge in edges:
            lines.append(
                f"    {edge.s.local_name} —{edge.p.local_name}→ "
                f"{edge.o.local_name}")
    return "\n".join(lines)
