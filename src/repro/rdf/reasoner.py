"""RDFS entailment (the regime assumed by the paper, §2: "a triplestore
with a SPARQL endpoint supporting the RDFS entailment regime (e.g., subclass
relations are automatically inferred)").

Two complementary interfaces are offered:

* :func:`materialize` — forward-chaining closure of the standard RDFS rules
  over a graph, returning a new graph with all inferred triples added. This
  mirrors what a Jena RDFS reasoner does at load time.
* :class:`RDFSView` — a lazy view answering the two queries the BDI
  algorithms actually rely on (transitive ``rdfs:subClassOf`` and inherited
  ``rdf:type``) without paying full materialization. The SPARQL evaluator
  can wrap the queried graph in this view.

Implemented rules (names from the RDFS semantics document):

=======  =====================================================
rdfs2    (p domain c) & (x p y)     ⇒ (x type c)
rdfs3    (p range c) & (x p y)      ⇒ (y type c)   [y not literal]
rdfs5    subPropertyOf transitivity
rdfs7    (p subPropertyOf q) & (x p y) ⇒ (x q y)
rdfs9    (c subClassOf d) & (x type c) ⇒ (x type d)
rdfs11   subClassOf transitivity
=======  =====================================================
"""

from __future__ import annotations

from typing import Iterator

from repro.rdf.graph import Graph, TripleReader, _pattern_term
from repro.rdf.namespace import RDF, RDFS
from repro.rdf.term import IRI, Literal, Term
from repro.rdf.triple import Triple

__all__ = ["materialize", "subclass_closure", "superclasses",
           "subclasses", "RDFSView"]


def _transitive(graph: TripleReader, start: Term, predicate: IRI,
                forward: bool = True) -> set[Term]:
    """Nodes reachable from *start* over *predicate* (excluding start).

    ``forward=True`` follows subject→object, else object→subject.
    """
    seen: set[Term] = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if forward:
            nexts = graph.objects(node, predicate)
        else:
            nexts = graph.subjects(predicate, node)
        for nxt in nexts:
            if nxt not in seen and nxt != start:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def superclasses(graph: TripleReader, cls: Term,
                 reflexive: bool = False) -> set[Term]:
    """All (transitive) superclasses of *cls* via ``rdfs:subClassOf``."""
    result = _transitive(graph, cls, RDFS.subClassOf, forward=True)
    if reflexive:
        result.add(cls)
    return result


def subclasses(graph: TripleReader, cls: Term,
               reflexive: bool = False) -> set[Term]:
    """All (transitive) subclasses of *cls* via ``rdfs:subClassOf``."""
    result = _transitive(graph, cls, RDFS.subClassOf, forward=False)
    if reflexive:
        result.add(cls)
    return result


def subclass_closure(graph: TripleReader, sub: Term, sup: Term) -> bool:
    """True when ``sub rdfs:subClassOf* sup`` holds (reflexive)."""
    if sub == sup:
        return True
    return sup in superclasses(graph, sub)


def materialize(graph: Graph, max_iterations: int = 100) -> Graph:
    """Forward-chain the RDFS rules to a fixpoint on a copy of *graph*.

    The closure is finite (no new terms are minted), so the fixpoint always
    terminates; *max_iterations* is a safety valve only.
    """
    closed = graph.copy()
    for _ in range(max_iterations):
        added = _apply_rules_once(closed)
        if not added:
            return closed
    raise RuntimeError(
        "RDFS materialization did not reach a fixpoint "
        f"after {max_iterations} iterations")  # pragma: no cover


def _apply_rules_once(g: Graph) -> int:
    new: list[Triple] = []

    # rdfs11: subClassOf transitivity
    for t in list(g.match(None, RDFS.subClassOf, None)):
        for sup in list(g.objects(t.o, RDFS.subClassOf)):
            cand = Triple(t.s, RDFS.subClassOf, sup)
            if cand not in g:
                new.append(cand)

    # rdfs5: subPropertyOf transitivity
    for t in list(g.match(None, RDFS.subPropertyOf, None)):
        for sup in list(g.objects(t.o, RDFS.subPropertyOf)):
            cand = Triple(t.s, RDFS.subPropertyOf, sup)
            if cand not in g:
                new.append(cand)

    # rdfs7: property inheritance
    for t in list(g.match(None, RDFS.subPropertyOf, None)):
        if not isinstance(t.s, IRI) or not isinstance(t.o, IRI):
            continue
        for usage in list(g.match(None, t.s, None)):
            cand = Triple(usage.s, t.o, usage.o)
            if cand not in g:
                new.append(cand)

    # rdfs2 / rdfs3: domain and range
    for t in list(g.match(None, RDFS.domain, None)):
        if not isinstance(t.s, IRI):
            continue
        for usage in list(g.match(None, t.s, None)):
            cand = Triple(usage.s, RDF.type, t.o)
            if cand not in g:
                new.append(cand)
    for t in list(g.match(None, RDFS.range, None)):
        if not isinstance(t.s, IRI):
            continue
        for usage in list(g.match(None, t.s, None)):
            if isinstance(usage.o, Literal):
                continue
            cand = Triple(usage.o, RDF.type, t.o)
            if cand not in g:
                new.append(cand)

    # rdfs9: type inheritance through subClassOf
    for t in list(g.match(None, RDFS.subClassOf, None)):
        for inst in list(g.subjects(RDF.type, t.s)):
            cand = Triple(inst, RDF.type, t.o)
            if cand not in g:
                new.append(cand)

    for t in new:
        g.add(t)
    return len(new)


class RDFSView(TripleReader):
    """A read-only entailment view over a graph (or a graph view).

    Exposes the read-only :class:`~repro.rdf.graph.TripleReader` API,
    augmenting :meth:`match` results with:

    * transitive ``rdfs:subClassOf`` answers, and
    * ``rdf:type`` answers inherited through ``rdfs:subClassOf``.

    These are the two entailments the paper's algorithms depend on (for ID
    detection via ``?t rdfs:subClassOf sc:identifier`` over feature
    taxonomies of arbitrary depth). Domain/range and subPropertyOf rules are
    available through :func:`materialize` when full closure is wanted.
    """

    __slots__ = ("_g",)

    def __init__(self, graph: TripleReader) -> None:
        self._g = graph

    @property
    def raw(self) -> TripleReader:
        return self._g

    def match(self, s: object | None = None, p: object | None = None,
              o: object | None = None) -> Iterator[Triple]:
        yield from self._g.match(s, p, o)
        ms, mp, mo = _pattern_term(s), _pattern_term(p), _pattern_term(o)

        if mp == RDFS.subClassOf:
            yield from self._match_subclass(ms, mo)
        elif mp == RDF.type:
            yield from self._match_type(ms, mo)

    def _match_subclass(self, ms: Term | None,
                        mo: Term | None) -> Iterator[Triple]:
        asserted = set(self._g.match(None, RDFS.subClassOf, None))
        if ms is not None:
            sups = superclasses(self._g, ms)
            for sup in sups:
                t = Triple(ms, RDFS.subClassOf, sup)
                if t not in asserted and (mo is None or mo == sup):
                    yield t
            return
        if mo is not None:
            subs = subclasses(self._g, mo)
            for sub in subs:
                t = Triple(sub, RDFS.subClassOf, mo)
                if t not in asserted:
                    yield t
            return
        # Fully unbound: transitive closure over all asserted edges.
        subjects = {t.s for t in asserted}
        for subj in subjects:
            for sup in superclasses(self._g, subj):
                t = Triple(subj, RDFS.subClassOf, sup)
                if t not in asserted:
                    yield t

    def _match_type(self, ms: Term | None,
                    mo: Term | None) -> Iterator[Triple]:
        asserted = set(self._g.match(None, RDF.type, None))
        if ms is not None:
            direct = set(self._g.objects(ms, RDF.type))
            inferred: set[Term] = set()
            for cls in direct:
                inferred |= superclasses(self._g, cls)
            for cls in inferred - direct:
                if mo is None or mo == cls:
                    yield Triple(ms, RDF.type, cls)
            return
        if mo is not None:
            for sub in subclasses(self._g, mo):
                for inst in self._g.subjects(RDF.type, sub):
                    t = Triple(inst, RDF.type, mo)
                    if t not in asserted:
                        yield t
            return
        for t in list(asserted):
            for sup in superclasses(self._g, t.o):
                cand = Triple(t.s, RDF.type, sup)
                if cand not in asserted:
                    yield cand
