"""Triples and quads.

A :class:`Triple` is an immutable ``(subject, predicate, object)`` value
object; a :class:`Quad` additionally names the graph holding the triple.
Triple *patterns* — triples whose positions may hold
:class:`~repro.rdf.term.Variable` or ``None`` wildcards — reuse the same
classes; the store decides what it accepts.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from repro.errors import TermError
from repro.rdf.term import BlankNode, IRI, Literal, Term, Variable

__all__ = ["Triple", "Quad", "coerce_node"]


def coerce_node(value: object) -> Term:
    """Coerce *value* into an RDF term.

    Strings become IRIs (the overwhelmingly common case inside the BDI
    algorithms, which manipulate URIs); terms pass through; Python natives
    become typed literals.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, str):
        return IRI(value)
    if isinstance(value, (bool, int, float)):
        return Literal(value)
    raise TermError(f"cannot coerce {value!r} into an RDF term")


class Triple(NamedTuple):
    """An RDF triple (or triple pattern).

    >>> from repro.rdf.namespace import RDF, G
    >>> t = Triple(IRI("http://x/c"), RDF.type, G.Concept)
    >>> t.s, t.p, t.o == G.Concept
    (IRI('http://x/c'), IRI('http://www.w3.org/1999/02/22-rdf-syntax-ns#type'), True)
    """

    s: Term
    p: Term
    o: Term

    @classmethod
    def of(cls, s: object, p: object, o: object) -> "Triple":
        """Build a triple coercing plain strings/natives into terms."""
        return cls(coerce_node(s), coerce_node(p), coerce_node(o))

    def variables(self) -> Iterator[Variable]:
        """Yield the variables appearing in this pattern, in s/p/o order."""
        for t in self:
            if isinstance(t, Variable):
                yield t

    def n3(self) -> str:
        return f"{self.s.n3()} {self.p.n3()} {self.o.n3()} ."

    def validate_concrete(self) -> "Triple":
        """Raise :class:`TermError` unless this triple may be asserted.

        RDF 1.1: subject is IRI/bnode, predicate is IRI, object is any
        non-variable term.
        """
        if not isinstance(self.s, (IRI, BlankNode)):
            raise TermError(
                f"triple subject must be an IRI or blank node: {self.s!r}")
        if not isinstance(self.p, IRI):
            raise TermError(
                f"triple predicate must be an IRI: {self.p!r}")
        if isinstance(self.o, Variable) or not isinstance(self.o, Term):
            raise TermError(
                f"triple object must be a concrete term: {self.o!r}")
        return self


class Quad(NamedTuple):
    """A triple plus the IRI of the named graph containing it.

    ``graph is None`` denotes the default graph of a dataset.
    """

    s: Term
    p: Term
    o: Term
    graph: Optional[IRI]

    @classmethod
    def of(cls, s: object, p: object, o: object,
           graph: object | None = None) -> "Quad":
        g = None if graph is None else IRI(str(graph))
        return cls(coerce_node(s), coerce_node(p), coerce_node(o), g)

    @property
    def triple(self) -> Triple:
        return Triple(self.s, self.p, self.o)

    def n3(self) -> str:
        head = f"{self.s.n3()} {self.p.n3()} {self.o.n3()}"
        if self.graph is None:
            return head + " ."
        return f"{head} {self.graph.n3()} ."
