"""N-Triples and N-Quads line-based serialization and parsing.

These formats are the persistence layer of the reproduction: a dataset
(the whole BDI ontology, named graphs included) round-trips through
N-Quads, which is trivial to diff in tests and version in git.
"""

from __future__ import annotations

import re
from typing import Iterable

from repro.errors import NTriplesSyntaxError
from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.term import BlankNode, IRI, Literal, Term
from repro.rdf.triple import Quad, Triple

__all__ = [
    "serialize_ntriples", "parse_ntriples",
    "serialize_nquads", "parse_nquads",
]

_TERM_RE = re.compile(
    r"""\s*(?:
        (?P<iri><[^<>]*>)
      | (?P<bnode>_:[A-Za-z0-9_][A-Za-z0-9_.-]*)
      | (?P<literal>"(?:[^"\\]|\\.)*"
            (?:@(?P<lang>[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)
             |\^\^<(?P<dt>[^<>]*)>)?)
    )""",
    re.VERBOSE,
)

_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\"}


def _unescape(raw: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        nxt = raw[i + 1]
        if nxt in _ESCAPES:
            out.append(_ESCAPES[nxt])
            i += 2
        elif nxt == "u":
            out.append(chr(int(raw[i + 2:i + 6], 16)))
            i += 6
        elif nxt == "U":
            out.append(chr(int(raw[i + 2:i + 10], 16)))
            i += 10
        else:
            raise NTriplesSyntaxError(f"bad escape \\{nxt}")
    return "".join(out)


def _parse_term(text: str, pos: int,
                interned: dict[str, IRI] | None = None,
                ) -> tuple[Term, int]:
    m = _TERM_RE.match(text, pos)
    if not m:
        raise NTriplesSyntaxError(
            f"expected term at column {pos}: {text[pos:pos + 30]!r}")
    if m.group("iri"):
        raw = m.group("iri")[1:-1]
        if interned is None:
            return IRI(raw), m.end()
        iri = interned.get(raw)
        if iri is None:
            # Document-scoped interning: the same IRI recurs on almost
            # every line (predicates, graph labels, concepts), so large
            # restores validate and allocate each one exactly once.
            iri = interned[raw] = IRI(raw)
        return iri, m.end()
    if m.group("bnode"):
        return BlankNode(m.group("bnode")[2:]), m.end()
    raw = m.group("literal")
    closing = raw.rindex('"')
    value = _unescape(raw[1:closing])
    if m.group("lang"):
        return Literal(value, lang=m.group("lang")), m.end()
    if m.group("dt"):
        return Literal(value, datatype=IRI(m.group("dt"))), m.end()
    return Literal(value), m.end()


def _parse_line(line: str, quads: bool,
                interned: dict[str, IRI] | None = None,
                ) -> Triple | Quad | None:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    s, pos = _parse_term(line, 0, interned)
    p, pos = _parse_term(line, pos, interned)
    o, pos = _parse_term(line, pos, interned)
    graph_name: IRI | None = None
    rest = line[pos:].strip()
    if rest.startswith("<") and quads:
        g, pos = _parse_term(line, pos, interned)
        if not isinstance(g, IRI):
            raise NTriplesSyntaxError("graph label must be an IRI")
        graph_name = g
        rest = line[pos:].strip()
    if rest != ".":
        raise NTriplesSyntaxError(
            f"expected terminating '.', found {rest!r}")
    if quads:
        return Quad(s, p, o, graph_name)
    return Triple(s, p, o)


def parse_ntriples(text: str) -> Graph:
    """Parse an N-Triples document into a graph."""
    g = Graph()
    interned: dict[str, IRI] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            t = _parse_line(line, quads=False, interned=interned)
        except NTriplesSyntaxError as exc:
            raise NTriplesSyntaxError(f"line {lineno}: {exc}") from None
        if t is not None:
            g.add(t)
    return g


def parse_nquads(text: str, into: Dataset | None = None) -> Dataset:
    """Parse an N-Quads document into *into*, or into a new dataset."""
    ds = Dataset() if into is None else into
    interned: dict[str, IRI] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            q = _parse_line(line, quads=True, interned=interned)
        except NTriplesSyntaxError as exc:
            raise NTriplesSyntaxError(f"line {lineno}: {exc}") from None
        if q is not None:
            ds.add_quad(q)
    return ds


def serialize_ntriples(triples: Iterable[Triple] | Graph) -> str:
    """Serialize triples to canonical (sorted) N-Triples."""
    lines = sorted(t.n3() for t in triples)
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_nquads(dataset: Dataset) -> str:
    """Serialize a dataset to canonical (sorted) N-Quads."""
    lines = sorted(q.n3() for q in dataset.quads())
    return "\n".join(lines) + ("\n" if lines else "")
