"""Unit tests for N-Triples / N-Quads."""

import pytest

from repro.errors import NTriplesSyntaxError
from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.ntriples import (
    parse_nquads, parse_ntriples, serialize_nquads, serialize_ntriples,
)
from repro.rdf.term import BlankNode, IRI, Literal


class TestNTriples:
    def test_parse_simple(self):
        g = parse_ntriples(
            "<http://x/a> <http://x/p> <http://x/b> .")
        assert len(g) == 1

    def test_parse_literal_with_datatype(self):
        g = parse_ntriples(
            '<http://x/a> <http://x/p> '
            '"5"^^<http://www.w3.org/2001/XMLSchema#integer> .')
        assert next(iter(g)).o.to_python() == 5

    def test_parse_literal_with_lang(self):
        g = parse_ntriples('<http://x/a> <http://x/p> "oui"@fr .')
        assert next(iter(g)).o.lang == "fr"

    def test_parse_bnode(self):
        g = parse_ntriples("_:n1 <http://x/p> _:n2 .")
        triple = next(iter(g))
        assert triple.s == BlankNode("n1")
        assert triple.o == BlankNode("n2")

    def test_blank_lines_and_comments(self):
        g = parse_ntriples("""
# comment
<http://x/a> <http://x/p> <http://x/b> .

""")
        assert len(g) == 1

    def test_error_carries_line_number(self):
        with pytest.raises(NTriplesSyntaxError, match="line 1"):
            parse_ntriples("<http://x/a> <http://x/p>")

    def test_round_trip(self):
        g = Graph()
        g.add((IRI("http://x/a"), IRI("http://x/p"), Literal('q"uo\nte')))
        g.add((IRI("http://x/a"), IRI("http://x/p"), Literal(7)))
        g.add((BlankNode("z"), IRI("http://x/p"), IRI("http://x/b")))
        assert parse_ntriples(serialize_ntriples(g)) == g

    def test_canonical_sorted_output(self):
        g = Graph()
        g.add((IRI("http://x/b"), IRI("http://x/p"), IRI("http://x/c")))
        g.add((IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/c")))
        lines = serialize_ntriples(g).splitlines()
        assert lines == sorted(lines)


class TestNQuads:
    def test_round_trip_dataset(self):
        ds = Dataset()
        ds.graph("http://g/1").add(
            (IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b")))
        ds.default_graph.add(
            (IRI("http://x/c"), IRI("http://x/p"), Literal("v")))
        text = serialize_nquads(ds)
        back = parse_nquads(text)
        assert back.quad_count() == 2
        assert back.graph("http://g/1").contains(
            IRI("http://x/a"), None, None)
        assert back.default_graph.contains(IRI("http://x/c"), None, None)

    def test_parse_into_existing_dataset(self):
        source = Dataset()
        source.graph("http://g/1").add(
            (IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b")))
        target = Dataset()
        target.graph("http://g/2").add(
            (IRI("http://x/c"), IRI("http://x/p"), IRI("http://x/d")))
        assert parse_nquads(serialize_nquads(source), into=target) is target
        assert target.quad_count() == 2
        assert target.graph("http://g/1") == source.graph("http://g/1")

    def test_quad_line_has_graph_label(self):
        ds = Dataset()
        ds.graph("http://g/1").add(
            (IRI("http://x/a"), IRI("http://x/p"), IRI("http://x/b")))
        assert "<http://g/1>" in serialize_nquads(ds)

    def test_whole_ontology_round_trips(self, ontology):
        text = serialize_nquads(ontology.dataset)
        back = parse_nquads(text)
        assert back.quad_count() == ontology.dataset.quad_count()
        for name in ontology.dataset.graph_names():
            assert back.graph(name) == ontology.dataset.graph(name)
