"""Unit tests for the SPARQL subset: parser, algebra, evaluator."""

import pytest

from repro.errors import SparqlSyntaxError
from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.namespace import G as G_NS, RDF, RDFS, SC
from repro.rdf.sparql import (
    ask, evaluate, parse_sparql, render_algebra, select, select_one,
    to_algebra,
)
from repro.rdf.sparql.ast import BGP, GraphPattern, ValuesClause
from repro.rdf.term import IRI, Literal, Variable


class TestParser:
    def test_simple_select(self):
        q = parse_sparql("SELECT ?s WHERE { ?s ?p ?o }")
        assert q.variables == (Variable("s"),)
        assert len(q.bgp()) == 1

    def test_select_star(self):
        q = parse_sparql("SELECT * WHERE { ?s ?p ?o }")
        assert q.select_all
        assert set(q.projected()) == {Variable("s"), Variable("p"),
                                      Variable("o")}

    def test_distinct(self):
        q = parse_sparql("SELECT DISTINCT ?s WHERE { ?s ?p ?o }")
        assert q.distinct

    def test_prefixed_names(self):
        q = parse_sparql("SELECT ?s WHERE { ?s rdf:type G:Concept }")
        pattern = q.bgp().patterns[0]
        assert pattern.p == RDF.type
        assert pattern.o == G_NS.Concept

    def test_a_keyword(self):
        q = parse_sparql("SELECT ?s WHERE { ?s a G:Concept }")
        assert q.bgp().patterns[0].p == RDF.type

    def test_prefix_declaration(self):
        q = parse_sparql("""
            PREFIX ex: <http://example.org/>
            SELECT ?s WHERE { ?s ex:p ex:o }
        """)
        assert q.bgp().patterns[0].p == IRI("http://example.org/p")

    def test_from_clause(self):
        q = parse_sparql(
            "SELECT ?s FROM <http://g/1> WHERE { ?s ?p ?o }")
        assert q.from_graphs == (IRI("http://g/1"),)

    def test_values_clause(self):
        q = parse_sparql("""
            SELECT ?x WHERE {
                VALUES (?x) { (<http://x/a>) (<http://x/b>) }
                ?x ?p ?o
            }""")
        values = q.values_clause()
        assert isinstance(values, ValuesClause)
        assert len(values.rows) == 2

    def test_values_arity_mismatch(self):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql("""
                SELECT ?x ?y WHERE {
                    VALUES (?x ?y) { (<http://x/a>) }
                }""")

    def test_graph_pattern_variable(self):
        q = parse_sparql(
            "SELECT ?g WHERE { GRAPH ?g { ?s ?p ?o } }")
        assert isinstance(q.patterns[0], GraphPattern)
        assert q.patterns[0].graph == Variable("g")

    def test_graph_pattern_iri(self):
        q = parse_sparql(
            "SELECT ?s WHERE { GRAPH <http://g/1> { ?s ?p ?o } }")
        assert q.patterns[0].graph == IRI("http://g/1")

    def test_literals(self):
        q = parse_sparql(
            'SELECT ?s WHERE { ?s ?p "text" . ?s ?q 5 . ?s ?r true }')
        objects = [p.o for p in q.bgp().patterns]
        assert Literal("text") in objects
        assert Literal(5) in objects
        assert Literal(True) in objects

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql("SELECT ?s WHERE { ?s ?p ?o } garbage:x")

    def test_select_requires_projection(self):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql("SELECT WHERE { ?s ?p ?o }")

    def test_unknown_prefix(self):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql("SELECT ?s WHERE { ?s nope:p ?o }")

    def test_where_keyword_optional(self):
        q = parse_sparql("SELECT ?s { ?s ?p ?o }")
        assert len(q.bgp()) == 1


class TestAlgebra:
    def test_code4_shape(self):
        q = parse_sparql("""
            SELECT ?x WHERE {
                VALUES (?x) { (<http://x/attr>) }
                <http://x/c> G:hasFeature <http://x/attr>
            }""")
        tree = to_algebra(q)
        assert tree.op == "project"
        body = tree.args[1]
        assert body.op == "join"
        ops = [child.op for child in body.args]
        assert ops == ["table", "bgp"]

    def test_rendering_contains_rows(self):
        q = parse_sparql("""
            SELECT ?x WHERE {
                VALUES (?x) { (<http://x/attr>) }
                <http://x/c> G:hasFeature <http://x/attr>
            }""")
        text = render_algebra(to_algebra(q))
        assert "(project (?x)" in text
        assert "(table (vars ?x)" in text
        assert "(row [?x" in text
        assert "(bgp" in text

    def test_single_pattern_no_join(self):
        q = parse_sparql("SELECT ?s WHERE { ?s ?p ?o }")
        tree = to_algebra(q)
        assert tree.args[1].op == "bgp"


@pytest.fixture()
def small_graph():
    g = Graph()
    c1, c2 = IRI("http://x/c1"), IRI("http://x/c2")
    f1, f2 = IRI("http://x/f1"), IRI("http://x/f2")
    g.add((c1, RDF.type, G_NS.Concept))
    g.add((c2, RDF.type, G_NS.Concept))
    g.add((f1, RDF.type, G_NS.Feature))
    g.add((f2, RDF.type, G_NS.Feature))
    g.add((c1, G_NS.hasFeature, f1))
    g.add((c2, G_NS.hasFeature, f2))
    g.add((f1, RDFS.subClassOf, SC.identifier))
    g.add((c1, IRI("http://x/rel"), c2))
    return g


class TestEvaluator:
    def test_bgp_join(self, small_graph):
        rows = select(small_graph, """
            SELECT ?c ?f WHERE {
                ?c rdf:type G:Concept .
                ?c G:hasFeature ?f
            }""")
        assert len(rows) == 2

    def test_values_restricts(self, small_graph):
        rows = select(small_graph, """
            SELECT ?c WHERE {
                VALUES (?c) { (<http://x/c1>) }
                ?c rdf:type G:Concept
            }""")
        assert [str(r["c"]) for r in rows] == ["http://x/c1"]

    def test_entailment_subclass(self, small_graph):
        rows = select(small_graph, """
            SELECT ?f WHERE {
                <http://x/c1> G:hasFeature ?f .
                ?f rdfs:subClassOf sc:identifier
            }""")
        assert len(rows) == 1

    def test_entailment_off(self, small_graph):
        small_graph.add((IRI("http://x/f3"), RDFS.subClassOf,
                         IRI("http://x/f1")))
        with_ent = select(small_graph,
                          "SELECT ?x WHERE { ?x rdfs:subClassOf "
                          "sc:identifier }", entailment=True)
        without = select(small_graph,
                         "SELECT ?x WHERE { ?x rdfs:subClassOf "
                         "sc:identifier }", entailment=False)
        assert len(with_ent) == 2  # f1 direct + f3 transitive
        assert len(without) == 1

    def test_distinct(self, small_graph):
        rows = select(small_graph, """
            SELECT DISTINCT ?t WHERE { ?c rdf:type ?t .
                                       ?c G:hasFeature ?f }""")
        assert len(rows) == 1

    def test_ask(self, small_graph):
        assert ask(small_graph,
                   "SELECT ?c WHERE { ?c rdf:type G:Concept }")
        assert not ask(small_graph,
                       "SELECT ?c WHERE { ?c rdf:type G:Wrapper }")

    def test_select_one(self, small_graph):
        row = select_one(small_graph,
                         "SELECT ?f WHERE { <http://x/c2> G:hasFeature ?f }")
        assert str(row["f"]) == "http://x/f2"
        assert select_one(small_graph,
                          "SELECT ?f WHERE { <http://x/f2> G:hasFeature ?f }"
                          ) is None

    def test_no_solution_when_unmatched(self, small_graph):
        rows = select(small_graph, """
            SELECT ?c WHERE {
                ?c rdf:type G:Concept .
                ?c G:hasFeature <http://x/nonexistent>
            }""")
        assert rows == []

    @pytest.mark.parametrize("concept", ["http://x/c1", "http://x/c2"])
    def test_bindings_match_inline_iri(self, small_graph, concept):
        template = parse_sparql("""
            SELECT ?f WHERE {
                ?c G:hasFeature ?f .
                ?f rdfs:subClassOf sc:identifier
            }""")
        inline = select(small_graph, f"""
            SELECT ?f WHERE {{
                <{concept}> G:hasFeature ?f .
                ?f rdfs:subClassOf sc:identifier
            }}""")
        bound = select(small_graph, template,
                       bindings={"c": IRI(concept)})
        assert bound == inline  # and ?c, bound but not projected, is absent

    def test_shared_variable_consistency(self, small_graph):
        # ?x must bind consistently across patterns.
        rows = select(small_graph, """
            SELECT ?x WHERE {
                ?x rdf:type G:Concept .
                ?x G:hasFeature ?f .
                ?f rdfs:subClassOf sc:identifier
            }""")
        assert [str(r["x"]) for r in rows] == ["http://x/c1"]


class TestDatasetEvaluation:
    def test_graph_variable_enumerates(self):
        ds = Dataset()
        ds.graph("http://g/1").add(
            ("http://x/a", "http://x/p", "http://x/b"))
        ds.graph("http://g/2").add(
            ("http://x/a", "http://x/p", "http://x/c"))
        rows = select(ds, """
            SELECT ?g ?o WHERE {
                GRAPH ?g { <http://x/a> <http://x/p> ?o } }""")
        assert len(rows) == 2
        assert {str(r["g"]) for r in rows} == {"http://g/1", "http://g/2"}

    def test_graph_fixed_iri(self):
        ds = Dataset()
        ds.graph("http://g/1").add(
            ("http://x/a", "http://x/p", "http://x/b"))
        rows = select(ds, """
            SELECT ?o WHERE {
                GRAPH <http://g/1> { <http://x/a> ?p ?o } }""")
        assert len(rows) == 1

    def test_from_restricts_scope(self):
        ds = Dataset()
        ds.graph("http://g/1").add(
            ("http://x/a", "http://x/p", "http://x/b"))
        ds.graph("http://g/2").add(
            ("http://x/c", "http://x/p", "http://x/d"))
        rows = select(ds, """
            SELECT ?s FROM <http://g/1> WHERE { ?s ?p ?o }""")
        assert [str(r["s"]) for r in rows] == ["http://x/a"]

    def test_default_scope_is_union(self):
        ds = Dataset()
        ds.graph("http://g/1").add(
            ("http://x/a", "http://x/p", "http://x/b"))
        ds.default_graph.add(("http://x/c", "http://x/p", "http://x/d"))
        rows = select(ds, "SELECT ?s WHERE { ?s ?p ?o }")
        assert len(rows) == 2

    def test_graph_and_bgp_combined(self):
        ds = Dataset()
        ds.default_graph.add(("http://x/w", "http://x/maps",
                              "http://g/1"))
        ds.graph("http://g/1").add(
            ("http://x/a", "http://x/p", "http://x/b"))
        rows = select(ds, """
            SELECT ?w WHERE {
                ?w <http://x/maps> ?g .
                GRAPH ?g { <http://x/a> <http://x/p> <http://x/b> }
            }""")
        assert [str(r["w"]) for r in rows] == ["http://x/w"]
