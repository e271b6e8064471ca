"""Property-based tests for the RDF substrate (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.rdf.graph import Graph
from repro.rdf.ntriples import (
    parse_nquads, parse_ntriples, serialize_nquads, serialize_ntriples,
)
from repro.rdf.dataset import Dataset
from repro.rdf.term import IRI, Literal
from repro.rdf.triple import Triple

_iris = st.sampled_from(
    [IRI(f"http://x/n{i}") for i in range(8)])
_predicates = st.sampled_from(
    [IRI(f"http://x/p{i}") for i in range(4)])
_literal_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20)
_objects = st.one_of(
    _iris,
    _literal_text.map(Literal),
    st.integers(min_value=-10**6, max_value=10**6).map(Literal),
    st.booleans().map(Literal),
)
_triples = st.builds(Triple, _iris, _predicates, _objects)
_triple_lists = st.lists(_triples, max_size=40)


class TestStoreInvariants:
    @given(_triple_lists)
    def test_size_equals_distinct_triples(self, triples):
        g = Graph(triples=triples)
        assert len(g) == len(set(triples))

    @given(_triple_lists)
    def test_indexes_agree(self, triples):
        """Every access path returns the same triple set."""
        g = Graph(triples=triples)
        full = set(g.match())
        via_s = {t for s in {x.s for x in full}
                 for t in g.match(s, None, None)}
        via_p = {t for p in {x.p for x in full}
                 for t in g.match(None, p, None)}
        via_o = {t for o in {x.o for x in full}
                 for t in g.match(None, None, o)}
        assert full == via_s == via_p == via_o

    @given(_triple_lists, _triples)
    def test_add_remove_roundtrip(self, triples, extra):
        g = Graph(triples=triples)
        before = set(g.match())
        g.add(extra)
        g.remove(extra)
        assert set(g.match()) == before - {extra}

    @given(_triple_lists, _triple_lists)
    def test_union_commutes(self, a, b):
        ga, gb = Graph(triples=a), Graph(triples=b)
        assert ga.union(gb) == gb.union(ga)

    @given(_triple_lists, _triple_lists)
    def test_intersection_subset_of_both(self, a, b):
        ga, gb = Graph(triples=a), Graph(triples=b)
        common = ga.intersection(gb)
        assert common.issubset(ga)
        assert common.issubset(gb)

    @given(_triple_lists)
    def test_difference_disjoint(self, a):
        g = Graph(triples=a)
        assert len(g.difference(g)) == 0


class TestSerializationRoundTrips:
    @settings(max_examples=50)
    @given(_triple_lists)
    def test_ntriples_roundtrip(self, triples):
        g = Graph(triples=triples)
        assert parse_ntriples(serialize_ntriples(g)) == g

    @settings(max_examples=30)
    @given(st.lists(st.tuples(_triples,
                              st.sampled_from([None, "http://g/1",
                                               "http://g/2"])),
                    max_size=25))
    def test_nquads_roundtrip(self, quads):
        ds = Dataset()
        for triple, graph in quads:
            ds.graph(graph).add(triple)
        back = parse_nquads(serialize_nquads(ds))
        assert back.quad_count() == ds.quad_count()
        for name in ds.graph_names():
            assert back.graph(name) == ds.graph(name)

    @settings(max_examples=50)
    @given(_triple_lists)
    def test_turtle_roundtrip(self, triples):
        from repro.rdf.turtle import parse_turtle, serialize_turtle
        g = Graph(triples=triples)
        assert parse_turtle(serialize_turtle(g)) == g


_GRAPH_NAMES = [IRI(f"http://g/{i}") for i in range(3)]
#: a name no generated dataset holds: selecting it must add nothing
_ABSENT = IRI("http://g/absent")


@st.composite
def _datasets(draw):
    """A dataset whose graphs share triples: every graph draws from one
    small pool, so the same triple lands in several graphs (and in the
    default graph) most of the time."""
    pool = draw(st.lists(_triples, min_size=1, max_size=12))
    picks = st.lists(st.sampled_from(pool), max_size=10)
    ds = Dataset()
    ds.default_graph.update(draw(picks))
    for name in _GRAPH_NAMES:
        if draw(st.booleans()):
            ds.graph(name).update(draw(picks))
    return ds, pool


def _pattern(triple, shape):
    """*triple* with the positions whose *shape* bit is 0 unbound."""
    return tuple(term if bound else None
                 for term, bound in zip(triple, shape))


_SHAPES = [tuple(bool(mask >> i & 1) for i in range(3))
           for mask in range(8)]


class TestUnionViewEquivalence:
    """The zero-copy view answers every pattern exactly like the copy."""

    @settings(max_examples=60)
    @given(_datasets(), st.data())
    def test_match_equals_union_copy(self, drawn, data):
        ds, pool = drawn
        names = data.draw(st.one_of(
            st.none(),
            st.lists(st.sampled_from(_GRAPH_NAMES + [_ABSENT]),
                     max_size=4)))
        view = ds.union_view(names)
        copy = ds.union_graph(names)
        probe = data.draw(st.sampled_from(pool))
        for shape in _SHAPES:
            pattern = _pattern(probe, shape)
            got = list(view.match(*pattern))
            assert len(got) == len(set(got)), (shape, got)
            assert set(got) == set(copy.match(*pattern)), shape
            assert view.contains(*pattern) == copy.contains(*pattern)
