"""Unit tests for named-graph datasets."""

import pytest

from repro.errors import GraphNotFoundError
from repro.rdf.dataset import Dataset
from repro.rdf.term import IRI
from repro.rdf.triple import Quad

A, B, P = IRI("http://x/a"), IRI("http://x/b"), IRI("http://x/p")
G1, G2 = IRI("http://g/1"), IRI("http://g/2")


@pytest.fixture()
def dataset():
    ds = Dataset()
    ds.graph(G1).add((A, P, B))
    ds.graph(G2).add((B, P, A))
    ds.default_graph.add((A, P, A))
    return ds


class TestGraphManagement:
    def test_graph_creates_on_demand(self):
        ds = Dataset()
        g = ds.graph("http://g/new")
        assert len(g) == 0
        assert ds.has_graph("http://g/new")

    def test_get_graph_strict(self, dataset):
        assert dataset.get_graph(G1).contains(A, P, B)
        with pytest.raises(GraphNotFoundError):
            dataset.get_graph("http://g/absent")

    def test_none_returns_default(self, dataset):
        assert dataset.graph(None) is dataset.default_graph

    def test_remove_graph(self, dataset):
        assert dataset.remove_graph(G1) is True
        assert not dataset.has_graph(G1)
        assert dataset.remove_graph(G1) is False

    def test_graph_names_sorted(self, dataset):
        assert dataset.graph_names() == sorted([G1, G2])

    def test_graph_names_stay_sorted_across_remove_and_add(self, dataset):
        dataset.graph("http://g/0")
        dataset.remove_graph(G1)
        dataset.graph("http://g/3")
        dataset.graph(G1)
        names = dataset.graph_names()
        assert names == sorted(names)
        assert names == [IRI("http://g/0"), G1, G2, IRI("http://g/3")]
        names.append(A)  # a copy: callers cannot corrupt the index
        assert A not in dataset.graph_names()


class TestQuads:
    def test_quad_count(self, dataset):
        assert dataset.quad_count() == 3
        assert len(dataset) == 3

    def test_quads_everywhere(self, dataset):
        quads = list(dataset.quads())
        assert len(quads) == 3
        graphs = {q.graph for q in quads}
        assert graphs == {None, G1, G2}

    def test_quads_default_only(self, dataset):
        quads = list(dataset.quads(graph=None))
        assert len(quads) == 1
        assert quads[0].graph is None

    def test_quads_named_only(self, dataset):
        quads = list(dataset.quads(graph=G1))
        assert quads == [Quad(A, P, B, G1)]

    def test_quads_pattern(self, dataset):
        quads = list(dataset.quads(A, P, None))
        assert len(quads) == 2  # in default and G1

    def test_add_quad(self):
        ds = Dataset()
        ds.add_quad((A, P, B, G1))
        assert ds.graph(G1).contains(A, P, B)

    def test_add_quad_default(self):
        ds = Dataset()
        ds.add_quad(Quad(A, P, B, None))
        assert ds.default_graph.contains(A, P, B)


class TestGraphsContaining:
    def test_finds_named_graphs(self, dataset):
        assert dataset.graphs_containing(A, P, B) == [G1]
        assert dataset.graphs_containing(None, P, None) == [G1, G2]

    def test_ignores_default_graph(self, dataset):
        # (A, P, A) lives only in the default graph.
        assert dataset.graphs_containing(A, P, A) == []


class TestUnionGraph:
    def test_union_all(self, dataset):
        union = dataset.union_graph()
        assert len(union) == 3

    def test_union_selected(self, dataset):
        union = dataset.union_graph([G1])
        assert len(union) == 1
        assert union.contains(A, P, B)

    def test_union_is_a_copy(self, dataset):
        union = dataset.union_graph()
        union.add((B, P, B))
        assert dataset.quad_count() == 3

    def test_union_of_absent_graph_creates_nothing(self, dataset):
        assert len(dataset.union_graph(["http://g/absent"])) == 0
        assert dataset.graph_names() == [G1, G2]


class TestUnionView:
    def test_view_is_live(self, dataset):
        view = dataset.union_view()
        dataset.graph(G2).add((B, P, B))
        assert view.contains(B, P, B)

    def test_duplicate_triple_yielded_once(self, dataset):
        dataset.graph(G2).add((A, P, B))  # also in G1
        assert list(dataset.union_view().match(A, P, B)) == [(A, P, B)]
        assert list(dataset.union_view([G1, G2]).subjects(P, B)) == [A]

    def test_selected_graphs_only(self, dataset):
        view = dataset.union_view([G2])
        assert set(view) == {(B, P, A)}
        assert (A, P, A) not in view

    def test_quads_of_absent_graph_create_nothing(self, dataset):
        assert list(dataset.quads(graph="http://g/absent")) == []
        assert dataset.graph_names() == [G1, G2]


class TestMutationTotal:
    """The running total always equals the per-graph sum."""

    @staticmethod
    def assert_total(ds: Dataset) -> None:
        assert ds.mutation_count() == sum(ds.mutation_counts().values())

    def test_total_tracks_every_kind_of_edit(self):
        ds = Dataset()
        a = ds.graph("http://x/a")
        b = ds.graph("http://x/b")
        a.add(("http://x/s", "http://x/p", "http://x/o"))
        b.add(("http://x/s", "http://x/p", "http://x/o"))
        ds.default_graph.add(("http://x/s", "http://x/p", "http://x/d"))
        self.assert_total(ds)
        before = ds.mutation_count()
        a.add(("http://x/s", "http://x/p", "http://x/o"))  # no-op
        assert ds.mutation_count() == before
        # count-neutral: one out, one in
        a.remove(("http://x/s", "http://x/p", "http://x/o"))
        a.add(("http://x/s", "http://x/p", "http://x/o2"))
        assert ds.mutation_count() == before + 2
        self.assert_total(ds)
        b.clear()
        self.assert_total(ds)
        assert ds.remove_graph("http://x/b")
        self.assert_total(ds)
        b.add(("http://x/s", "http://x/p", "http://x/late"))  # dropped
        self.assert_total(ds)
        ds.graph("http://x/b").add(
            ("http://x/s", "http://x/p", "http://x/o"))
        self.assert_total(ds)
        assert ds.mutation_count() > before + 2

    def test_restore_reproduces_the_total(self):
        ds = Dataset()
        graph = ds.graph("http://x/a")
        for i in range(3):
            graph.add(("http://x/s", "http://x/p", f"http://x/o{i}"))
        graph.remove(("http://x/s", "http://x/p", "http://x/o0"))
        ds.graph("http://x/gone").add(
            ("http://x/s", "http://x/p", "http://x/o"))
        ds.remove_graph("http://x/gone")
        counts = ds.mutation_counts()

        rebuilt = Dataset()
        for triple in graph:
            rebuilt.graph("http://x/a").add(triple)
        rebuilt.restore_mutation_counts(counts)
        assert rebuilt.mutation_counts() == counts
        assert rebuilt.mutation_count() == ds.mutation_count()
        self.assert_total(rebuilt)
