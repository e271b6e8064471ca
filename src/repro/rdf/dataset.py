"""RDF datasets: collections of named graphs plus a default graph.

The BDI ontology ``T = ⟨G, S, M⟩`` is stored as a dataset: the Global,
Source and Mapping graphs are named graphs, and every LAV mapping is *also*
a named graph (one per wrapper) per paper §3.3. SPARQL ``GRAPH ?g { ... }``
evaluation therefore needs fast iteration over named graphs, which this
class provides.

Queries that read the *union* of graphs (a plain BGP over the dataset, or
a ``FROM`` clause) run over a :class:`UnionView`: a read-only, zero-copy
view over the graphs' own indexes, so no metadata lookup copies ``T``.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Iterator, Optional

from repro.errors import GraphNotFoundError
from repro.rdf.graph import Graph, MutationTally, TripleReader, \
    _pattern_term
from repro.rdf.term import IRI
from repro.rdf.triple import Quad, Triple

__all__ = ["Dataset", "UnionView"]


class UnionView(TripleReader):
    """A read-only union of graphs that copies nothing.

    Patterns are answered from each graph's own indexes, with set
    semantics: a triple asserted in several graphs is yielded once, by the
    first graph holding it (a later graph's hit is dropped when an earlier
    graph's SPO index already has it). The view is live — it reflects the
    graphs as they are when :meth:`match` runs.

    >>> a = Graph([("http://x/a", "http://x/p", "http://x/b")])
    >>> b = Graph([("http://x/a", "http://x/p", "http://x/b"),
    ...            ("http://x/b", "http://x/p", "http://x/a")])
    >>> len(list(UnionView([a, b]).match()))
    2
    """

    __slots__ = ("_graphs",)

    def __init__(self, graphs: Iterable[Graph]) -> None:
        self._graphs = tuple(graphs)

    def match(self, s: object | None = None, p: object | None = None,
              o: object | None = None) -> Iterator[Triple]:
        ms, mp, mo = _pattern_term(s), _pattern_term(p), _pattern_term(o)
        graphs = self._graphs
        for index, graph in enumerate(graphs):
            earlier = graphs[:index]
            for t in graph.match_terms(ms, mp, mo):
                for prior in earlier:
                    if prior.has_triple(t):
                        break
                else:
                    yield t


class Dataset:
    """A mutable collection of named :class:`Graph` objects.

    >>> ds = Dataset()
    >>> g = ds.graph("http://example.org/g1")
    >>> _ = g.add(("http://x/a", "http://x/p", "http://x/b"))
    >>> ds.quad_count()
    1
    """

    __slots__ = ("_default", "_named", "_names", "_retired_mutations",
                 "_tally")

    def __init__(self) -> None:
        #: running total of every graph's effective mutations plus the
        #: retired ones, so :meth:`mutation_count` reads one integer
        self._tally = MutationTally()
        self._default = Graph()
        self._default.attach_tally(self._tally)
        self._named: dict[IRI, Graph] = {}
        #: the keys of ``_named`` in term order, kept sorted on insert and
        #: remove so reads never re-sort
        self._names: list[IRI] = []
        self._retired_mutations = 0

    # -- graph management -------------------------------------------------------

    @property
    def default_graph(self) -> Graph:
        return self._default

    def graph(self, name: IRI | str | None = None) -> Graph:
        """Return the named graph *name*, creating it when missing.

        ``None`` returns the default graph.
        """
        if name is None:
            return self._default
        iri = IRI(str(name))
        existing = self._named.get(iri)
        if existing is None:
            existing = Graph(iri)
            existing.attach_tally(self._tally)
            self._named[iri] = existing
            insort(self._names, iri)
        return existing

    def get_graph(self, name: IRI | str) -> Graph:
        """Return the named graph *name*; raise if absent (no creation)."""
        iri = IRI(str(name))
        try:
            return self._named[iri]
        except KeyError:
            raise GraphNotFoundError(f"no named graph {iri}") from None

    def has_graph(self, name: IRI | str) -> bool:
        return IRI(str(name)) in self._named

    def remove_graph(self, name: IRI | str) -> bool:
        """Drop a named graph entirely. Returns True when it existed."""
        iri = IRI(str(name))
        dropped = self._named.pop(iri, None)
        if dropped is None:
            return False
        self._names.remove(iri)
        # Keep mutation_count() monotonic: retain the dropped graph's
        # history and count the drop itself as one more mutation. The
        # tally already holds that history; later edits of the dropped
        # graph object no longer belong to this dataset.
        dropped.attach_tally(None)
        self._retired_mutations += dropped.mutation_count + 1
        self._tally.count += 1
        return True

    def graph_names(self) -> list[IRI]:
        """Deterministically ordered list of named-graph IRIs."""
        return list(self._names)

    def graph_count(self) -> int:
        """Number of named graphs."""
        return len(self._names)

    def named_graphs(self) -> Iterator[tuple[IRI, Graph]]:
        for name in self.graph_names():
            yield name, self._named[name]

    # -- quad-level operations ----------------------------------------------------

    def add_quad(self, quad: Quad | tuple) -> "Dataset":
        if not isinstance(quad, Quad):
            quad = Quad.of(*quad)
        self.graph(quad.graph).add(quad.triple)
        return self

    def quads(self, s: object | None = None, p: object | None = None,
              o: object | None = None,
              graph: IRI | str | None | type(Ellipsis) = Ellipsis,
              ) -> Iterator[Quad]:
        """Yield quads matching the pattern.

        *graph* semantics: ``Ellipsis`` (default) searches everywhere,
        ``None`` only the default graph, an IRI only that named graph.
        """
        if graph is Ellipsis:
            scopes: list[tuple[Optional[IRI], Graph]] = [(None, self._default)]
            scopes.extend(self.named_graphs())
        elif graph is None:
            scopes = [(None, self._default)]
        else:
            iri = IRI(str(graph))
            scopes = [(iri, self._named[iri])] if iri in self._named else []
        for name, g in scopes:
            for t in g.match(s, p, o):
                yield Quad(t.s, t.p, t.o, name)

    def quad_count(self) -> int:
        return len(self._default) + sum(len(g) for g in self._named.values())

    def mutation_count(self) -> int:
        """Total effective mutations across all graphs (monotonic).

        Dropped graphs keep contributing their history (plus one for the
        drop), so drop-and-recreate cannot reproduce an earlier value;
        this makes count-neutral edits detectable by fingerprints. It
        is kept as a running total, so reading it costs O(1); it always
        equals the sum of :meth:`mutation_counts`.
        """
        return self._tally.count

    def mutation_counts(self) -> dict[str, int]:
        """Per-graph mutation counts plus the retired-graph carry-over.

        The default graph is keyed ``""`` and dropped-graph history is
        keyed ``"*retired*"`` — the exact state a snapshot must persist
        for :meth:`restore_mutation_counts` to make a rebuilt dataset
        fingerprint-identical to the writer.
        """
        counts = {"": self._default.mutation_count,
                  "*retired*": self._retired_mutations}
        for name, graph in self._named.items():
            counts[str(name)] = graph.mutation_count
        return counts

    def restore_mutation_counts(self, counts: dict[str, int]) -> None:
        """Reinstate recorded mutation counts (snapshot restore only)."""
        retired = counts.get("*retired*", 0)
        if retired < self._retired_mutations:
            raise ValueError("retired mutation count may only advance")
        self._tally.count += retired - self._retired_mutations
        self._retired_mutations = retired
        for name, count in counts.items():
            if name == "*retired*":
                continue
            graph = self._default if name == "" else self.graph(name)
            graph.restore_mutation_count(count)

    def graphs_containing(self, s: object | None = None,
                          p: object | None = None,
                          o: object | None = None) -> list[IRI]:
        """Named graphs holding at least one triple matching the pattern.

        This is the primitive behind the paper's
        ``SELECT ?g WHERE { GRAPH ?g { ... } }`` queries (Algorithms 4-5).
        """
        return [name for name, g in self.named_graphs()
                if g.contains(s, p, o)]

    # -- views ---------------------------------------------------------------------

    def union_view(self, names: Iterable[IRI | str] | None = None
                   ) -> UnionView:
        """A zero-copy :class:`UnionView` of the selected named graphs.

        ``None`` selects the default graph plus every named graph. A
        selected name with no graph contributes nothing and is not
        created: reading must never mutate the dataset.
        """
        if names is None:
            graphs = [self._default]
            graphs.extend(self._named[name] for name in self._names)
            return UnionView(graphs)
        selected = (self._named.get(IRI(str(name))) for name in names)
        return UnionView(g for g in selected if g is not None)

    def union_graph(self, names: Iterable[IRI | str] | None = None
                    ) -> Graph:
        """A merged, mutable copy of :meth:`union_view`."""
        return Graph(triples=self.union_view(names))

    # -- protocols -------------------------------------------------------------------

    def __len__(self) -> int:
        return self.quad_count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Dataset with {len(self._named)} named graphs, "
                f"{self.quad_count()} quads>")
