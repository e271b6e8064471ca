"""Management API for the Mapping graph M (paper §3.3).

LAV mappings consist of:

* one *named graph* per wrapper, holding the subgraph of G the wrapper
  provides data for, announced via ``⟨w, M:mapping, g⟩`` triples; and
* the attribute→feature function ``F``, serialized as ``owl:sameAs``
  triples between ``S:Attribute`` and ``G:Feature`` instances.
"""

from __future__ import annotations

from repro.errors import ConstraintViolationError
from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.namespace import M, OWL
from repro.rdf.term import IRI
from repro.core.vocabulary import mapping_graph_uri, wrapper_uri

__all__ = ["MappingGraph"]


class MappingGraph:
    """Typed facade over M plus the per-wrapper named graphs."""

    def __init__(self, graph: Graph, dataset: Dataset) -> None:
        self.graph = graph          # the M named graph itself
        self.dataset = dataset      # holds the per-wrapper named graphs

    # -- registration ------------------------------------------------------------

    def set_wrapper_subgraph(self, wrapper_name: str,
                             subgraph: Graph) -> IRI:
        """Store the LAV subgraph of a wrapper as its named graph."""
        graph_name = mapping_graph_uri(wrapper_name)
        target = self.dataset.graph(graph_name)
        snapshot = list(subgraph)  # the caller may pass `target` itself
        target.clear()
        target.update(snapshot)
        self.graph.add((wrapper_uri(wrapper_name), M.mapping, graph_name))
        return graph_name

    def add_same_as(self, attribute: IRI | str, feature: IRI | str) -> None:
        """Serialize one pair of the function ``F``.

        ``F`` is a *function*: a physical attribute maps to exactly one
        feature (paper §2.2), which is enforced here.
        """
        attribute_iri = IRI(str(attribute))
        feature_iri = IRI(str(feature))
        existing = [o for o in self.graph.objects(attribute_iri, OWL.sameAs)
                    if o != feature_iri]
        if existing:
            raise ConstraintViolationError(
                f"attribute {attribute_iri} already maps to "
                f"{existing[0]}; F must map each attribute to exactly one "
                "feature")
        self.graph.add((attribute_iri, OWL.sameAs, feature_iri))

    # -- inspection ----------------------------------------------------------------

    def mapping_graph_of(self, wrapper_name: str) -> Graph | None:
        graph_name = mapping_graph_uri(wrapper_name)
        if not self.dataset.has_graph(graph_name):
            return None
        return self.dataset.graph(graph_name)

    def feature_of_attribute(self, attribute: IRI | str) -> IRI | None:
        value = self.graph.value(IRI(str(attribute)), OWL.sameAs, None)
        return value if isinstance(value, IRI) else None

    def same_as_pairs(self) -> list[tuple[IRI, IRI]]:
        return sorted(
            (t.s, t.o) for t in self.graph.match(None, OWL.sameAs, None)
            if isinstance(t.s, IRI) and isinstance(t.o, IRI))

    # -- validation --------------------------------------------------------------------

    def validate(self, global_graph: Graph,
                 source_graph: Graph) -> list[str]:
        """Check M against G and S; return violation descriptions."""
        from repro.rdf.namespace import G as G_NS, RDF, S as S_NS

        problems: list[str] = []
        for t in self.graph.match(None, M.mapping, None):
            if not source_graph.contains(t.s, RDF.type, S_NS.Wrapper):
                problems.append(
                    f"mapping subject {t.s} is not a registered S:Wrapper")
            if not isinstance(t.o, IRI) or not self.dataset.has_graph(t.o):
                problems.append(
                    f"mapping graph {t.o} of wrapper {t.s} does not exist")
                continue
            subgraph = self.dataset.graph(t.o)
            for triple in subgraph:
                if triple not in global_graph:
                    problems.append(
                        f"LAV triple {triple.n3()} of wrapper {t.s} is "
                        "not part of the Global graph")
        for attribute, feature in self.same_as_pairs():
            if not source_graph.contains(attribute, RDF.type,
                                         S_NS.Attribute):
                problems.append(
                    f"sameAs subject {attribute} is not an S:Attribute")
            if not global_graph.contains(feature, RDF.type, G_NS.Feature):
                problems.append(
                    f"sameAs object {feature} is not a G:Feature")
        return problems
