"""Coverage and minimality of walks (problem statement, paper §2.3).

* *Coverage*: ``⋃_{w ∈ wrappers(W)} LAV(w) ⊇ QG.φ`` — the union of the LAV
  subgraphs of the participating wrappers subsumes the query pattern.
* *Minimality*: removing any wrapper from a covering walk breaks
  coverage — every wrapper contributes something.

The rewriting pipeline uses these as a final filter (and the test suite
as the correctness invariant of Algorithms 3-5: every emitted walk must
be covering and minimal). Both test ``φ`` against a zero-copy
:class:`~repro.rdf.dataset.UnionView` over the stored mapping graphs, so
the check copies no LAV graph.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.ontology import BDIOntology
from repro.core.vocabulary import mapping_graph_uri, wrapper_uri
from repro.errors import OntologyError
from repro.query.omq import OMQ
from repro.rdf.dataset import UnionView
from repro.rdf.graph import Graph
from repro.rdf.term import IRI
from repro.relational.walk import Walk

__all__ = ["lav_union", "is_covering", "is_minimal",
           "covering_and_minimal"]


def _lav_view(ontology: BDIOntology, wrapper_names: Iterable[str]
              ) -> UnionView:
    """``⋃ LAV(w)`` as a view over the wrappers' stored mapping graphs."""
    graph_names: list[IRI] = []
    for name in sorted(wrapper_names):
        graph_name = mapping_graph_uri(name)
        if not ontology.dataset.has_graph(graph_name):
            raise OntologyError(
                f"wrapper {wrapper_uri(name)} has no LAV mapping")
        graph_names.append(graph_name)
    return ontology.dataset.union_view(graph_names)


def _covers(ontology: BDIOntology, wrapper_names: Iterable[str],
            query: OMQ) -> bool:
    lav = _lav_view(ontology, wrapper_names)
    return all(t in lav for t in query.phi)


def lav_union(ontology: BDIOntology, wrapper_names: set[str] | frozenset[str]
              ) -> Graph:
    """``⋃ LAV(w)`` for the given wrappers, as a materialised copy."""
    return Graph(triples=_lav_view(ontology, wrapper_names))


def is_covering(ontology: BDIOntology, walk: Walk, query: OMQ) -> bool:
    """Check ``⋃ LAV(w) ⊇ QG.φ`` for the walk's wrappers."""
    return _covers(ontology, walk.wrapper_names, query)


def is_minimal(ontology: BDIOntology, walk: Walk, query: OMQ) -> bool:
    """Check that no wrapper can be removed while staying covering.

    Per the paper's definition minimality presumes coverage; a
    non-covering walk is reported non-minimal.
    """
    if not is_covering(ontology, walk, query):
        return False
    if len(walk.wrapper_names) == 1:
        return True
    for dropped in walk.wrapper_names:
        if _covers(ontology, walk.wrapper_names - {dropped}, query):
            return False
    return True


def covering_and_minimal(ontology: BDIOntology, walk: Walk,
                         query: OMQ) -> bool:
    return is_covering(ontology, walk, query) and is_minimal(
        ontology, walk, query)
