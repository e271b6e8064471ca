"""Self-contained RDF substrate.

Implements what the paper obtains from Jena + TDB + ARQ:

* :mod:`repro.rdf.term` — IRIs, literals, blank nodes, variables;
* :mod:`repro.rdf.graph` — an SPO/POS/OSP-indexed triple store;
* :mod:`repro.rdf.dataset` — named-graph datasets and zero-copy union
  views over them;
* :mod:`repro.rdf.turtle` / :mod:`repro.rdf.ntriples` — serialization;
* :mod:`repro.rdf.reasoner` — RDFS entailment;
* :mod:`repro.rdf.sparql` — the SPARQL subset of the paper.
"""

from repro.rdf.dataset import Dataset, UnionView
from repro.rdf.graph import Graph, TripleReader
from repro.rdf.namespace import (
    DCT, DUV, G, M, OWL, PREFIXES, RDF, RDFS, S, SC, SUP, VANN, VOAF, XSD,
    Namespace, expand_curie, shrink_iri,
)
from repro.rdf.ntriples import (
    parse_nquads, parse_ntriples, serialize_nquads, serialize_ntriples,
)
from repro.rdf.reasoner import (
    RDFSView, materialize, subclass_closure, subclasses, superclasses,
)
from repro.rdf.sparql import ask, evaluate, parse_sparql, select, select_one
from repro.rdf.term import BlankNode, IRI, Literal, Term, Variable
from repro.rdf.triple import Quad, Triple

__all__ = [
    "Dataset", "Graph", "Namespace", "TripleReader", "UnionView",
    "BlankNode", "IRI", "Literal", "Term", "Variable",
    "Quad", "Triple",
    "RDF", "RDFS", "OWL", "XSD", "VOAF", "VANN",
    "G", "S", "M", "SUP", "SC", "DUV", "DCT", "PREFIXES",
    "expand_curie", "shrink_iri",
    "parse_nquads", "parse_ntriples",
    "serialize_nquads", "serialize_ntriples",
    "RDFSView", "materialize", "subclass_closure",
    "subclasses", "superclasses",
    "ask", "evaluate", "parse_sparql", "select", "select_one",
]
