"""repro — reproduction of *An Integration-Oriented Ontology to Govern
Evolution in Big Data Ecosystems* (Nadal et al., EDBT 2017 /
arXiv:1801.05161).

The package implements the paper's full stack, from substrates to system:

* :mod:`repro.rdf` — RDF terms, indexed graphs, named-graph datasets,
  Turtle/N-Quads, RDFS entailment and the accepted SPARQL subset;
* :mod:`repro.relational` — wrappers as relations, the restricted
  operators Π̃ / ⋈̃, walks and unions of conjunctive queries;
* :mod:`repro.sources` / :mod:`repro.wrappers` — simulated document
  stores, versioned REST APIs and the mediator/wrapper layer;
* :mod:`repro.core` — the BDI ontology ⟨G, S, M⟩ and Algorithm 1
  (release-based evolution);
* :mod:`repro.query` — Algorithms 2-5: well-formedness, expansion,
  intra-/inter-concept generation, covering & minimal walks, execution;
* :mod:`repro.evolution` — the change taxonomy (Tables 3-5), the
  industrial study (Table 6), the Wordpress growth study (Figure 11);
* :mod:`repro.mdm` — the Metadata Management System facade;
* :mod:`repro.api` — the governed protocol surface: versioned
  request/response envelopes, :class:`~repro.api.client.GovernedClient`
  sessions (epoch pinning, cursor-paginated streaming, idempotent
  releases) and the stdlib HTTP gateway;
* :mod:`repro.storage` — the durable governance journal
  (command-sourced mutations, fsync'd write-ahead log), snapshot/restore
  and journal-tailing read replicas;
* :mod:`repro.datasets` — the SUPERSEDE running example.

Quickstart::

    from repro.api import GovernedClient
    from repro.datasets import build_supersede, EXEMPLARY_QUERY
    from repro.mdm import MDM

    mdm = MDM(build_supersede(with_evolution=True).ontology)
    with mdm.client() as client:
        response = client.query(EXEMPLARY_QUERY)
        print(response.epoch, response.rows)
"""

from repro.api import (
    DescribeResponse, ErrorInfo, GovernedClient, HttpGateway,
    ProtocolEndpoint, QueryRequest, QueryResponse, ReleaseRequest,
    ReleaseResponse,
)
from repro.core import BDIOntology, Release, new_release
from repro.mdm import MDM
from repro.query import (
    OMQ, AnswerCache, QueryEngine, RewriteCache, parse_omq, rewrite,
)
from repro.relational import ColumnBatch
from repro.service import EpochLock, GovernedService
from repro.storage import ChangeRecord, Journal, Replica, Snapshot

__version__ = "1.10.0"

__all__ = [
    "BDIOntology", "Release", "new_release",
    "MDM",
    "OMQ", "AnswerCache", "ColumnBatch", "QueryEngine",
    "RewriteCache", "parse_omq", "rewrite",
    "EpochLock", "GovernedService",
    "QueryRequest", "QueryResponse",
    "ReleaseRequest", "ReleaseResponse",
    "DescribeResponse", "ErrorInfo",
    "ProtocolEndpoint", "GovernedClient", "HttpGateway",
    "ChangeRecord", "Journal", "Snapshot", "Replica",
    "__version__",
]
