"""Exception hierarchy for the BDI ontology reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate among substrate-specific failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# RDF substrate
# ---------------------------------------------------------------------------


class RDFError(ReproError):
    """Base class for errors in the RDF substrate."""


class TermError(RDFError):
    """An RDF term is malformed (bad IRI, bad literal, misuse of a term)."""


class TurtleSyntaxError(RDFError):
    """The Turtle parser found a syntax error.

    Carries the line and column of the offending token when available.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" (line {line}"
            location += f", column {column})" if column is not None else ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class NTriplesSyntaxError(RDFError):
    """The N-Triples/N-Quads parser found a syntax error."""


class SparqlSyntaxError(RDFError):
    """The SPARQL parser rejected the query string."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" (line {line}"
            location += f", column {column})" if column is not None else ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class SparqlEvaluationError(RDFError):
    """The SPARQL evaluator could not evaluate an (accepted) query."""


class GraphNotFoundError(RDFError):
    """A named graph was requested from a dataset that does not hold it."""


# ---------------------------------------------------------------------------
# Relational substrate
# ---------------------------------------------------------------------------


class RelationalError(ReproError):
    """Base class for errors in the relational algebra substrate."""


class SchemaError(RelationalError):
    """A relation schema is inconsistent or an attribute is unknown."""


class InvalidJoinError(RelationalError):
    """A restricted equi-join (⋈̃) was attempted on non-ID attributes."""


class InvalidProjectionError(RelationalError):
    """A restricted projection (Π̃) attempted to project out an ID."""


class SameSourceJoinError(RelationalError):
    """A walk attempted to join two wrappers of the same data source."""


# ---------------------------------------------------------------------------
# Sources / wrappers
# ---------------------------------------------------------------------------


class SourceError(ReproError):
    """Base class for errors in the simulated data sources."""


class UnknownCollectionError(SourceError):
    """A document-store collection does not exist."""


class AggregationError(SourceError):
    """A MongoDB-style aggregation pipeline is malformed."""


class EndpointError(SourceError):
    """A simulated REST endpoint rejected the request."""


class UnknownVersionError(EndpointError):
    """A REST endpoint was asked for a version it does not serve."""


class WrapperError(SourceError):
    """A wrapper failed to produce its relation (schema drift, bad query)."""


class WrapperSchemaMismatchError(WrapperError):
    """A wrapper's output rows do not conform to its declared schema.

    This is exactly the class of failure the BDI ontology is designed to
    surface early: the source evolved under the wrapper.
    """


# ---------------------------------------------------------------------------
# BDI ontology core
# ---------------------------------------------------------------------------


class OntologyError(ReproError):
    """Base class for errors concerning the BDI ontology ⟨G, S, M⟩."""


class ConstraintViolationError(OntologyError):
    """A design constraint of the BDI metamodel is violated.

    For instance a feature linked to two concepts, or a mapping referencing
    an unregistered wrapper.
    """


class UnknownConceptError(OntologyError):
    """A concept IRI is not part of the Global graph."""


class UnknownFeatureError(OntologyError):
    """A feature IRI is not part of the Global graph."""


class UnknownWrapperError(OntologyError):
    """A wrapper IRI is not part of the Source graph."""


class UnknownSourceError(OntologyError):
    """A data-source IRI is not part of the Source graph."""


class ReleaseError(OntologyError):
    """A release tuple ⟨w, G, F⟩ is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# Query answering
# ---------------------------------------------------------------------------


class QueryError(ReproError):
    """Base class for errors raised by the query answering pipeline."""


class MalformedQueryError(QueryError):
    """The OMQ does not follow the accepted SPARQL template (Code 3)."""


class CyclicQueryError(QueryError):
    """Algorithm 2: the query graph pattern has at least one cycle."""


class NoIdentifierError(QueryError):
    """Algorithm 2: a projected concept has no ID feature to substitute.

    Mirrors the paper's error "QG has at least one concept without any
    feature included in the query that is mapped to the sources".
    """


class UnanswerableQueryError(QueryError):
    """No covering and minimal walk exists for the query."""


class RewritingError(QueryError):
    """Internal failure of the three-phase rewriting algorithm."""


# ---------------------------------------------------------------------------
# Evolution management
# ---------------------------------------------------------------------------


class EvolutionError(ReproError):
    """Base class for errors in the evolution-management module."""


class UnknownChangeKindError(EvolutionError):
    """A change kind outside of the Tables 3-5 taxonomy was used."""


class ChangeApplicationError(EvolutionError):
    """A change could not be applied to the simulated API or ontology."""


# ---------------------------------------------------------------------------
# Governed serving layer
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for errors in the governed serving layer."""


class EpochDrainTimeout(ServiceError):
    """A writer (release) could not drain in-flight readers in time, or a
    reader could not enter while a writer held the ontology."""


class AnswerFailed(ServiceError):
    """An answer slot failed without a recorded error.

    Nothing in this package raises it any more; it stays because the
    frozen v1 error taxonomy maps it to a stable wire code
    (``answer_failed``).
    """


# ---------------------------------------------------------------------------
# Durable storage (repro.storage)
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for errors in the durability layer (journal/snapshot)."""


class JournalError(StorageError):
    """The governance journal could not be written or read."""


class JournalCorruptedError(JournalError):
    """A journal record in the *interior* of the file failed to decode.

    A torn final record is expected after a crash and is truncated
    silently on recovery; a bad record with valid records after it means
    the file was damaged and replay cannot be trusted.
    """


class SnapshotError(StorageError):
    """A state snapshot could not be written, read or restored."""


# ---------------------------------------------------------------------------
# Protocol surface (repro.api)
# ---------------------------------------------------------------------------


class ProtocolError(ServiceError):
    """Base class for errors in the versioned request/response protocol."""


class MalformedRequestError(ProtocolError):
    """A protocol envelope is structurally invalid (missing/bad fields)."""


class UnsupportedApiVersion(ProtocolError):
    """A request named an API version this endpoint does not speak."""


class EpochSuperseded(ProtocolError):
    """A pinned epoch or an open cursor was invalidated by a release.

    Carries the epoch the caller pinned (``requested``) and the epoch
    the service now serves (``serving``) when known, so sessions can
    re-pin and retry deterministically.
    """

    def __init__(self, message: str, requested: int | None = None,
                 serving: int | None = None) -> None:
        super().__init__(message)
        self.requested = requested
        self.serving = serving


class InvalidCursorError(ProtocolError):
    """A continuation cursor is unknown, already exhausted or evicted."""


class ReadOnlyReplicaError(ProtocolError):
    """A mutation was submitted to a journal-tailing read replica.

    Replicas replay the leader's journal; accepting a release locally
    would fork the governed history. Submit the release to the leader.
    """


class GatewayError(ProtocolError):
    """The HTTP gateway (or its transport) failed outside the protocol.

    Raised client-side when the wire response is not a decodable
    protocol envelope (connection refused, truncated body, non-JSON
    payload); protocol-level failures arrive as typed errors instead.
    """


# ---------------------------------------------------------------------------
# Fleet tier (repro.fleet)
# ---------------------------------------------------------------------------


class FleetError(ProtocolError):
    """Base class for errors raised by the replica-fleet tier."""


class OverloadedError(FleetError):
    """Admission control shed this request (bounded queue overflowed).

    The server is alive but saturated; the request was never started.
    Retrying after a backoff is always safe — hence ``retryable``.
    """


class NoFreshReplicaError(FleetError):
    """No backend can serve the session's epoch floor.

    Raised by the fleet router when every replica's applied epoch is
    behind the epoch the session pinned (or last observed) *and* the
    leader — the always-fresh fallback — is unreachable. Routing the
    request anyway would time-travel the session backwards.
    """


class FleetConfigError(FleetError):
    """The fleet topology is malformed (bad replica count, dead leader
    URL, a supervisor asked to manage zero processes)."""
