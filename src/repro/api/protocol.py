"""The v1 protocol: typed request/response envelopes and error taxonomy.

This module defines the *one* governed surface of the system
(``docs/architecture.md``, "The protocol layer"): every query and every
release — whether posed in-process through
:class:`~repro.api.client.GovernedClient` or over the wire through
:class:`~repro.api.http_gateway.HttpGateway` — travels as one of these
envelopes and is handled by one
:class:`~repro.api.endpoint.ProtocolEndpoint`. The envelopes are plain
frozen dataclasses with loss-free ``to_dict``/``from_dict`` JSON
codecs, so the identical request produces the identical response
payload in-process and over HTTP (the parity property the gateway tests
pin down).

Failures cross the surface as a machine-readable taxonomy: every
exception class of :mod:`repro.errors` maps onto a stable snake_case
``code`` (:func:`error_code_of`), responses carry the code inside an
:class:`ErrorInfo`, and clients reconstruct the typed exception from
the code (:func:`exception_for`) — callers program against codes, never
against stringly-matched messages.
"""

from __future__ import annotations

# repro-lint: frozen-surface (every dataclass below is a wire envelope:
# frozen, with field/to_dict/from_dict parity enforced by repro.analysis)

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, TYPE_CHECKING

from repro import errors
from repro.errors import MalformedRequestError, UnsupportedApiVersion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.release import Release
    from repro.query.omq import OMQ
    from repro.relational.rows import Relation
    from repro.wrappers.base import Wrapper

__all__ = [
    "PROTOCOL_VERSION",
    "QueryRequest", "QueryResponse",
    "ReleaseRequest", "ReleaseResponse",
    "DescribeResponse", "ErrorInfo",
    "error_code_of", "exception_for", "http_status_of",
]

#: the protocol generation every envelope declares; the endpoint
#: rejects anything else with ``unsupported_api_version``
PROTOCOL_VERSION = "v1"


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

#: exception class → (stable wire code, retryable). Resolution walks the
#: exception's MRO, so subclasses inherit the nearest registered code;
#: ``Exception`` itself backstops anything unexpected as internal_error.
_ERROR_CODES: dict[type[BaseException], tuple[str, bool]] = {
    errors.EpochSuperseded: ("epoch_superseded", True),
    errors.InvalidCursorError: ("invalid_cursor", False),
    errors.UnsupportedApiVersion: ("unsupported_api_version", False),
    errors.MalformedRequestError: ("malformed_request", False),
    errors.GatewayError: ("gateway_error", True),
    errors.OverloadedError: ("overloaded", True),
    errors.NoFreshReplicaError: ("no_fresh_replica", True),
    errors.FleetConfigError: ("fleet_config_error", False),
    errors.FleetError: ("fleet_error", False),
    errors.ReadOnlyReplicaError: ("read_only_replica", False),
    errors.ProtocolError: ("protocol_error", False),
    errors.JournalCorruptedError: ("journal_corrupted", False),
    errors.JournalError: ("journal_error", False),
    errors.SnapshotError: ("snapshot_error", False),
    errors.StorageError: ("storage_error", False),
    errors.EpochDrainTimeout: ("epoch_drain_timeout", True),
    errors.AnswerFailed: ("answer_failed", False),
    errors.ServiceError: ("service_error", False),
    errors.MalformedQueryError: ("malformed_query", False),
    errors.CyclicQueryError: ("cyclic_query", False),
    errors.NoIdentifierError: ("no_identifier", False),
    errors.UnanswerableQueryError: ("unanswerable_query", False),
    errors.RewritingError: ("rewriting_error", False),
    errors.QueryError: ("query_error", False),
    errors.UnknownConceptError: ("unknown_concept", False),
    errors.UnknownFeatureError: ("unknown_feature", False),
    errors.UnknownWrapperError: ("unknown_wrapper", False),
    errors.UnknownSourceError: ("unknown_source", False),
    errors.ConstraintViolationError: ("constraint_violation", False),
    errors.ReleaseError: ("release_error", False),
    errors.OntologyError: ("ontology_error", False),
    errors.UnknownChangeKindError: ("unknown_change_kind", False),
    errors.EvolutionError: ("evolution_error", False),
    errors.WrapperSchemaMismatchError: ("wrapper_schema_mismatch", False),
    errors.WrapperError: ("wrapper_error", False),
    errors.SourceError: ("source_error", False),
    errors.SchemaError: ("schema_error", False),
    errors.RelationalError: ("relational_error", False),
    errors.SparqlSyntaxError: ("sparql_syntax_error", False),
    errors.RDFError: ("rdf_error", False),
    errors.ReproError: ("repro_error", False),
    Exception: ("internal_error", False),
}

#: wire code → exception class raised client-side on reconstruction
_CODE_CLASSES: dict[str, type[BaseException]] = {
    code: cls for cls, (code, _) in reversed(list(_ERROR_CODES.items()))
}

#: codes whose HTTP status is not the 400 default
_HTTP_STATUS: dict[str, int] = {
    "epoch_superseded": 409,
    "invalid_cursor": 410,
    "read_only_replica": 403,
    "journal_corrupted": 500,
    "journal_error": 500,
    "snapshot_error": 500,
    "storage_error": 500,
    "epoch_drain_timeout": 503,
    "gateway_error": 502,
    "overloaded": 429,
    "no_fresh_replica": 503,
    "fleet_config_error": 500,
    "fleet_error": 500,
    "not_found": 404,
    "method_not_allowed": 405,
    "unknown_concept": 404,
    "unknown_feature": 404,
    "unknown_wrapper": 404,
    "unknown_source": 404,
    "unanswerable_query": 422,
    "no_identifier": 422,
    "release_error": 422,
    "constraint_violation": 422,
    "service_error": 500,
    "repro_error": 500,
    "internal_error": 500,
}


def error_code_of(exc: BaseException) -> str:
    """The stable taxonomy code of *exc* (nearest registered ancestor)."""
    for cls in type(exc).__mro__:
        entry = _ERROR_CODES.get(cls)
        if entry is not None:
            return entry[0]
    return "internal_error"


def exception_for(info: "ErrorInfo") -> BaseException:
    """Reconstruct the typed exception an :class:`ErrorInfo` encodes.

    Wire transports cannot ship exception objects; they ship the code,
    and this resolves it back to the class the server raised (or the
    nearest registered ancestor / :class:`~repro.errors.ProtocolError`
    for unknown codes), so ``except EpochSuperseded:`` works identically
    on both sides of the gateway.
    """
    cls = _CODE_CLASSES.get(info.code, errors.ProtocolError)
    if cls is Exception:  # never raise a bare Exception at callers
        cls = errors.ReproError
    if cls is errors.EpochSuperseded:
        details = info.details or {}
        return cls(info.message, requested=details.get("requested"),
                   serving=details.get("serving"))
    return cls(info.message)


def http_status_of(code: str) -> int:
    """The HTTP status the gateway answers a taxonomy *code* with."""
    return _HTTP_STATUS.get(code, 400)


@dataclass(frozen=True)
class ErrorInfo:
    """The machine-readable failure half of a response envelope."""

    #: stable taxonomy code (see :func:`error_code_of`)
    code: str
    #: exception class name, for humans and logs — never dispatch on it
    kind: str
    message: str
    #: transient failures a client may retry (drain timeouts,
    #: superseded epochs after re-pinning)
    retryable: bool = False
    #: structured, JSON-safe extras of the exception (e.g. an
    #: ``epoch_superseded``'s requested/serving epochs), so typed
    #: reconstruction is loss-free across the wire
    details: dict[str, Any] | None = None

    @classmethod
    def of(cls, exc: BaseException) -> "ErrorInfo":
        code = error_code_of(exc)
        details = None
        if isinstance(exc, errors.EpochSuperseded):
            details = {"requested": exc.requested,
                       "serving": exc.serving}
        return cls(code=code, kind=type(exc).__name__, message=str(exc),
                   retryable=_ERROR_CODES.get(
                       _CODE_CLASSES.get(code, Exception),
                       ("", False))[1],
                   details=details)

    def to_dict(self) -> dict[str, Any]:
        return {"code": self.code, "kind": self.kind,
                "message": self.message, "retryable": self.retryable,
                "details": self.details}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ErrorInfo":
        details = payload.get("details")
        return cls(code=str(payload.get("code", "internal_error")),
                   kind=str(payload.get("kind", "Exception")),
                   message=str(payload.get("message", "")),
                   retryable=bool(payload.get("retryable", False)),
                   details=dict(details)
                   if details is not None else None)


# ---------------------------------------------------------------------------
# Envelope plumbing
# ---------------------------------------------------------------------------


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise MalformedRequestError(reason)


def check_api_version(version: str) -> None:
    """Reject envelopes from a different protocol generation."""
    if version != PROTOCOL_VERSION:
        raise UnsupportedApiVersion(
            f"this endpoint speaks protocol {PROTOCOL_VERSION!r}, "
            f"request declared {version!r}")


def _opt_number(payload: Mapping[str, Any], name: str,
                kind: type) -> Any | None:
    value = payload.get(name)
    if value is None:
        return None
    if kind is int:
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"{name} must be an integer")
        return value
    _require(isinstance(value, (int, float))
             and not isinstance(value, bool),
             f"{name} must be a number")
    return float(value)


def _opt_str(payload: Mapping[str, Any], name: str) -> str | None:
    value = payload.get(name)
    if value is None:
        return None
    _require(isinstance(value, str), f"{name} must be a string")
    return value


# ---------------------------------------------------------------------------
# Query envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryRequest:
    """One analyst question — or the continuation of a paginated one.

    Exactly one of :attr:`query` (a fresh question) and :attr:`cursor`
    (a continuation token from a previous page) must be set.
    """

    #: SPARQL text or a parsed OMQ (in-process only; the wire form
    #: requires text)
    query: "str | OMQ | None" = None
    #: continuation token returned by the previous page
    cursor: str | None = None
    distinct: bool = True
    #: pin: serve only if the service is exactly at this epoch,
    #: otherwise fail typed with ``epoch_superseded``
    epoch: int | None = None
    #: rows per page; None = the whole answer in one response
    page_size: int | None = None
    #: seconds to wait for a draining release before ``epoch_drain_timeout``
    timeout: float | None = None
    #: caller-chosen id echoed back on the response (tracing)
    request_id: str | None = None
    api_version: str = PROTOCOL_VERSION

    def validate(self) -> None:
        _require((self.query is None) != (self.cursor is None),
                 "exactly one of query and cursor must be set")
        _require(self.query is None or bool(self.query),
                 "query must be non-empty")
        _require(self.cursor is None or bool(self.cursor),
                 "cursor must be non-empty")
        _require(self.page_size is None or self.page_size >= 1,
                 "page_size must be >= 1")
        _require(self.epoch is None or self.epoch >= 0,
                 "epoch must be >= 0")

    def query_text(self) -> str | None:
        """The wire-serializable form of :attr:`query`."""
        if self.query is None or isinstance(self.query, str):
            return self.query
        if self.query.sparql is None:
            raise MalformedRequestError(
                "an OMQ built programmatically has no SPARQL text; pass "
                "the query as text to cross the wire")
        return self.query.sparql

    def to_dict(self) -> dict[str, Any]:
        return {
            "api_version": self.api_version,
            "query": self.query_text(),
            "cursor": self.cursor,
            "distinct": self.distinct,
            "epoch": self.epoch,
            "page_size": self.page_size,
            "timeout": self.timeout,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryRequest":
        _require(isinstance(payload, Mapping),
                 "query request body must be a JSON object")
        distinct = payload.get("distinct", True)
        _require(isinstance(distinct, bool), "distinct must be a boolean")
        request = cls(
            query=_opt_str(payload, "query"),
            cursor=_opt_str(payload, "cursor"),
            distinct=distinct,
            epoch=_opt_number(payload, "epoch", int),
            page_size=_opt_number(payload, "page_size", int),
            timeout=_opt_number(payload, "timeout", float),
            request_id=_opt_str(payload, "request_id"),
            api_version=str(payload.get("api_version", PROTOCOL_VERSION)),
        )
        request.validate()
        return request


@dataclass(frozen=True)
class QueryResponse:
    """One page of an answer, with its consistency evidence.

    ``ok=False`` responses carry :attr:`error` and nothing else
    meaningful; ``ok=True`` responses carry one page of rows, the
    serving epoch/fingerprint the page observed, and — when the answer
    did not fit the page — a :attr:`cursor` for the next page.
    """

    ok: bool
    #: output column names, in projection order
    columns: list[str] | None = None
    #: this page's rows (plain dicts keyed by column name)
    rows: list[dict[str, Any]] | None = None
    #: serving epoch (completed releases) the answer observed
    epoch: int | None = None
    #: ontology fingerprint ``(epoch, structure)`` at answering time
    fingerprint: tuple[int, int] | None = None
    #: token for the next page; None when the answer is exhausted
    cursor: str | None = None
    #: 0-based index of this page
    page: int = 0
    #: total rows of the full answer (known — the snapshot is complete)
    total_rows: int | None = None
    has_more: bool = False
    error: ErrorInfo | None = None
    request_id: str | None = None
    #: server-side handling time — the one field parity ignores
    elapsed_ms: float | None = None
    api_version: str = PROTOCOL_VERSION
    #: the full relation object — in-process transports only, never
    #: serialized; in-process callers read the answer without a copy
    relation: "Relation | None" = field(
        default=None, compare=False, repr=False)
    #: the original exception object — in-process transports only, so
    #: re-raising preserves identity, traceback and extra attributes
    exception: BaseException | None = field(
        default=None, compare=False, repr=False)

    def raise_for_error(self) -> "QueryResponse":
        """Re-raise a failed response as its typed exception."""
        if self.error is not None:
            raise self.exception if self.exception is not None \
                else exception_for(self.error)
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "api_version": self.api_version,
            "ok": self.ok,
            "columns": list(self.columns) if self.columns is not None
            else None,
            "rows": self.rows,
            "epoch": self.epoch,
            "fingerprint": list(self.fingerprint)
            if self.fingerprint is not None else None,
            "cursor": self.cursor,
            "page": self.page,
            "total_rows": self.total_rows,
            "has_more": self.has_more,
            "error": self.error.to_dict() if self.error is not None
            else None,
            "request_id": self.request_id,
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryResponse":
        fingerprint = payload.get("fingerprint")
        error = payload.get("error")
        return cls(
            ok=bool(payload.get("ok")),
            columns=list(payload["columns"])
            if payload.get("columns") is not None else None,
            rows=list(payload["rows"])
            if payload.get("rows") is not None else None,
            epoch=payload.get("epoch"),
            fingerprint=tuple(fingerprint)
            if fingerprint is not None else None,
            cursor=payload.get("cursor"),
            page=int(payload.get("page", 0)),
            total_rows=payload.get("total_rows"),
            has_more=bool(payload.get("has_more", False)),
            error=ErrorInfo.from_dict(error)
            if error is not None else None,
            request_id=payload.get("request_id"),
            elapsed_ms=payload.get("elapsed_ms"),
            api_version=str(payload.get("api_version",
                                        PROTOCOL_VERSION)),
        )


# ---------------------------------------------------------------------------
# Release envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReleaseRequest:
    """One steward release — declarative (wire-safe) or typed.

    The declarative form names the source, the wrapper and its
    attribute split; the endpoint assembles the release through the
    semi-automatic :func:`~repro.evolution.release_builder.build_release`
    (``feature_hints`` pin the alignments the similarity heuristic
    cannot decide), and optional inline :attr:`rows` become a
    :class:`~repro.wrappers.base.StaticWrapper` so the release is
    immediately queryable. The typed form (:attr:`release` /
    :attr:`physical_wrapper`) is in-process only and wins when set.

    :attr:`idempotency_key` makes submission replay-safe: the endpoint
    answers a repeated key with the recorded response
    (``replayed=True``) instead of applying Algorithm 1 twice.
    """

    source: str | None = None
    wrapper: str | None = None
    id_attributes: tuple[str, ...] = ()
    non_id_attributes: tuple[str, ...] = ()
    #: attribute → feature IRI (string form) alignment pins
    feature_hints: Mapping[str, str] | None = None
    #: inline rows served by the new wrapper (wire-safe data binding)
    rows: tuple[Mapping[str, Any], ...] | None = None
    #: concept IRIs (string form) whose pending G edits this release absorbs
    absorbed_concepts: tuple[str, ...] = ()
    idempotency_key: str | None = None
    timeout: float | None = None
    request_id: str | None = None
    api_version: str = PROTOCOL_VERSION
    #: a fully built release object — in-process only
    release: "Release | None" = field(default=None, compare=False)
    #: physical wrapper bound to the declarative release — in-process only
    physical_wrapper: "Wrapper | None" = field(default=None, compare=False)

    def validate(self) -> None:
        if self.release is not None:
            return
        _require(bool(self.source), "source is required")
        _require(bool(self.wrapper), "wrapper is required")
        _require(bool(self.id_attributes),
                 "at least one id attribute is required")

    def to_dict(self) -> dict[str, Any]:
        if self.release is not None or self.physical_wrapper is not None:
            raise MalformedRequestError(
                "a typed Release / physical wrapper cannot cross the "
                "wire; use the declarative fields (source, wrapper, "
                "attributes, rows)")
        return {
            "api_version": self.api_version,
            "source": self.source,
            "wrapper": self.wrapper,
            "id_attributes": list(self.id_attributes),
            "non_id_attributes": list(self.non_id_attributes),
            "feature_hints": dict(self.feature_hints)
            if self.feature_hints is not None else None,
            "rows": [dict(r) for r in self.rows]
            if self.rows is not None else None,
            "absorbed_concepts": list(self.absorbed_concepts),
            "idempotency_key": self.idempotency_key,
            "timeout": self.timeout,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ReleaseRequest":
        _require(isinstance(payload, Mapping),
                 "release request body must be a JSON object")
        hints = payload.get("feature_hints")
        _require(hints is None or isinstance(hints, Mapping),
                 "feature_hints must be an object")
        rows = payload.get("rows")
        _require(rows is None or isinstance(rows, list),
                 "rows must be a list of objects")
        request = cls(
            source=_opt_str(payload, "source"),
            wrapper=_opt_str(payload, "wrapper"),
            id_attributes=tuple(payload.get("id_attributes") or ()),
            non_id_attributes=tuple(
                payload.get("non_id_attributes") or ()),
            feature_hints=dict(hints) if hints is not None else None,
            rows=tuple(rows) if rows is not None else None,
            absorbed_concepts=tuple(
                payload.get("absorbed_concepts") or ()),
            idempotency_key=_opt_str(payload, "idempotency_key"),
            timeout=_opt_number(payload, "timeout", float),
            request_id=_opt_str(payload, "request_id"),
            api_version=str(payload.get("api_version",
                                        PROTOCOL_VERSION)),
        )
        request.validate()
        return request


@dataclass(frozen=True)
class ReleaseResponse:
    """The outcome of one release submission."""

    ok: bool
    #: serving epoch after the release landed
    epoch: int | None = None
    #: ontology fingerprint ``(epoch, structure)`` after the release —
    #: the fingerprint epoch is replay-deterministic, so (unlike the
    #: process-local serving epoch) it is comparable across a leader
    #: and its replicas; fleet routing keys read-your-writes on it
    fingerprint: tuple[int, int] | None = None
    #: Algorithm 1's triples-added delta per graph
    triples_added: dict[str, int] | None = None
    #: True when an idempotency key replayed a recorded outcome
    replayed: bool = False
    error: ErrorInfo | None = None
    request_id: str | None = None
    elapsed_ms: float | None = None
    api_version: str = PROTOCOL_VERSION
    exception: BaseException | None = field(
        default=None, compare=False, repr=False)

    def raise_for_error(self) -> "ReleaseResponse":
        if self.error is not None:
            raise self.exception if self.exception is not None \
                else exception_for(self.error)
        return self

    def replayed_as(self, request_id: str | None) -> "ReleaseResponse":
        """The recorded response re-addressed to a replaying caller."""
        return replace(self, replayed=True, request_id=request_id)

    def to_dict(self) -> dict[str, Any]:
        return {
            "api_version": self.api_version,
            "ok": self.ok,
            "epoch": self.epoch,
            "fingerprint": list(self.fingerprint)
            if self.fingerprint is not None else None,
            "triples_added": self.triples_added,
            "replayed": self.replayed,
            "error": self.error.to_dict() if self.error is not None
            else None,
            "request_id": self.request_id,
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ReleaseResponse":
        error = payload.get("error")
        fingerprint = payload.get("fingerprint")
        return cls(
            ok=bool(payload.get("ok")),
            epoch=payload.get("epoch"),
            fingerprint=tuple(fingerprint)
            if fingerprint is not None else None,
            triples_added=dict(payload["triples_added"])
            if payload.get("triples_added") is not None else None,
            replayed=bool(payload.get("replayed", False)),
            error=ErrorInfo.from_dict(error)
            if error is not None else None,
            request_id=payload.get("request_id"),
            elapsed_ms=payload.get("elapsed_ms"),
            api_version=str(payload.get("api_version",
                                        PROTOCOL_VERSION)),
        )


# ---------------------------------------------------------------------------
# Describe envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DescribeResponse:
    """A point-in-time picture of the governed surface."""

    ok: bool
    epoch: int | None = None
    fingerprint: tuple[int, int] | None = None
    #: ontology statistics (:meth:`repro.mdm.system.MDM.statistics`)
    statistics: dict[str, int] | None = None
    #: serving-layer state: service counters, lock counters, open cursors
    service: dict[str, Any] | None = None
    error: ErrorInfo | None = None
    elapsed_ms: float | None = None
    api_version: str = PROTOCOL_VERSION
    exception: BaseException | None = field(
        default=None, compare=False, repr=False)

    def raise_for_error(self) -> "DescribeResponse":
        if self.error is not None:
            raise self.exception if self.exception is not None \
                else exception_for(self.error)
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "api_version": self.api_version,
            "ok": self.ok,
            "epoch": self.epoch,
            "fingerprint": list(self.fingerprint)
            if self.fingerprint is not None else None,
            "statistics": self.statistics,
            "service": self.service,
            "error": self.error.to_dict() if self.error is not None
            else None,
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DescribeResponse":
        fingerprint = payload.get("fingerprint")
        error = payload.get("error")
        return cls(
            ok=bool(payload.get("ok")),
            epoch=payload.get("epoch"),
            fingerprint=tuple(fingerprint)
            if fingerprint is not None else None,
            statistics=payload.get("statistics"),
            service=payload.get("service"),
            error=ErrorInfo.from_dict(error)
            if error is not None else None,
            elapsed_ms=payload.get("elapsed_ms"),
            api_version=str(payload.get("api_version",
                                        PROTOCOL_VERSION)),
        )
