"""Answer checks against the naive reference evaluator.

The oracle is a :class:`~repro.query.engine.QueryEngine` with the
physical planner off (naive logical evaluation) and every cache off,
over the same ontology and the same live wrappers as the service. A
check is valid only while neither has changed since the answer was
served, so callers run checks between the workload's mutations and pass
the fingerprint the answer reported.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping, Sequence


class AnswerMismatch(AssertionError):
    """A served answer differs from the reference answer."""


def bag(columns: Sequence[str], rows: Iterable[Mapping[str, Any]]
        ) -> Counter:
    """The rows as a multiset of value tuples in *columns* order."""
    return Counter(tuple(row[c] for c in columns) for row in rows)


def reference_engine(ontology: Any) -> Any:
    from repro.query.engine import QueryEngine

    return QueryEngine(ontology, use_planner=False, use_cache=False,
                       use_answer_cache=False)


def check_answer(oracle: Any, query: str, response: Any,
                 expected: Any = None) -> None:
    """Raise :class:`AnswerMismatch` unless *response* (a
    ``QueryResponse``) holds exactly the oracle's answer to *query* at
    the fingerprint the response reports. *expected* is that answer
    when the caller already has it."""
    fingerprint = oracle.ontology.fingerprint()
    served_at = tuple(response.fingerprint)
    if served_at != (fingerprint.epoch, fingerprint.structure):
        raise AnswerMismatch(
            f"answer served at fingerprint {served_at}, the reference "
            f"runs at {(fingerprint.epoch, fingerprint.structure)}")
    if expected is None:
        expected = oracle.answer(query)
    columns = list(expected.schema.attribute_names)
    if list(response.columns) != columns:
        raise AnswerMismatch(
            f"columns {response.columns} differ from the reference "
            f"{columns}")
    got, want = bag(columns, response.rows), bag(columns, expected.rows)
    if got != want:
        missing = sum((want - got).values())
        extra = sum((got - want).values())
        raise AnswerMismatch(
            f"{missing} reference row(s) missing and {extra} extra "
            f"row(s) in an answer of {sum(got.values())} row(s)")


def check_contains(columns: Sequence[str], rows: Iterable[Mapping],
                   required: Iterable[tuple], what: str) -> None:
    """Raise :class:`AnswerMismatch` unless every tuple of *required*
    is among the answer's rows (projected on *columns*)."""
    present = set(bag(columns, rows))
    absent = [t for t in required if t not in present]
    if absent:
        raise AnswerMismatch(
            f"{len(absent)} row(s) of {what} missing, e.g. {absent[0]}")
