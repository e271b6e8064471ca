"""Signed columnar deltas: the exchange format of incremental maintenance.

A full recompute answers "what is the result now?"; incremental
maintenance answers "how did the result change?". The unit of that
answer is a :class:`DeltaBatch` — a :class:`~repro.relational.columnar.
ColumnBatch` paired with a signed *op column*: row *i* of the batch
changes the multiplicity of that row by ``ops[i]`` (positive = insert,
negative = retract; an update travels as a retraction/assertion pair).
Standing-query operators (:mod:`repro.streaming.operators`) consume and
produce these batches, so O(Δ) refresh rides the same columnar layout
as the execution engine. ``QueryEngine(use_answer_cache=False)``
keeps no answers, so it never patches one: every query recomputes.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.relational.columnar import ColumnBatch
from repro.relational.schema import RelationSchema

__all__ = ["DeltaBatch", "RowTuple"]

#: One row as a value tuple aligned with a schema's attribute order —
#: the hashable currency of multiplicity counters and join indexes.
RowTuple = tuple[object, ...]


class DeltaBatch:
    """A columnar batch of signed multiplicity changes.

    ``ops`` aligns position-for-position with the batch's live rows:
    ``ops[i]`` is the (non-zero) change to the multiplicity of row *i*.
    Batches are immutable by the same convention as
    :class:`~repro.relational.columnar.ColumnBatch` — columns and the
    op list may be shared, never mutated.
    """

    __slots__ = ("batch", "ops")

    def __init__(self, batch: ColumnBatch, ops: Sequence[int]) -> None:
        if len(ops) != len(batch):
            raise SchemaError(
                f"delta for {batch.schema.name}: {len(batch)} rows but "
                f"{len(ops)} ops")
        self.batch = batch
        self.ops: tuple[int, ...] = tuple(ops)

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, schema: RelationSchema) -> "DeltaBatch":
        return cls(ColumnBatch.empty(schema), ())

    @classmethod
    def from_tuples(cls, schema: RelationSchema,
                    rows: Sequence[RowTuple],
                    ops: Sequence[int]) -> "DeltaBatch":
        """Pivot row tuples (aligned with *schema*) into a delta."""
        width = len(schema.attributes)
        columns: list[list[object]] = [
            [row[i] for row in rows] for i in range(width)]
        return cls(ColumnBatch(schema, columns, _length=len(rows)), ops)

    @classmethod
    def from_counts(cls, schema: RelationSchema,
                    counts: Mapping[RowTuple, int]) -> "DeltaBatch":
        """Build a delta from a multiplicity-change counter; zero
        entries (changes that cancelled out) are dropped."""
        live = [(row, count) for row, count in counts.items() if count]
        return cls.from_tuples(schema, [row for row, _ in live],
                               [count for _, count in live])

    # -- shape ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def schema(self) -> RelationSchema:
        return self.batch.schema

    def change_count(self) -> int:
        """Total changed multiplicity ``Σ|op|`` — the delta volume the
        fallback valve weighs against a full recompute."""
        return sum(abs(op) for op in self.ops)

    def tuples(self) -> Iterator[tuple[RowTuple, int]]:
        """``(row tuple, signed count)`` pairs in batch order."""
        if not self.ops:
            return iter(())
        dense = self.batch.dense_columns()
        if not dense:  # zero-column schema: every row is ()
            return iter(((), op) for op in self.ops)
        return zip(zip(*dense), self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DeltaBatch {self.schema.name}: {len(self)} changes, "
                f"|Δ|={self.change_count()}>")
