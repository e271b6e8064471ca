"""Relation instances: a schema plus a bag of rows.

Rows are plain dictionaries keyed by attribute name. The class validates
rows against the schema (catching wrapper/schema drift early — the very
failure mode the BDI ontology governs) and renders the ASCII tables used
to reproduce Tables 1 and 2 of the paper.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, \
    Mapping, Sequence

from repro.errors import SchemaError
from repro.relational.schema import RelationSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.columnar import ColumnBatch

__all__ = ["Relation", "render_table"]

Row = Mapping[str, object]


class Relation:
    """A materialized relation (bag semantics, stable order)."""

    __slots__ = ("schema", "_rows", "_columnar", "_reused", "_rows_json")

    def __init__(self, schema: RelationSchema,
                 rows: Iterable[Row] = ()) -> None:
        self.schema = schema
        self._rows: list[dict[str, object]] = []
        self._columnar: "ColumnBatch | None" = None
        #: served more than once (see :meth:`mark_reused`)
        self._reused = False
        self._rows_json: bytes | None = None
        for row in rows:
            self.append(row)

    @classmethod
    def from_trusted(cls, schema: RelationSchema,
                     rows: list[dict[str, object]]) -> "Relation":
        """Adopt *rows* without per-row schema validation.

        For internal producers (wrappers after their own validation,
        algebra operators whose output fits the schema by construction).
        The caller hands over ownership of *rows* and of every dict in
        it — they must not be mutated afterwards.
        """
        relation = cls(schema)
        relation._rows = rows
        return relation

    @classmethod
    def from_batch(cls, batch: "ColumnBatch",
                   name: str | None = None) -> "Relation":
        """Materialize a columnar batch as a relation (batch→row
        adapter); the batch stays attached as the columnar view."""
        relation = batch.to_relation(name)
        if name is None or name == batch.schema.name:
            relation._columnar = batch.compact()
        return relation

    # -- mutation -----------------------------------------------------------

    def append(self, row: Row) -> None:
        expected = set(self.schema.attribute_names)
        got = set(row)
        if got != expected:
            missing = expected - got
            extra = got - expected
            parts = []
            if missing:
                parts.append(f"missing {sorted(missing)}")
            if extra:
                parts.append(f"unexpected {sorted(extra)}")
            raise SchemaError(
                f"row does not fit schema {self.schema.name}: "
                + ", ".join(parts))
        # the memoized batch and encoding no longer match
        self._columnar = None
        self._rows_json = None
        self._rows.append(dict(row))

    def extend(self, rows: Iterable[Row]) -> None:
        for row in rows:
            self.append(row)

    # -- access ---------------------------------------------------------------

    @property
    def rows(self) -> list[dict[str, object]]:
        return list(self._rows)

    def columnar(self) -> "ColumnBatch":
        """The columnar view of this relation, memoized.

        Consumers treat produced relations as immutable (shared-scan
        results explicitly so), which makes the pivot safe to share:
        a wrapper scan cached across a whole batch of queries is
        pivoted to columns once, then every vectorized plan reuses the
        same column lists. The memo drops on :meth:`append`. The
        returned batch's columns are shared — never mutate them.
        """
        batch = self._columnar
        if batch is None:
            from repro.relational.columnar import ColumnBatch
            batch = ColumnBatch.from_rows(self.schema, self._rows)
            self._columnar = batch
        return batch

    def mark_reused(self) -> None:
        """Note that this relation is being served again.

        The answer cache calls this on a hit and when it installs a
        patched answer. From then on :meth:`rows_json` encodes the rows
        once and keeps the bytes.
        """
        self._reused = True

    def rows_json(self) -> bytes | None:
        """The rows as ``json.dumps(self.rows, sort_keys=True)`` UTF-8
        bytes, encoded once and kept; None until :meth:`mark_reused`.

        A fresh answer keeps no encoded copy: most are served once, and
        a workload of fresh answers would hold every answer twice. The
        bytes drop on :meth:`append`. Concurrent callers at most encode
        twice.
        """
        if not self._reused:
            return None
        encoded = self._rows_json
        if encoded is None:
            encoded = json.dumps(self._rows, sort_keys=True).encode("utf-8")
            self._rows_json = encoded
        return encoded

    def column(self, name: str) -> list[object]:
        self.schema.attribute(name)  # validate
        return [row[name] for row in self._rows]

    def distinct(self) -> "Relation":
        """Set-semantics copy (first occurrence order preserved)."""
        seen: set[tuple] = set()
        out = Relation(self.schema)
        names = self.schema.attribute_names
        for row in self._rows:
            key = tuple(row[n] for n in names)
            if key not in seen:
                seen.add(key)
                out._rows.append(dict(row))
        return out

    def sorted_by(self, *names: str) -> "Relation":
        for name in names:
            self.schema.attribute(name)
        out = Relation(self.schema)
        out._rows = sorted(
            (dict(r) for r in self._rows),
            key=lambda r: tuple(str(r[n]) for n in names))
        return out

    def where(self, predicate: Callable[[Row], bool]) -> "Relation":
        out = Relation(self.schema)
        out._rows = [dict(r) for r in self._rows if predicate(r)]
        return out

    def page(self, offset: int, size: int) -> list[dict[str, object]]:
        """One page of rows: copies of rows ``[offset, offset+size)``.

        The protocol layer's pagination primitive: the relation stays
        materialized server-side and only the requested window is
        copied out, so a page response never re-serializes the answer.
        """
        if offset < 0 or size < 1:
            raise SchemaError("page requires offset >= 0 and size >= 1")
        return [dict(r) for r in self._rows[offset:offset + size]]

    def as_tuples(self, names: Sequence[str] | None = None) -> list[tuple]:
        names = list(names or self.schema.attribute_names)
        return [tuple(row[n] for n in names) for row in self._rows]

    # -- protocols ---------------------------------------------------------------

    def __iter__(self) -> Iterator[dict[str, object]]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other: object) -> bool:
        """Bag equality over the same attribute set (order-insensitive)."""
        if not isinstance(other, Relation):
            return NotImplemented
        if set(self.schema.attribute_names) != set(
                other.schema.attribute_names):
            return False
        names = sorted(self.schema.attribute_names)
        mine = sorted(tuple(str(r[n]) for n in names) for r in self._rows)
        theirs = sorted(tuple(str(r[n]) for n in names) for r in other._rows)
        return mine == theirs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Relation {self.schema.name}: {len(self._rows)} rows>"

    # -- display -----------------------------------------------------------------

    def to_ascii(self, max_rows: int | None = None) -> str:
        return render_table(self.schema.attribute_names, self._rows,
                            title=self.schema.name, max_rows=max_rows)


def render_table(columns: Sequence[str], rows: Iterable[Row],
                 title: str | None = None,
                 max_rows: int | None = None) -> str:
    """Render rows as a boxed ASCII table (used by benches and examples)."""
    material = [dict(r) for r in rows]
    if max_rows is not None and len(material) > max_rows:
        shown = material[:max_rows]
        footer = f"... ({len(material) - max_rows} more rows)"
    else:
        shown = material
        footer = None

    widths = {c: len(str(c)) for c in columns}
    for row in shown:
        for c in columns:
            widths[c] = max(widths[c], len(str(row.get(c, ""))))

    def line(char: str = "-") -> str:
        return "+" + "+".join(char * (widths[c] + 2) for c in columns) + "+"

    out: list[str] = []
    if title:
        out.append(title)
    out.append(line())
    out.append("| " + " | ".join(
        str(c).ljust(widths[c]) for c in columns) + " |")
    out.append(line("="))
    for row in shown:
        out.append("| " + " | ".join(
            str(row.get(c, "")).ljust(widths[c]) for c in columns) + " |")
    out.append(line())
    if footer:
        out.append(footer)
    return "\n".join(out)
