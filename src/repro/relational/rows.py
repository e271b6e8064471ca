"""Relation instances: a schema plus a bag of rows.

Rows are plain dictionaries keyed by attribute name. The class validates
rows against the schema (catching wrapper/schema drift early — the very
failure mode the BDI ontology governs) and renders the ASCII tables used
to reproduce Tables 1 and 2 of the paper.

A relation is backed either by row dicts (algebra operators,
:meth:`Relation.from_trusted`) or by a
:class:`~repro.relational.columnar.ColumnBatch`
(:meth:`Relation.from_batch`; every wrapper scan and plan answer). A batch-backed
relation builds its row dicts at most once, on the first row access
(:attr:`~Relation.rows`, iteration, ``==``, …); ``len``,
:meth:`~Relation.columnar`, :meth:`~Relation.page` and
:meth:`~Relation.rows_json` read the columns, so an answer served only
over the wire never has row dicts at all.

:meth:`Relation.rows_json` encodes a batch-backed relation column by
column, and the bytes always equal ``json.dumps(rows, sort_keys=True)``.
Each column becomes one lane of JSON texts:

* a dictionary-encoded column whose every code stands for exactly one
  JSON text is encoded once per code, and the lane gathers the texts
  through the codes;
* a str-only column goes through the C string escaper, and an int-only
  one through ``int.__repr__``;
* anything else is encoded cell by cell with ``json.dumps``.

The lanes, with the keys baked into their separators in sorted order,
are zipped row by row and joined in one pass.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, \
    Mapping, Sequence

from repro.errors import SchemaError
from repro.relational import accel
from repro.relational.schema import RelationSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.columnar import ColumnBatch, EncodedColumn

__all__ = ["Relation", "render_table"]

Row = Mapping[str, object]


class Relation:
    """A materialized relation (bag semantics, stable order)."""

    __slots__ = ("schema", "_rows", "_columnar", "_reused", "_rows_json")

    def __init__(self, schema: RelationSchema,
                 rows: Iterable[Row] = ()) -> None:
        self.schema = schema
        #: None until a batch-backed relation's rows are first read
        self._rows: list[dict[str, object]] | None = []
        #: the columnar view; when set, the rows are exactly its rows
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

        For internal producers (algebra operators whose output fits the
        schema by construction).
        The caller hands over ownership of *rows* and of every dict in
        it — they must not be mutated afterwards.
        """
        relation = cls(schema)
        relation._rows = rows
        return relation

    @classmethod
    def from_batch(cls, batch: "ColumnBatch",
                   name: str | None = None) -> "Relation":
        """A relation backed by *batch*, optionally renamed to *name*.

        No row dict is built here: the batch is the columnar view, and
        the rows are pivoted from it on the first row access. The
        caller hands over the batch, which must not change afterwards.
        """
        schema = batch.schema
        if name is not None and name != schema.name:
            schema = RelationSchema(name, schema.attributes,
                                    schema.source)
            batch = batch.rename({n: n for n in schema.attribute_names},
                                 name=name)
        relation = cls(schema)
        relation._rows = None
        relation._columnar = batch
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
        rows = self._materialized()
        # the memoized batch and encoding no longer match
        self._columnar = None
        self._rows_json = None
        rows.append(dict(row))

    def extend(self, rows: Iterable[Row]) -> None:
        for row in rows:
            self.append(row)

    # -- access ---------------------------------------------------------------

    def _materialized(self) -> list[dict[str, object]]:
        """The row dicts, pivoted from the batch on first use.
        Concurrent first readers at most pivot twice."""
        rows = self._rows
        if rows is None:
            assert self._columnar is not None
            rows = self._columnar.to_rows()
            self._rows = rows
        return rows

    @property
    def rows(self) -> list[dict[str, object]]:
        return list(self._materialized())

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
            batch = ColumnBatch.from_rows(self.schema, self._materialized())
            self._columnar = batch
        return batch

    def mark_reused(self) -> None:
        """Note that this relation is being served again.

        The answer cache calls this on a hit and when it installs a
        patched answer. From then on :meth:`rows_json` keeps the bytes
        it encodes.
        """
        self._reused = True

    def rows_json(self) -> bytes:
        """The rows as ``json.dumps(self.rows, sort_keys=True)`` UTF-8
        bytes.

        A relation with a columnar view (every batch-backed one) encodes
        its columns without building row dicts (see the module
        docstring). The bytes are kept only once :meth:`mark_reused` was
        called: most fresh answers are served once, and a workload of
        fresh answers would hold every answer twice. They drop on
        :meth:`append`. Concurrent callers at most encode twice.
        """
        encoded = self._rows_json
        if encoded is not None:
            return encoded
        batch = self._columnar
        if batch is not None:
            encoded = _batch_json(batch)
        else:
            encoded = json.dumps(self._materialized(),
                                 sort_keys=True).encode("utf-8")
        if self._reused:
            self._rows_json = encoded
        return encoded

    def column(self, name: str) -> list[object]:
        self.schema.attribute(name)  # validate
        return [row[name] for row in self._materialized()]

    def distinct(self) -> "Relation":
        """Set-semantics copy (first occurrence order preserved)."""
        seen: set[tuple] = set()
        kept: list[dict[str, object]] = []
        names = self.schema.attribute_names
        for row in self._materialized():
            key = tuple(row[n] for n in names)
            if key not in seen:
                seen.add(key)
                kept.append(dict(row))
        return Relation.from_trusted(self.schema, kept)

    def sorted_by(self, *names: str) -> "Relation":
        for name in names:
            self.schema.attribute(name)
        out = Relation(self.schema)
        out._rows = sorted(
            (dict(r) for r in self._materialized()),
            key=lambda r: tuple(str(r[n]) for n in names))
        return out

    def where(self, predicate: Callable[[Row], bool]) -> "Relation":
        out = Relation(self.schema)
        out._rows = [dict(r) for r in self._materialized()
                     if predicate(r)]
        return out

    def page(self, offset: int, size: int) -> list[dict[str, object]]:
        """One page of rows: copies of rows ``[offset, offset+size)``.

        The protocol layer's pagination primitive: the relation stays
        materialized server-side and only the requested window is
        copied out, so a page response never re-serializes the answer.
        A batch-backed relation whose rows were never read pivots only
        the window.
        """
        if offset < 0 or size < 1:
            raise SchemaError("page requires offset >= 0 and size >= 1")
        rows = self._rows
        if rows is None:
            assert self._columnar is not None
            end = min(offset + size, len(self._columnar))
            return self._columnar.take(range(offset, end)).to_rows()
        return [dict(r) for r in rows[offset:offset + size]]

    def as_tuples(self, names: Sequence[str] | None = None) -> list[tuple]:
        names = list(names or self.schema.attribute_names)
        return [tuple(row[n] for n in names)
                for row in self._materialized()]

    # -- protocols ---------------------------------------------------------------

    def __iter__(self) -> Iterator[dict[str, object]]:
        return iter(self._materialized())

    def __len__(self) -> int:
        rows = self._rows
        if rows is None:
            assert self._columnar is not None
            return len(self._columnar)
        return len(rows)

    def __eq__(self, other: object) -> bool:
        """Bag equality over the same attribute set (order-insensitive)."""
        if not isinstance(other, Relation):
            return NotImplemented
        if set(self.schema.attribute_names) != set(
                other.schema.attribute_names):
            return False
        names = sorted(self.schema.attribute_names)
        mine = sorted(tuple(str(r[n]) for n in names)
                      for r in self._materialized())
        theirs = sorted(tuple(str(r[n]) for n in names)
                        for r in other._materialized())
        return mine == theirs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Relation {self.schema.name}: {len(self)} rows>"

    # -- display -----------------------------------------------------------------

    def to_ascii(self, max_rows: int | None = None) -> str:
        return render_table(self.schema.attribute_names,
                            self._materialized(),
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


# ---------------------------------------------------------------------------
# Column-wise JSON encoding
# ---------------------------------------------------------------------------

_dumps_cell: Callable[[object], str] = partial(json.dumps, sort_keys=True)
#: cell types whose JSON text follows from ``==``-class and type alone
_PLAIN = frozenset({str, type(None), int, bool, float})
_NUMBERS = frozenset({int, bool, float})


def _texts(values: Sequence[Any], kinds: set[type]) -> list[str]:
    """The JSON text of every value, by the cheapest exact lane."""
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    return list(map(_dumps_cell, values))


def _one_text_per_code(kinds: set[type],
                       encoded: "EncodedColumn") -> bool:
    """True when every code of *encoded* stands for one JSON text.

    A code stands for a class of ``==``-equal values: ``1``, ``1.0``
    and ``True`` share one, and so do ``0.0`` and ``-0.0``. *kinds*
    covers the column's values and the dictionary's, so a class mixes
    no two types when at most one numeric type occurs, and floats need
    no zero among them.
    """
    numbers = kinds & _NUMBERS
    return (kinds <= _PLAIN and len(numbers) <= 1
            and not (float in numbers and 0.0 in encoded.index))


def _lanes(batch: "ColumnBatch", position: int,
           prefix: str) -> list[Iterable[str]]:
    """Column *position*'s live values as JSON texts, each preceded by
    *prefix*, in row order: one lane of prefixed texts when the codes
    carry them, else a lane of prefixes and a lane of texts."""
    column = batch.columns[position]
    selection = batch.selection
    kinds = set(map(type, column))
    encoded = batch.known_encoding(position)
    if encoded is not None and len(encoded.values) <= len(batch):
        values_kinds = set(map(type, encoded.values))
        if _one_text_per_code(kinds | values_kinds, encoded):
            fragments = [prefix + text for text in
                         _texts(encoded.values, values_kinds)]
            codes: Any = encoded.select(selection)
            if accel.is_array(codes):
                codes = codes.tolist()
            return [map(fragments.__getitem__, codes)]
    live = (column if selection is None
            else list(map(column.__getitem__, selection)))
    return [repeat(prefix), _texts(live, kinds)]


def _batch_json(batch: "ColumnBatch") -> bytes:
    """``json.dumps(batch.to_rows(), sort_keys=True)`` as UTF-8 bytes,
    built from the columns.

    Every row is ``, {"a": <text>, "b": <text>}``: the lanes of
    prefixes and texts are zipped row by row and joined in one pass,
    and the leading separator of the first row is cut.
    """
    names = batch.schema.attribute_names
    order = sorted(range(len(names)), key=names.__getitem__)
    if not order:
        return ("[" + ", ".join(["{}"] * len(batch)) + "]").encode("ascii")
    lanes: list[Iterable[str]] = []
    for rank, position in enumerate(order):
        lanes += _lanes(batch, position, (", {" if rank == 0 else ", ")
                        + encode_basestring_ascii(names[position]) + ": ")
    lanes.append(repeat("}"))
    body = "".join(chain.from_iterable(zip(*lanes)))
    return ("[" + body[2:] + "]").encode("ascii")
