"""Columnar batches: the exchange format of the physical layer.

Wrappers produce rows as per-row dicts; operating on those would copy
a dict per join match, rebuild one per projection and run an
itemgetter per dedup key. A :class:`ColumnBatch` turns that inside
out: one Python list per column, plus an optional **selection vector**
of live row indices, so operators work on whole columns at a time:

* a join works on index lists and gathers each output column in a
  single ``map(column.__getitem__, indices)`` pass — no per-match dict
  merging;
* a rename or reorder aliases the underlying lists — nothing is
  copied;
* dedup zips the value columns into tuples and keeps first occurrences
  with one set — no per-row itemgetter calls.

A plan's output batch becomes a batch-backed
:class:`~repro.relational.rows.Relation`
(:meth:`Relation.from_batch <repro.relational.rows.Relation.from_batch>`),
which crosses back into row land only when its rows are first read, so
the wrappers and the protocol envelopes are untouched on the outside.

Batches are **immutable by convention**: columns may be shared between
batches (projections alias their child's lists) and with the
:class:`~repro.relational.rows.Relation` they were converted from via
:meth:`Relation.columnar <repro.relational.rows.Relation.columnar>`'s
memo — never mutate a column list you did not build yourself. The
row-value accessors (:meth:`ColumnBatch.column` /
:meth:`ColumnBatch.column_at`) return defensive copies for exactly that
reason; operators on the hot path use the explicitly shared
:meth:`ColumnBatch.dense_columns` view instead.

**Dictionary encoding** lives here too: an :class:`EncodedColumn`
is a column's dictionary encoding — one small-int code per stored row
plus the code → value dictionary — built lazily per column and memoized
on the batch (the memo travels with zero-copy renames, so a scan shared
through the scan cache encodes each column at most once per fetch).
Join keys, ID filters and DISTINCT then operate on dense ints instead
of tuples of arbitrary objects. Every hashable column encodes, unique
ID columns included: a scan cached through the scan cache pays each
dictionary once, and both sides of a join then run on codes. Only a
column holding an unhashable value (a dict or list cell) falls back to
the raw list, signalled by ``None``. An encoding also remembers its
translation onto another scan's dictionary
(:meth:`EncodedColumn.remap_onto`), so a join between two cached scans
bridges their code spaces once, not once per query.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.errors import SchemaError
from repro.relational import accel
from repro.relational.schema import Attribute, RelationSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.rows import Relation

__all__ = ["ColumnBatch", "EncodedColumn", "concat_batches",
           "encode_values", "first_occurrences"]

#: translations one encoding remembers (:meth:`EncodedColumn.remap_onto`)
REMAP_MEMO_ENTRIES = 4


class EncodedColumn:
    """The dictionary encoding of one stored column.

    ``codes[i]`` is the small-int code of stored row *i*'s value;
    ``values[code]`` decodes it; ``index`` is the reverse mapping used
    to translate foreign values (or a foreign dictionary) into this
    code space. Codes are dense (``0 .. len(values) - 1``), assigned by
    first occurrence, and two values that compare equal (``1`` and
    ``1.0``) share one code — exactly the equality joins and DISTINCT
    use, so operating on codes is operating on values.

    Instances are immutable by convention and shared between every
    consumer of the memoizing batch — never mutate them. The only
    state that changes is memoized: the codes as a vector and the
    translations onto other dictionaries.
    """

    __slots__ = ("codes", "values", "index", "_vector", "_remaps",
                 "__weakref__")

    def __init__(self, codes: "list[int] | Any", values: list[object],
                 index: dict[object, int]) -> None:
        self.codes = codes
        self.values = values
        self.index = index
        self._vector: Any = None
        #: ``(weak reference to the target, table)`` pairs, newest
        #: first, at most ``REMAP_MEMO_ENTRIES``; replaced whole, never
        #: mutated, so a reader sees one consistent tuple
        self._remaps: "tuple[tuple[weakref.ref, Any], ...]" = ()

    def __len__(self) -> int:
        return len(self.codes)

    def codes_vector(self) -> Any:
        """The stored codes as an int64 numpy vector, memoized.

        Only meaningful when :func:`repro.relational.accel.available`
        — callers on the accelerated path gather and dedup on this
        vector instead of the Python list."""
        if self._vector is None:
            self._vector = accel.index_array(self.codes)
        return self._vector

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def remap_onto(self, other: "EncodedColumn") -> "list[int] | Any":
        """Translate *this* code space onto *other*'s.

        Returns ``translate`` with ``translate[code] =`` the matching
        code in *other*, or ``-1`` when the value does not occur there —
        the cross-dictionary bridge an int-coded join uses when its two
        sides were encoded independently. Costs one hash lookup per
        *distinct* value instead of one per row, and only on the first
        call per *other*: the table is remembered for the last
        ``REMAP_MEMO_ENTRIES`` targets, so a join between two cached
        scans translates once. The table is an int64 vector when
        :func:`repro.relational.accel.available`, a list otherwise.

        The memo holds each target by weak reference and serves a table
        only to the very object it was built for: a dropped encoding can
        never lend its table to a newer one. Two threads that fill the
        memo at once may lose an entry, never mix one up.
        """
        vector = accel.available()
        for target, table in self._remaps:
            if target() is other and accel.is_array(table) == vector:
                return table
        get = other.index.get
        table = [get(value, -1) for value in self.values]
        if vector:
            table = accel.index_array(table)
        self._remaps = ((weakref.ref(other), table),
                        *self._remaps[:REMAP_MEMO_ENTRIES - 1])
        return table

    def select(self, selection: "list[int] | None") -> "list[int] | Any":
        """The live codes under *selection* (the shared list — or, for
        an installed accelerated lane, vector — when ``None``; treat it
        as read-only)."""
        if selection is None:
            return self.codes
        return list(map(self.codes.__getitem__, selection))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EncodedColumn {len(self.codes)} rows, "
                f"{len(self.values)} distinct>")


def encode_values(column: Sequence[object]) -> EncodedColumn | None:
    """Dictionary-encode *column*, or ``None`` when a value is
    unhashable (codes require a dict).

    Every hashable column encodes, however unique: a unique ID column
    gets dense codes ``0 .. n - 1``, and a join on it runs on codes
    like any other. Codes are assigned by first occurrence; the
    dictionary keeps the first value of each ``==``-class, in that
    order.
    """
    index: dict[object, int] = {}
    setdefault = index.setdefault
    try:
        codes = [setdefault(value, len(index)) for value in column]
    except TypeError:
        return None  # unhashable value (dict/list cell): raw fallback
    return EncodedColumn(codes, list(index), index)


def first_occurrences(lanes: Sequence[Any]) -> "list[int] | None":
    """Keep list of first-occurrence rows over parallel *lanes*, or
    ``None`` when every row is already unique (keep everything, gather
    nothing twice). Encoded lanes carry int codes, so the zip keys hash
    small ints instead of arbitrary objects; when every lane is an
    int64 vector the packed numpy kernel runs instead."""
    if lanes and all(map(accel.is_array, lanes)):
        return accel.first_occurrence_keep(lanes)
    keys: Iterable[object]
    if len(lanes) == 1:
        keys = lanes[0]  # scalar fast path (codes when encoded)
    else:
        keys = zip(*lanes)
    seen: set = set()
    keep: list[int] = []
    add = seen.add
    for i, key in enumerate(keys):
        if key not in seen:
            add(key)
            keep.append(i)
    if len(keep) == len(lanes[0]):
        return None
    return keep


#: marks a :meth:`ColumnBatch.distinct_keep` memo not yet computed
_UNKNOWN: Any = object()


class ColumnBatch:
    """A batch of rows stored column-wise.

    ``columns`` aligns position-for-position with
    ``schema.attributes``. ``selection`` is either ``None`` (every
    stored row is live) or a list of indices into the columns — the
    standard vectorized-execution trick for filters: dropping rows
    costs one index list, not one copy per surviving column.
    """

    __slots__ = ("schema", "columns", "selection", "_length",
                 "_encodings", "_keep", "_keep_vector")

    def __init__(self, schema: RelationSchema,
                 columns: Sequence[list[object]],
                 selection: list[int] | None = None,
                 _length: int | None = None,
                 _encodings: "dict[int, EncodedColumn | None] | None"
                 = None) -> None:
        if len(columns) != len(schema.attributes):
            raise SchemaError(
                f"batch for {schema.name} expects "
                f"{len(schema.attributes)} columns, got {len(columns)}")
        self.schema = schema
        self.columns = tuple(columns)
        self.selection = selection
        #: lazily built dictionary encodings, keyed by ``id(column)``.
        #: The dict object is *shared* with every batch derived through
        #: a zero-copy aliasing op (rename/reorder/select), so an
        #: encoding built once — e.g. on the scan batch memoized on its
        #: Relation — serves every later view of the same column list.
        #: Safe because aliasing ops never allocate column lists: every
        #: id in the dict belongs to a list kept alive by a sharing
        #: batch. ``None`` records a deliberate fallback (a column with
        #: an unhashable value) so it is not retried.
        self._encodings: "dict[int, EncodedColumn | None]" = \
            _encodings if _encodings is not None else {}
        #: memo of :meth:`distinct_keep` — per batch object, never
        #: shared: a view with another selection has other live rows
        self._keep: Any = _UNKNOWN
        #: the same keep list as an int64 vector (:meth:`distinct_picks`)
        self._keep_vector: Any = None
        if _length is not None:
            stored = _length
        else:
            stored = len(columns[0]) if columns else 0
        for column in self.columns:
            if len(column) != stored:
                raise SchemaError(
                    f"ragged batch for {schema.name}: column lengths "
                    f"{[len(c) for c in self.columns]}")
        self._length = (len(selection) if selection is not None
                        else stored)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: RelationSchema,
                  rows: Sequence[Mapping[str, object]]) -> "ColumnBatch":
        """Pivot row dicts into columns (the row→batch adapter)."""
        names = schema.attribute_names
        return cls(schema,
                   [[row[name] for row in rows] for name in names],
                   _length=len(rows))

    @classmethod
    def empty(cls, schema: RelationSchema) -> "ColumnBatch":
        return cls(schema, [[] for _ in schema.attributes], _length=0)

    # -- shape ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self.schema.attribute_names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sel = (f" selection={len(self.selection)}"
               if self.selection is not None else "")
        return (f"<ColumnBatch {self.schema.name}: {len(self)} rows × "
                f"{len(self.columns)} cols{sel}>")

    # -- column access -------------------------------------------------------

    def _index_of(self, name: str) -> int:
        try:
            return self.schema.attribute_names.index(name)
        except ValueError:
            raise SchemaError(
                f"{self.schema.name} has no attribute {name!r}") from None

    def column(self, name: str) -> list[object]:
        """The live values of one column (selection applied).

        Always a fresh list the caller owns — mutating it can never
        corrupt a batch (or the memoized relation pivot) sharing the
        underlying column.
        """
        return self.column_at(self._index_of(name))

    def column_at(self, index: int) -> list[object]:
        """Defensive copy of the live values at column *index*.

        Returning the underlying list when ``selection is None`` let
        callers corrupt columns shared with memoized relations; use
        :meth:`dense_columns` where the (documented read-only) shared
        view is wanted on a hot path.
        """
        column = self.columns[index]
        if self.selection is None:
            return list(column)
        return list(map(column.__getitem__, self.selection))

    def dense_columns(self) -> tuple[list[object], ...]:
        """Every column with the selection applied (compacted).

        Dense results share the underlying column lists — with every
        aliasing batch and possibly a memoized relation pivot — so
        treat them as read-only.
        """
        if self.selection is None:
            return self.columns
        getters = self.selection
        return tuple(list(map(column.__getitem__, getters))
                     for column in self.columns)

    # -- dictionary encoding -------------------------------------------------

    def encoded(self, name: str) -> EncodedColumn | None:
        """The dictionary encoding of column *name*, or ``None``.

        Codes cover the **stored** rows — apply
        :attr:`selection` (``EncodedColumn.select(batch.selection)``)
        to read live rows. Built lazily and memoized in a dict shared
        across zero-copy views of the same columns, so the scan batch
        cached on a Relation encodes each column at most once no matter
        how many queries join through it. Every hashable column
        encodes, unique ones included; ``None`` means the column holds
        an unhashable value — callers use the raw lists instead.
        """
        return self.encoded_at(self._index_of(name))

    def encoded_at(self, index: int) -> EncodedColumn | None:
        column = self.columns[index]
        # Identity keys the process-local memo only; codes/values never
        # depend on it, so replayed state stays byte-deterministic.
        key = id(column)  # repro-lint: disable=replay-determinism -- process-local memo key, never serialized
        memo = self._encodings
        if key in memo:
            return memo[key]
        encoded = encode_values(column)
        memo[key] = encoded
        return encoded

    def known_encoding(self, index: int) -> EncodedColumn | None:
        """The encoding of column *index* if one is already memoized
        (``None`` otherwise); never builds one."""
        return self._encodings.get(id(self.columns[index]))  # repro-lint: disable=replay-determinism -- process-local memo key, never serialized

    def install_encoding(self, index: int,
                         encoded: EncodedColumn | None) -> None:
        """Pre-seed the encoding memo for column *index*.

        Producers that already hold codes for a freshly gathered column
        (the fused projection gathers codes and decodes them) install
        the result so DISTINCT and downstream joins reuse it instead of
        re-deriving the dictionary.
        """
        key = id(self.columns[index])  # repro-lint: disable=replay-determinism -- process-local memo key, never serialized
        self._encodings[key] = encoded

    def distinct_keep(self) -> "list[int] | None":
        """First-occurrence keep list over the live rows, memoized.

        Positions index live rows; ``None`` means every row is already
        unique. Every column dictionary-encodes first (memoized like
        any encoding), so the dedup runs on int code lanes — packed
        into one int64 key per row when numpy is present. The result is
        memoized on this batch object: a scan batch memoized on its
        relation, and shared through the scan cache, pays the pass once
        per fetch.
        """
        keep = self._keep
        if keep is _UNKNOWN:
            keep = self._first_occurrence_keep(
                [self.encoded_at(i) for i in range(len(self.columns))])
            self._keep = keep
        return keep

    def distinct_picks(self) -> Any:
        """:meth:`distinct_keep` in the form the gather kernels take:
        with numpy, an int64 vector memoized next to the list, so a
        cached scan converts its keep list once, not once per query
        that gathers through it; without numpy, the list itself."""
        keep = self.distinct_keep()
        if keep is None or not accel.available():
            return keep
        vector = self._keep_vector
        if vector is None:
            vector = self._keep_vector = accel.index_array(keep)
        return vector

    def _first_occurrence_keep(
            self, encodings: "Sequence[EncodedColumn | None]"
    ) -> "list[int] | None":
        """Keep list over the live rows, deduplicating each column on
        its codes where *encodings* has them and on its values where
        it has ``None``. With numpy and every column encoded, the
        lanes are int64 vectors and the packed kernel runs."""
        if not self.columns:
            # Zero-column rows are all equal: at most one survives.
            return [0] if len(self) > 1 else None
        sel = self.selection
        lanes: list[Any] = []
        if accel.available() and all(
                enc is not None for enc in encodings):
            for enc in encodings:
                vector = enc.codes_vector()  # type: ignore[union-attr]
                lanes.append(vector if sel is None
                             else accel.take(vector, sel))
        else:
            for enc, column in zip(encodings, self.columns):
                if enc is not None:
                    lanes.append(enc.select(sel))
                elif sel is None:
                    lanes.append(column)
                else:
                    lanes.append(list(map(column.__getitem__, sel)))
        return first_occurrences(lanes)

    def compact(self) -> "ColumnBatch":
        """A selection-free copy (no-op when already dense)."""
        if self.selection is None:
            return self
        return ColumnBatch(self.schema, self.dense_columns(),
                           _length=len(self))

    # -- vectorized operations ----------------------------------------------

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Gather rows by *live-row* position (dense output)."""
        if self.selection is not None:
            base = self.selection
            indices = [base[i] for i in indices]
        columns = tuple(list(map(column.__getitem__, indices))
                        for column in self.columns)
        return ColumnBatch(self.schema, columns, _length=len(indices))

    def select(self, indices: list[int]) -> "ColumnBatch":
        """Restrict to *live-row* positions via a selection vector.

        Columns are shared, only the index list is new — the cheap form
        of :meth:`take` for operators that filter without reordering.
        """
        if self.selection is not None:
            base = self.selection
            indices = [base[i] for i in indices]
        return ColumnBatch(self.schema, self.columns, indices,
                           _encodings=self._encodings)

    def rename(self, mapping: Mapping[str, str],
               name: str | None = None) -> "ColumnBatch":
        """Project onto ``output → input`` *mapping*, sharing columns.

        The vectorized final projection: output attribute order follows
        the mapping, each output column aliases the input column it
        renames — zero data movement.
        """
        if not mapping:
            schema = RelationSchema(name or f"π({self.schema.name})",
                                    (), None)
            return ColumnBatch(schema, (), _length=len(self))
        names = self.schema.attribute_names
        attrs: list[Attribute] = []
        columns: list[list[object]] = []
        for out_name, in_name in mapping.items():
            try:
                index = names.index(in_name)
            except ValueError:
                raise SchemaError(
                    f"{self.schema.name} has no attribute "
                    f"{in_name!r}") from None
            attrs.append(Attribute(out_name,
                                   self.schema.attributes[index].is_id))
            columns.append(self.columns[index])
        schema = RelationSchema(name or f"π({self.schema.name})",
                                tuple(attrs), None)
        stored = len(self.columns[0]) if self.columns else len(self)
        # Output columns alias input lists, so the encoding memo (keyed
        # by column identity) stays valid — share it.
        return ColumnBatch(schema, columns, self.selection,
                           _length=stored, _encodings=self._encodings)

    def reorder(self, names: Sequence[str]) -> "ColumnBatch":
        """The same batch with columns in *names* order (shared data)."""
        if tuple(names) == self.schema.attribute_names:
            return self
        return self.rename({n: n for n in names},
                           name=self.schema.name)

    def distinct(self) -> "ColumnBatch":
        """First-occurrence dedup over all columns (dense output).

        Columns whose dictionary encoding is already built (scan
        columns shared through the memo, or codes installed by the
        fused projection) dedup on their int codes; no new encoding is
        built. Codes share the dictionary's equality (``1`` and ``1.0``
        take one code), so the result is identical to value dedup.
        """
        keep = self._first_occurrence_keep(
            [self.known_encoding(i) for i in range(len(self.columns))])
        return self.compact() if keep is None else self.take(keep)

    # -- boundary adapters ---------------------------------------------------

    def to_rows(self) -> list[dict[str, object]]:
        """Pivot back to row dicts (the batch→row adapter)."""
        names = self.schema.attribute_names
        if not names:
            return [{} for _ in range(len(self))]
        return [dict(zip(names, values))
                for values in zip(*self.dense_columns())]

    def to_relation(self, name: str | None = None) -> "Relation":
        """This batch as a batch-backed relation (see
        :meth:`Relation.from_batch
        <repro.relational.rows.Relation.from_batch>`)."""
        from repro.relational.rows import Relation
        return Relation.from_batch(self, name)


def concat_batches(schema: RelationSchema,
                   batches: Sequence[ColumnBatch]) -> ColumnBatch:
    """Column-wise concatenation under *schema*'s attribute order.

    Batches may order their columns differently (union branches are
    compatible as attribute *sets*); each is aligned by name before its
    columns are extended onto the output.
    """
    names = schema.attribute_names
    for batch in batches:
        if set(batch.schema.attribute_names) != set(names):
            raise SchemaError(
                "cannot concatenate batch over "
                f"{sorted(batch.schema.attribute_names)} under schema "
                f"{sorted(names)}")
    if len(batches) == 1:
        return batches[0].reorder(names)
    out: tuple[list[object], ...] = tuple([] for _ in names)
    total = 0
    for batch in batches:
        aligned = batch.reorder(names)
        dense = aligned.dense_columns()
        for target, column in zip(out, dense):
            target.extend(column)
        total += len(aligned)
    return ColumnBatch(schema, out, _length=total)
