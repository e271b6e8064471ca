"""Wrapper abstraction (mediator/wrapper architecture, paper §1-2).

A wrapper hides *how* a source is queried and exposes a flat relation in
first normal form: ``w(aID, anID)``. Attribute ``a`` of source ``D1`` is
globally named ``D1/a`` (:func:`qualify`), the form the ontology and the
rewriting algorithm use.

Scan contract
-------------

A concrete wrapper (MongoDB-style, REST, static) implements one method,
:meth:`Wrapper.fetch_rows`. :meth:`Wrapper.relation` always passes it
``columns``, the requested local names as a tuple in schema order, so a
source can push the projection down; the returned rows must hold at
least those names, and any other key is ignored. ``relation`` then
pivots each requested column straight out of the rows into one
:class:`~repro.relational.columnar.ColumnBatch` under local or
source-qualified names: no row is validated, trimmed or requalified
one by one. A row missing a requested name is schema drift and raises
:class:`~repro.errors.WrapperSchemaMismatchError`. Row dicts reappear
only when a consumer reads ``Relation.rows`` (the naive oracle, JSON).
Every ``fetch_rows`` takes ``columns`` (the ``wrapper-capabilities``
lint rule checks it), even one that ignores it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import SchemaError, WrapperSchemaMismatchError
from repro.relational.columnar import ColumnBatch
from repro.relational.physical import Unversioned
from repro.relational.rows import Relation
from repro.relational.schema import Attribute, RelationSchema

__all__ = ["Wrapper", "WrapperDeltas", "StaticWrapper", "qualify"]


def qualify(source_name: str, attribute: str) -> str:
    """Source-qualified attribute name, e.g. ``D1/lagRatio``."""
    return f"{source_name}/{attribute}"


@dataclass(frozen=True)
class WrapperDeltas:
    """Exact row-level changes between two delta cursors.

    ``changes`` is an ordered sequence of ``(sign, row)`` pairs — sign
    ``+1`` for an inserted row, ``-1`` for a deleted one; an update is a
    delete of the old row followed by an insert of the new — with rows
    keyed by *local* attribute names over the wrapper's full schema,
    exactly like the rows of an unrestricted :meth:`Wrapper.relation`.
    Multiplicities are bag semantics: a row inserted twice appears
    twice.

    ``cursor`` is the position the changes advance a reader to (pass it
    to the next ``fetch_deltas``); ``data_version`` is the matching
    scan-cache token — a reader that applies the changes holds the
    relation a full fetch at that version would return.
    """

    changes: "tuple[tuple[int, dict], ...]"
    cursor: object
    data_version: object


class Wrapper:
    """Base wrapper: named view over one data source, one schema version."""

    def __init__(self, name: str, source_name: str,
                 id_attributes: Iterable[str],
                 non_id_attributes: Iterable[str]) -> None:
        self.name = name
        self.source_name = source_name
        self._ids = tuple(dict.fromkeys(id_attributes))
        self._non_ids = tuple(dict.fromkeys(non_id_attributes))
        # The attribute tuples never change, so the naming maps and
        # both schemas are built once; a scan subsets them.
        self._qualify_map = {a: qualify(source_name, a)
                             for a in self._ids + self._non_ids}
        self._local_names = MappingProxyType(
            {q: a for a, q in self._qualify_map.items()})
        self._schema = RelationSchema(name, tuple(
            Attribute(a, True) for a in self._ids) + tuple(
            Attribute(a, False) for a in self._non_ids), source_name)
        self._qualified_schema = RelationSchema(name, tuple(
            Attribute(self._qualify_map[a.name], a.is_id)
            for a in self._schema.attributes), source_name)

    # -- schemas ---------------------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        """The wrapper's relation schema with *local* attribute names."""
        return self._schema

    @property
    def qualified_schema(self) -> RelationSchema:
        """Schema under source-qualified names (``D1/lagRatio``)."""
        return self._qualified_schema

    @property
    def local_names(self) -> Mapping[str, str]:
        """Source-qualified attribute name → local name (read-only)."""
        return self._local_names

    @property
    def id_attributes(self) -> tuple[str, ...]:
        return self._ids

    @property
    def non_id_attributes(self) -> tuple[str, ...]:
        return self._non_ids

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._ids + self._non_ids

    def notation(self) -> str:
        """Paper notation, e.g. ``w1({VoDmonitorId}, {lagRatio})``."""
        return self.schema.notation()

    # -- planning and versioning -----------------------------------------------

    def estimate_rows(self) -> int | None:
        """Estimated cardinality for planning (None = unknown).

        Estimates only steer join ordering and build-side selection —
        a wrong estimate can never make an answer wrong.
        """
        return None

    def data_version(self) -> "int | Unversioned":
        """Version token of the *data* behind the wrapper.

        Scan caches key fetched relations by ``(wrapper, bound object,
        data_version, columns)`` and keep them across releases, and the
        answer cache checks the tokens of every wrapper an answer read;
        a wrapper whose backing data can mutate in place must change
        this token so neither serves stale rows. The default is an
        :class:`~repro.relational.physical.Unversioned` token, equal to
        no other: a wrapper that does not override this is scanned
        afresh every time and its answers are never cached.
        """
        return Unversioned(f"{self.name}: no data_version")

    # -- change-data-capture protocol ------------------------------------------

    def delta_cursor(self) -> object:
        """Opaque position token for :meth:`fetch_deltas`.

        Distinct from :meth:`data_version` because version tokens need
        not be monotonic (REST wrappers hash theirs); the cursor is
        whatever the wrapper's change log sequences by. Read it before
        the rows it positions: a consumer resumes from it.
        """
        return self.data_version()

    def fetch_deltas(self, since: object) -> WrapperDeltas | None:
        """Row changes between cursor *since* and now, or ``None`` when
        the wrapper cannot reconstruct them exactly: no change log (the
        default), change log trimmed, cursor from another incarnation
        of the source. ``None`` is the one "no deltas" answer; a
        standing query then reseeds from full scans."""
        return None

    # -- data ----------------------------------------------------------------------

    def fetch_rows(self, columns: Sequence[str] | None = None) -> list[dict]:
        """The source's rows keyed by local attribute names (override).

        Each row holds at least *columns* (None = every attribute);
        other keys are ignored by :meth:`relation`, which always passes
        *columns* as a tuple. Returns a list: its length is the row
        count, also of a zero-column scan.
        """
        raise NotImplementedError

    def relation(self, qualified: bool = False,
                 columns: Sequence[str] | None = None) -> Relation:
        """The wrapper's relation, fetched once and pivoted to columns.

        *columns* restricts it to those *local* attribute names, kept
        in schema order (None = all); ``qualified=True`` names the
        columns source-qualified — the form walk execution consumes.
        Raises :class:`~repro.errors.SchemaError` for a name the
        wrapper does not declare, and
        :class:`~repro.errors.WrapperSchemaMismatchError` when a row
        misses a requested attribute (source drift under the wrapper).
        """
        schema = self._qualified_schema if qualified else self._schema
        names = self.attributes
        if columns is not None:
            unknown = [c for c in columns if c not in self._qualify_map]
            if unknown:
                raise SchemaError(
                    f"wrapper {self.name} has no attributes {unknown}")
            wanted = frozenset(columns)
            keep = [a in wanted for a in names]
            names = tuple(a for a, k in zip(names, keep) if k)
            schema = RelationSchema(schema.name, tuple(
                a for a, k in zip(schema.attributes, keep) if k),
                schema.source)
        rows = self.fetch_rows(columns=names)
        try:
            data = [list(map(itemgetter(a), rows)) for a in names]
        except KeyError:
            wanted = frozenset(names)
            row = next(r for r in rows if not wanted <= r.keys())
            raise WrapperSchemaMismatchError(
                f"wrapper {self.name} produced row with attributes "
                f"{sorted(row)}, requested {sorted(wanted)}; the source "
                "likely evolved under the wrapper — register a new "
                "release") from None
        return Relation.from_batch(
            ColumnBatch(schema, data, _length=len(rows)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.notation()}>"


class StaticWrapper(Wrapper):
    """A wrapper over mutable in-memory rows (tests, relationship tables).

    *projection* optionally renames raw keys to schema attributes, e.g.
    ``{"TargetApp": "appId"}`` projects raw field ``appId`` as attribute
    ``TargetApp``.

    Row mutations (:meth:`append_rows`, :meth:`update_rows`,
    :meth:`remove_rows`) bump ``data_version`` and feed a bounded change
    log, so the wrapper serves exact deltas; :meth:`replace_rows` is the
    wholesale swap — it truncates the log and delta readers resync with
    a full fetch.
    """

    #: bound on the change log; older cursors get no deltas (None)
    CHANGE_LOG_LIMIT = 4096

    def __init__(self, name: str, source_name: str,
                 id_attributes: Iterable[str],
                 non_id_attributes: Iterable[str],
                 rows: Iterable[Mapping[str, object]],
                 projection: Mapping[str, str] | None = None) -> None:
        super().__init__(name, source_name, id_attributes,
                         non_id_attributes)
        self._projection = dict(projection or {})
        self._rows = [dict(r) for r in rows]
        self._data_version = 0
        #: (seq, sign, raw row) triples; seq = data_version at mutation
        self._log: list[tuple[int, int, dict]] = []
        self._log_floor = 0

    def estimate_rows(self) -> int | None:
        return len(self._rows)

    def data_version(self) -> int:
        return self._data_version

    def fetch_rows(self, columns: Sequence[str] | None = None) -> list[dict]:
        # Copies, never the stored dicts: update_rows mutates those in
        # place, and a copy is one consistent snapshot of its row.
        rename = self._projection
        if rename:
            names = self.attributes if columns is None else columns
            return [{a: row.get(rename.get(a, a)) for a in names}
                    for row in self._rows]
        return [row.copy() for row in self._rows]

    def replace_rows(self, rows: Iterable[Mapping[str, object]]) -> None:
        """Swap the whole row set (no per-row change records).

        The log is truncated at the new version: delta readers whose
        cursor predates the swap get ``None`` and resync with a full
        fetch — a wholesale replacement rarely beats one.
        """
        self._rows = [dict(r) for r in rows]
        self._data_version += 1
        self._log.clear()
        self._log_floor = self._data_version

    # -- change-data-capture --------------------------------------------------

    def _record(self, sign: int, row: Mapping[str, object]) -> None:
        self._log.append((self._data_version, sign, dict(row)))
        while len(self._log) > self.CHANGE_LOG_LIMIT:
            seq, _, _ = self._log.pop(0)
            self._log_floor = seq

    def _project_row(self, row: Mapping[str, object]) -> dict:
        """One raw row keyed by schema attribute names (full width)."""
        rename = self._projection
        if rename:
            return {a: row.get(rename.get(a, a)) for a in self.attributes}
        try:
            return {a: row[a] for a in self.attributes}
        except KeyError as exc:
            raise WrapperSchemaMismatchError(
                f"wrapper {self.name} row is missing attribute "
                f"{exc.args[0]!r}; the source likely evolved under the "
                "wrapper — register a new release") from None

    def append_rows(self, rows: Iterable[Mapping[str, object]]) -> int:
        """Insert rows (raw keys, like the constructor's *rows*)."""
        added = [dict(r) for r in rows]
        if not added:
            return 0
        self._data_version += 1
        for row in added:
            self._rows.append(row)
            self._record(+1, row)
        return len(added)

    def update_rows(self, predicate: Callable[[Mapping[str, object]], bool],
                    updates: Mapping[str, object]) -> int:
        """Set raw fields on rows matching *predicate*; each changed
        row is logged as (−old, +new)."""
        updated = 0
        pending: list[tuple[dict, dict]] = []
        for row in self._rows:
            if not predicate(row):
                continue
            before = dict(row)
            row.update(updates)
            if row != before:
                pending.append((before, row))
        if pending:
            self._data_version += 1
            for before, after in pending:
                self._record(-1, before)
                self._record(+1, after)
            updated = len(pending)
        return updated

    def remove_rows(self, predicate: Callable[[Mapping[str, object]], bool]
                    ) -> int:
        """Delete rows matching *predicate* (raw keys)."""
        kept: list[dict] = []
        removed: list[dict] = []
        for row in self._rows:
            (removed if predicate(row) else kept).append(row)
        if not removed:
            return 0
        self._rows = kept
        self._data_version += 1
        for row in removed:
            self._record(-1, row)
        return len(removed)

    def delta_cursor(self) -> int:
        return self._data_version

    def fetch_deltas(self, since: object) -> "WrapperDeltas | None":
        if not isinstance(since, int) or isinstance(since, bool):
            return None
        if since > self._data_version or since < self._log_floor:
            return None
        # The log is in sequence order: start past the cursor.
        log = self._log
        first = bisect_right(log, since, key=itemgetter(0))
        changes = tuple((sign, self._project_row(row))
                        for _, sign, row in log[first:])
        return WrapperDeltas(changes, cursor=self._data_version,
                             data_version=self._data_version)
