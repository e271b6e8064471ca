"""Physical execution layer: scans, shared-scan cache, pushdown-aware
operators.

The logical algebra (:mod:`repro.relational.algebra`) describes *what*
a UCQ computes — Π̃/⋈̃ trees whose :class:`~repro.relational.algebra.
Scan` leaves materialize whole wrapper relations. This module is the
*how*: operators an execution planner (:mod:`repro.query.planner`)
assembles into a plan that

* fetches only the columns a walk actually outputs (**projection
  pushdown** — the request travels through :class:`ScanProvider` down
  to the wrapper's ``fetch_rows``);
* fetches every ``(wrapper, columns)`` combination **once** per
  batch/union via a :class:`ScanCache` (single-flight, thread-safe,
  keyed by the bound wrapper object and its data version, so a scan
  survives every release that does not rebind or change its wrapper,
  and bounded in entries and rows by an LRU).

Operators exchange :class:`~repro.relational.columnar.ColumnBatch`
values and, inside fused pipeline segments, :class:`FusedBatch` gather
state, under source-qualified attribute names exactly like the logical
algebra. Rows materialize once, at the plan boundary. Naive logical
evaluation is the reference oracle: the equivalence suite holds every
plan against it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

from repro.errors import SchemaError
from repro.relational import accel
from repro.relational.algebra import DataProvider
from repro.relational.columnar import ColumnBatch, EncodedColumn, \
    concat_batches, first_occurrences
from repro.relational.metrics import active_collector
from repro.relational.rows import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.util.lru import LRU, LRUStats

__all__ = [
    "ScanKey", "ScanStats", "ScanCache",
    "ScanProvider", "WrapperScanProvider", "RelationScanProvider",
    "CachingScanProvider", "Unversioned", "as_scan_provider",
    "FusedBatch",
    "PhysicalOperator", "PhysicalScan", "PhysicalHashJoin",
    "PhysicalProject", "PhysicalUnion",
]


# ---------------------------------------------------------------------------
# Scan cache
# ---------------------------------------------------------------------------

#: scans one :class:`ScanCache` keeps (LRU entries), and the rows they
#: may hold together (each scan weighs its row count)
SCAN_CACHE_ENTRIES = 1024
SCAN_CACHE_ROWS = 1_000_000


class Unversioned:
    """The version token of a wrapper whose ``data_version`` probe raised.

    It equals no other token, not even the next one minted for the same
    wrapper, so nothing keyed on it is ever reused: a scan-cache key
    misses and an answer is neither cached nor patched. *reason* names
    the wrapper and the exception.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def __repr__(self) -> str:
        return f"<Unversioned {self.reason}>"


@dataclass(frozen=True)
class ScanKey:
    """Identity of one physical scan result.

    A scan's rows depend only on the object it reads, that object's
    data and the columns; never on ``T``. ``bound`` is the
    object itself (the bound wrapper, compared by identity), so a
    rebind under the same name is a different key. ``data_version``
    ties the entry to the state of the backing data (wrappers bump it
    when their source mutates in place), so a cache can survive across
    calls and releases without serving stale rows.
    """

    wrapper: str
    bound: object
    data_version: "int | Unversioned"
    columns: frozenset[str] | None


@dataclass
class ScanStats(LRUStats):
    """Counters of one :class:`ScanCache` (shared-scan observability)."""

    #: explicit :meth:`ScanCache.clear` calls that dropped entries
    invalidations: int = 0
    #: entries dropped because their wrapper's data_version moved on
    version_evictions: int = 0
    #: entries dropped because another object was bound under their
    #: wrapper's name (re-registration, snapshot restore, replay)
    rebind_evictions: int = 0
    #: version probes that raised, by reason (see :class:`Unversioned`)
    unversioned: dict[str, int] = field(default_factory=dict)
    #: cardinality estimates that raised, by reason (the planner then
    #: orders that wrapper as unknown)
    unestimated: dict[str, int] = field(default_factory=dict)


class _Inflight:
    """Single-flight slot: one thread fetches, the rest wait."""

    __slots__ = ("event", "relation", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.relation: Relation | None = None
        self.error: BaseException | None = None


class ScanCache:
    """Shared, thread-safe cache of materialized wrapper scans.

    Keys are :class:`ScanKey`; values are :class:`Relation` objects
    shared between all consumers — treat them as immutable. Concurrent
    requests for the same key are single-flighted: one thread fetches,
    the rest block on the result, while *distinct* keys fetch fully in
    parallel (wrapper I/O overlaps).

    No epoch invalidation: a release adds wrappers and never changes
    what an existing one reads, so its cached scans stay exact (the
    paper's old wrappers keep serving historical queries). A key holds
    the bound wrapper object and its data version; when either moves on
    under a wrapper's name, that name's superseded entries are evicted,
    so a long-running cache holds one generation per wrapper. Within
    it, the LRU keeps at most :data:`SCAN_CACHE_ENTRIES` scans and
    :data:`SCAN_CACHE_ROWS` rows; an in-flight scan weighs nothing
    until its rows land.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: LRU[ScanKey, _Inflight] = LRU(
            SCAN_CACHE_ENTRIES, SCAN_CACHE_ROWS)  # guarded-by: _lock
        #: wrapper name → (bound object, data_version) last seen
        self._versions: dict[str, tuple[object, int | Unversioned]] = \
            {}  # guarded-by: _lock
        self.stats = ScanStats()  # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for slot in self._entries.values()
                       if slot.event.is_set() and slot.error is None)

    def clear(self) -> int:
        """Drop every cached scan; returns how many were dropped."""
        with self._lock:
            dropped = self._entries.clear()
            self._versions.clear()
            if dropped:
                self.stats.invalidations += 1
            return dropped

    def note_failed_probe(self, probe: str, reason: str) -> None:
        """Count one probe that raised under *reason* in the
        ``unversioned`` or ``unestimated`` tally of :class:`ScanStats`."""
        with self._lock:
            self.stats.tally(probe, reason)

    def get_or_fetch(self, key: ScanKey,
                     fetch: Callable[[], Relation]) -> Relation:
        with self._lock:
            last = self._versions.get(key.wrapper)
            if last is not None and (last[0] is not key.bound
                                     or last[1] != key.data_version):
                stats = self.stats
                for k in [k for k, _ in self._entries.items()
                          if k.wrapper == key.wrapper
                          and (k.bound is not key.bound
                               or k.data_version != key.data_version)]:
                    self._entries.pop(k)
                    if k.bound is key.bound:
                        stats.version_evictions += 1
                    else:
                        stats.rebind_evictions += 1
            self._versions[key.wrapper] = (key.bound, key.data_version)
            slot = self._entries.get(key)
            if slot is None:
                slot = _Inflight()
                self.stats.lru_evictions += len(self._entries.put(key, slot))
                owner = True
                self.stats.misses += 1
            else:
                owner = False
                self.stats.hits += 1
        if owner:
            try:
                relation = slot.relation = fetch()
            except BaseException as exc:
                slot.error = exc
                with self._lock:
                    # Failed fetches are not cached; waiters re-raise.
                    if self._entries.peek(key) is slot:
                        self._entries.pop(key)
                slot.event.set()
                raise
            with self._lock:
                # The landed rows weigh in (unless the slot was dropped
                # while in flight).
                if self._entries.peek(key) is slot:
                    self.stats.lru_evictions += len(self._entries.put(
                        key, slot, len(relation)))
            slot.event.set()
            return relation
        slot.event.wait()
        if slot.error is not None:
            raise slot.error
        return slot.relation


# ---------------------------------------------------------------------------
# Scan providers
# ---------------------------------------------------------------------------


class ScanProvider:
    """Resolves physical scans (qualified columns) for plan execution."""

    def scan(self, name: str, columns: Sequence[str] | None = None
             ) -> Relation:
        """Materialize wrapper *name* restricted to *columns* (qualified
        attribute names, None = all)."""
        raise NotImplementedError

    def estimate(self, name: str) -> int | None:
        """Estimated cardinality of the wrapper (None = unknown). May
        raise when the probe fails; :class:`CachingScanProvider` counts
        that and answers None."""
        return None

    def data_version(self, name: str) -> "int | Unversioned":
        """Version token of the wrapper's backing data."""
        return 0

    def bound(self, name: str) -> object:
        """The object a scan of *name* reads, compared by identity in
        :class:`ScanKey`. By default the provider itself, so a cache
        shared between calls never mixes two providers' rows."""
        return self


class WrapperScanProvider(ScanProvider):
    """Scans served by bound physical wrappers (the production path).

    *resolve* maps a wrapper name to its :class:`~repro.wrappers.base.
    Wrapper` — usually ``ontology.physical_wrapper``. Qualified column
    names are translated to the wrapper's local names, which its
    ``fetch_rows`` can push into the source.
    """

    def __init__(self, resolve: Callable[[str], object]) -> None:
        self._resolve = resolve

    def scan(self, name: str, columns: Sequence[str] | None = None
             ) -> Relation:
        wrapper = self._resolve(name)
        local_columns = None
        if columns is not None:
            local = wrapper.local_names
            try:
                local_columns = [local[c] for c in columns]
            except KeyError as exc:
                raise SchemaError(
                    f"wrapper {name} is missing attribute {exc.args[0]!r}; "
                    "the source likely evolved under the wrapper"
                ) from None
        return wrapper.relation(qualified=True, columns=local_columns)

    def estimate(self, name: str) -> int | None:
        return self._resolve(name).estimate_rows()

    def data_version(self, name: str) -> "int | Unversioned":
        try:
            return self._resolve(name).data_version()
        except Exception as exc:
            # Fail closed: a broken probe must not read as "unchanged".
            return Unversioned(f"{name}: {type(exc).__name__}")

    def bound(self, name: str) -> object:
        return self._resolve(name)


class RelationScanProvider(ScanProvider):
    """Adapts a logical :data:`~repro.relational.algebra.DataProvider`
    (mapping or callable of *full* qualified relations) to the physical
    protocol: projection happens here, after the fetch.

    The pushdown-less fallback — used for explicitly supplied test
    providers, and the baseline the pushdown benchmarks compare against.
    """

    def __init__(self, provider: DataProvider) -> None:
        self._provider = provider

    def _resolve(self, name: str) -> Relation:
        provider = self._provider
        if callable(provider):
            return provider(name)
        try:
            return provider[name]
        except KeyError:
            raise SchemaError(f"no data for relation {name!r}") from None

    def scan(self, name: str, columns: Sequence[str] | None = None
             ) -> Relation:
        relation = self._resolve(name)
        if columns is None:
            return relation
        missing = [c for c in columns if c not in relation.schema]
        if missing:
            raise SchemaError(
                f"wrapper {name} is missing attributes {sorted(missing)}")
        wanted = frozenset(columns)
        names = [a for a in relation.schema.attribute_names if a in wanted]
        return Relation.from_batch(relation.columnar().reorder(names),
                                   relation.schema.name)

    def estimate(self, name: str) -> int | None:
        provider = self._provider
        if callable(provider):
            return None  # resolving would trigger a fetch
        try:
            return len(provider[name])
        except (KeyError, TypeError):
            return None


class CachingScanProvider(ScanProvider):
    """Wraps a provider with a :class:`ScanCache` (shared scans)."""

    def __init__(self, inner: ScanProvider, cache: ScanCache) -> None:
        self.inner = inner
        self.cache = cache

    def scan(self, name: str, columns: Sequence[str] | None = None
             ) -> Relation:
        key = ScanKey(
            wrapper=name,
            bound=self.inner.bound(name),
            data_version=self.data_version(name),
            columns=frozenset(columns) if columns is not None else None)
        return self.cache.get_or_fetch(
            key, lambda: self.inner.scan(name, columns))

    def estimate(self, name: str) -> int | None:
        try:
            return self.inner.estimate(name)
        except Exception as exc:
            # Estimates only steer join order, so an unknown one is
            # safe; the failure is counted, not hidden.
            self.cache.note_failed_probe(
                "unestimated", f"{name}: {type(exc).__name__}")
            return None

    def data_version(self, name: str) -> "int | Unversioned":
        token = self.inner.data_version(name)
        if isinstance(token, Unversioned):
            self.cache.note_failed_probe("unversioned", token.reason)
        return token

    def bound(self, name: str) -> object:
        return self.inner.bound(name)


def as_scan_provider(provider: "DataProvider | ScanProvider | None",
                     resolve_wrapper: Callable[[str], object]
                     | None = None) -> ScanProvider:
    """Coerce whatever the caller supplied into a :class:`ScanProvider`.

    ``None`` requires *resolve_wrapper* (the ontology's bound physical
    wrappers); an existing :class:`ScanProvider` passes through; plain
    mappings/callables get the :class:`RelationScanProvider` fallback.
    """
    if isinstance(provider, ScanProvider):
        return provider
    if provider is None:
        if resolve_wrapper is None:
            raise SchemaError(
                "no data provider given and no physical wrappers bound")
        return WrapperScanProvider(resolve_wrapper)
    return RelationScanProvider(provider)


# ---------------------------------------------------------------------------
# Fused pipelines
# ---------------------------------------------------------------------------


def _pick(lane: Any, picks: Any) -> Any:
    """*lane* gathered at *picks* (an int64 vector stays a vector)."""
    if accel.is_array(lane):
        return accel.take(lane, picks)
    if accel.is_array(picks):
        picks = picks.tolist()
    return list(map(lane.__getitem__, picks))


class FusedBatch:
    """The deferred result of a fused pipeline segment.

    Materializing one :class:`ColumnBatch` per operator would make
    every join gather *every* column of both sides even when the
    closing projection keeps three of them. A fused segment instead
    carries

    * ``leaves`` — the scan batches feeding the segment, untouched (so
      their relation-memoized column pivots and dictionary encodings
      stay shared across queries), and
    * ``indices`` — one gather list per leaf mapping each *output* row
      onto that leaf's stored rows (``None`` = identity over a dense
      leaf).

    Joins only compose the index lists; values are gathered exactly
    once, at the closing projection, and only for the columns it
    outputs. Pipeline breakers (join build, union dedup) remain — they
    are where a segment's indices are finally consumed.

    Column lookup is by qualified name, first leaf wins — the
    leftmost-match rule of a join's concatenated attributes
    (:meth:`PhysicalHashJoin.schema`).
    """

    __slots__ = ("leaves", "indices", "length")

    #: an index entry is ``None`` (identity), a Python int list, or —
    #: on the accelerated path — an int64 numpy vector; every consumer
    #: handles all three.
    def __init__(self, leaves: Sequence[ColumnBatch],
                 indices: Sequence[Any],
                 length: int) -> None:
        self.leaves = tuple(leaves)
        self.indices = tuple(indices)
        self.length = length

    @classmethod
    def from_batch(cls, batch: ColumnBatch) -> "FusedBatch":
        """Wrap a materialized batch as a single-leaf fused result."""
        if batch.selection is not None:
            return cls((batch,), (batch.selection,), len(batch))
        return cls((batch,), (None,), len(batch))

    def __len__(self) -> int:
        return self.length

    def locate(self, name: str) -> tuple[int, int]:
        """``(leaf, column)`` position of attribute *name*."""
        for leaf_pos, leaf in enumerate(self.leaves):
            names = leaf.schema.attribute_names
            if name in names:
                return leaf_pos, names.index(name)
        raise SchemaError(
            f"fused pipeline has no attribute {name!r}")

    def code_lane(self, leaf_pos: int, column: int
                  ) -> "tuple[EncodedColumn, Any] | None":
        """``(encoding, per-output-row codes)`` of one leaf column, or
        ``None`` when the column fell back to raw values. Codes come
        back as an int64 vector on the accelerated path, a Python list
        otherwise."""
        leaf = self.leaves[leaf_pos]
        encoded = leaf.encoded_at(column)
        if encoded is None:
            return None
        index = self.indices[leaf_pos]
        if accel.available():
            if index is None:
                return encoded, encoded.codes_vector()
            return encoded, accel.take(encoded.codes_vector(), index)
        if index is None:
            return encoded, encoded.codes
        return encoded, list(map(encoded.codes.__getitem__, index))

    def value_lane(self, leaf_pos: int, column: int) -> list[object]:
        """Per-output-row raw values of one leaf column (shared when
        the leaf is dense and untouched — treat as read-only)."""
        leaf = self.leaves[leaf_pos]
        data = leaf.columns[column]
        index = self.indices[leaf_pos]
        if index is None:
            return data
        if accel.is_array(index):
            index = index.tolist()
        return list(map(data.__getitem__, index))

    def compose(self, picks: Any) -> tuple[Any, ...]:
        """Every index list re-gathered through *picks* (output-row
        positions) — how a join threads its match list through both
        sides' existing gather state."""
        out: list[Any] = []
        use_accel = accel.available()
        for index in self.indices:
            if index is None:
                out.append(picks)  # aliases across leaves: read-only
            elif use_accel:
                out.append(accel.take(index, picks))
            else:
                out.append(list(map(index.__getitem__, picks)))
        return tuple(out)

    def project(self, mapping: Mapping[str, str],
                schema: RelationSchema,
                distinct: bool = False) -> ColumnBatch:
        """Materialize exactly the *mapping*'s columns under *schema*.

        This is where a fused segment's values finally move. Encoded
        leaf columns are gathered as int codes; the gathered codes are
        installed on the output batch so a downstream DISTINCT (or a
        union's global dedup over a single branch) reuses them. With
        ``distinct`` the first-occurrence keep list is computed *on the
        code lanes first* — packed into single ints when every output
        column is encoded — and only surviving rows gather values.

        Values are gathered from the leaf rows themselves, never decoded
        through the dictionary: a code stands for a class of ``==``-equal
        values (``1``, ``1.0`` and ``True`` share one), and each row
        keeps its own.
        """
        located = [self.locate(src) for src in mapping.values()]
        if not located:
            length = min(self.length, 1) if distinct else self.length
            return ColumnBatch(schema, (), _length=length)
        encodings: "list[EncodedColumn | None]" = []
        # Any-typed lanes: a lane holds either int codes or raw
        # values, and list invariance would otherwise reject the mix.
        lanes: list[list[Any]] = []
        for leaf_pos, column in located:
            coded = self.code_lane(leaf_pos, column)
            if coded is not None:
                encodings.append(coded[0])
                lanes.append(coded[1])
            else:
                encodings.append(None)
                lanes.append(self.value_lane(leaf_pos, column))
        keep = first_occurrences(lanes) if distinct else None
        if keep is not None:
            if accel.available():
                keep = accel.index_array(keep)  # one conversion, many picks
            lanes = [_pick(lane, keep) for lane in lanes]
        length = len(lanes[0])
        # Stored rows of each leaf behind the output rows (None = every
        # stored row, in order), composed with the keep list.
        rows_of: dict[int, Any] = {}
        columns: list[list[object]] = []
        for (leaf_pos, column), lane, encoded in zip(located, lanes,
                                                     encodings):
            if encoded is None:
                columns.append(lane)  # already the live raw values
                continue
            if leaf_pos not in rows_of:
                index = self.indices[leaf_pos]
                if keep is not None:
                    index = keep if index is None else _pick(index, keep)
                rows_of[leaf_pos] = (index.tolist()
                                     if accel.is_array(index) else index)
            data = self.leaves[leaf_pos].columns[column]
            rows = rows_of[leaf_pos]
            columns.append(data if rows is None
                           else list(map(data.__getitem__, rows)))
        batch = ColumnBatch(schema, columns, _length=length)
        for position, (lane, encoded) in enumerate(
                zip(lanes, encodings)):
            if encoded is not None:
                batch.install_encoding(position, EncodedColumn(
                    lane, encoded.values, encoded.index))
        return batch


# ---------------------------------------------------------------------------
# Physical operators
# ---------------------------------------------------------------------------


_ExecResult = TypeVar("_ExecResult", ColumnBatch, FusedBatch)


class PhysicalOperator:
    """Base class of physical plan nodes.

    Each operator implements one of two entry points. Scans and joins
    run :meth:`execute_fused`: their result is a :class:`FusedBatch`,
    gather state over the scan batches, and joins run on dictionary
    codes. Projections and unions run :meth:`execute_encoded`: the
    projection is where a fused segment finally gathers values into a
    :class:`~repro.relational.columnar.ColumnBatch`, and a union
    concatenates projected batches. So every plan is a union of
    projections (or one projection) over fused scan/join trees.

    The public ``execute*`` methods are thin instrumented wrappers:
    when the thread has an active
    :class:`~repro.relational.metrics.MetricsCollector`, each call
    records a :class:`~repro.relational.metrics.PlanMetrics` frame
    (rows out, wall time) around the ``_execute*`` implementation.
    Subclasses override the underscored implementation and call
    their *children's* public methods, never their own, so every node
    opens exactly one frame per execution.
    """

    def schema(self) -> RelationSchema:
        raise NotImplementedError

    # -- public entry points (metrics instrumentation) -----------------------

    def execute_encoded(self, provider: ScanProvider) -> ColumnBatch:
        """Materialize the node as a batch (projections and unions)."""
        return self._instrumented(self._execute_encoded, provider)

    def execute_fused(self, provider: ScanProvider) -> FusedBatch:
        """Execute as part of a fused pipeline segment (scans and
        joins): the result is gather state, not materialized columns."""
        return self._instrumented(self._execute_fused, provider)

    def _instrumented(self,
                      impl: "Callable[[ScanProvider], _ExecResult]",
                      provider: ScanProvider) -> _ExecResult:
        collector = active_collector()
        if collector is None:
            return impl(provider)
        kind, label, detail = self._metrics_entry()
        frame = collector.enter(kind, label, detail)
        try:
            result = impl(provider)
        except BaseException:
            collector.abort(frame)
            raise
        collector.exit(frame, len(result))
        return result

    def _metrics_entry(self) -> tuple[str, str, dict[str, object] | None]:
        """``(kind, label, detail)`` of this node's metrics frame."""
        name = type(self).__name__
        return (name.lower(), name, None)

    # -- implementations (each subclass overrides exactly one) ---------------

    def _execute_encoded(self, provider: ScanProvider) -> ColumnBatch:
        raise NotImplementedError(
            f"{type(self).__name__} executes only fused")

    def _execute_fused(self, provider: ScanProvider) -> FusedBatch:
        raise NotImplementedError(
            f"{type(self).__name__} executes only encoded")

    def explain_lines(self, indent: int = 0) -> list[str]:
        raise NotImplementedError

    def notation(self) -> str:
        return "\n".join(self.explain_lines())

    def __str__(self) -> str:
        return self.notation()


@dataclass
class PhysicalScan(PhysicalOperator):
    """A leaf scan with pushed-down projection.

    With ``dedup`` the scan keeps only the first occurrence of each
    fetched row. The planner sets it on scans below a join under
    DISTINCT, where δπ(R ⋈ S) = δπ(δπ′R ⋈ δπ″S) whenever π′ and π″
    keep the join keys — and a scan fetches exactly its join keys plus
    its outputs.
    """

    relation_schema: RelationSchema
    #: qualified column subset to fetch; None = all columns
    columns: tuple[str, ...] | None = None
    #: columns of the wrapper's full relation (for explain's "k/n")
    total_columns: int = 0
    #: filled by the planner: "(shared ×3)" etc.
    annotation: str = ""
    #: set semantics: drop duplicate fetched rows at the leaf
    dedup: bool = False

    @property
    def wrapper_name(self) -> str:
        return self.relation_schema.name

    def schema(self) -> RelationSchema:
        return self.relation_schema

    def _execute_fused(self, provider: ScanProvider) -> FusedBatch:
        # The row→batch boundary: the wrapper's relation pivots to
        # columns once and the pivot is memoized on the relation. No
        # reorder here: fused consumers resolve columns by name, so
        # the relation-memoized batch — and the dictionary encodings
        # memoized on it — stays the *same object* for every query
        # scanning this wrapper, instead of one rename wrapper each.
        # The dedup keep list is memoized on that same batch, so a scan
        # cache hit reuses it, and it composes with any selection.
        batch = provider.scan(self.wrapper_name, self.columns).columnar()
        fused = FusedBatch.from_batch(batch)
        if self.dedup:
            keep = batch.distinct_picks()
            if keep is not None:
                return FusedBatch(fused.leaves, fused.compose(keep),
                                  len(keep))
        return fused

    def _metrics_entry(self) -> tuple[str, str, dict[str, object] | None]:
        return ("scan", f"scan {self.wrapper_name}",
                {"wrapper": self.wrapper_name})

    def explain_lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        if self.columns is None:
            cols = f"cols=*/{self.total_columns or '?'}"
        else:
            pushed = (self.total_columns - len(self.columns)
                      if self.total_columns else 0)
            cols = (f"cols={len(self.columns)}/{self.total_columns}"
                    f" [pushed ↓{pushed}]")
        dedup = " dedup" if self.dedup else ""
        note = f" {self.annotation}" if self.annotation else ""
        return [f"{pad}scan {self.wrapper_name} {cols}{dedup}{note}"]


def _row_keys(lanes: Sequence[Any]) -> Iterable[object]:
    """Per-row join keys over parallel value *lanes* (a tuple per row
    for a multi-condition join)."""
    return lanes[0] if len(lanes) == 1 else zip(*lanes)


@dataclass
class PhysicalHashJoin(PhysicalOperator):
    """Hash equi-join with plan-time build-side choice.

    *conditions* pairs ``(build_attr, probe_attr)`` in qualified names.
    Both sides execute fused; the join never gathers a data column. It
    maps both sides' keys into one int code space
    (:meth:`_key_codes`), matches them with one kernel (:meth:`_match`)
    and composes the two match lists through the children's gather
    state.
    """

    build: PhysicalOperator
    probe: PhysicalOperator
    conditions: tuple[tuple[str, str], ...]
    #: estimated build-side cardinality (explain; None = unknown)
    build_estimate: int | None = None

    def schema(self) -> RelationSchema:
        b, p = self.build.schema(), self.probe.schema()
        return RelationSchema(
            f"({b.name}⋈̃{p.name})",
            tuple(b.attributes) + tuple(p.attributes), None)

    def _execute_fused(self, provider: ScanProvider) -> FusedBatch:
        build = self.build.execute_fused(provider)
        if not len(build):
            # Nothing can match, so the probe side never executes.
            # Single empty leaf under the *plan* schema: parents still
            # resolve every attribute by name, zero rows flow.
            return FusedBatch.from_batch(
                ColumnBatch.empty(self.schema()))
        probe = self.probe.execute_fused(provider)
        build_sel, probe_sel = self._match(*self._key_codes(build, probe))
        return FusedBatch(build.leaves + probe.leaves,
                          build.compose(build_sel)
                          + probe.compose(probe_sel),
                          len(build_sel))

    def _key_codes(self, build: FusedBatch, probe: FusedBatch
                   ) -> tuple[Any, Any, int]:
        """``(build codes, probe codes, code-space size)``: both sides'
        join keys as per-row ints in one code space, ``-1`` where a key
        cannot match.

        * A single condition whose key columns both encode (every
          hashable column does): the build codes as they are, and the
          probe dictionary remapped onto the build's
          (:meth:`EncodedColumn.remap_onto` — one hash per *distinct*
          value, remembered across queries over the same cached
          scans), so a probe row costs a list index.
        * Otherwise (a multi-condition join, or a key column that holds
          an unhashable value and so raises below) a dict numbers the
          build keys, a tuple per row for several conditions, and each
          probe key looks its number up.
        """
        build_at = [build.locate(b) for b, _ in self.conditions]
        probe_at = [probe.locate(p) for _, p in self.conditions]
        if len(self.conditions) == 1:
            build_coded = build.code_lane(*build_at[0])
            probe_coded = probe.code_lane(*probe_at[0])
            if build_coded is not None and probe_coded is not None:
                build_enc, build_codes = build_coded
                probe_enc, probe_codes = probe_coded
                translate = probe_enc.remap_onto(build_enc)
                if accel.available():
                    mapped = accel.translate_codes(translate, probe_codes)
                else:
                    mapped = list(map(translate.__getitem__, probe_codes))
                return build_codes, mapped, build_enc.cardinality
        numbering: dict[object, int] = {}
        number = numbering.setdefault
        build_codes = [number(key, len(numbering)) for key in
                       _row_keys([build.value_lane(*at)
                                  for at in build_at])]
        get = numbering.get
        probe_codes = [get(key, -1) for key in
                       _row_keys([probe.value_lane(*at)
                                  for at in probe_at])]
        return build_codes, probe_codes, len(numbering)

    @staticmethod
    def _match(build_codes: Any, probe_codes: Any,
               cardinality: int) -> tuple[Any, Any]:
        """``(build rows, probe rows)`` of every pair of equal codes in
        ``0 .. cardinality - 1``: probe-major, build rows ascending
        within a code. The numpy kernel emits the same order."""
        if accel.available():
            match = accel.csr_probe(build_codes, probe_codes, cardinality)
            return match if match is not None else ([], [])
        buckets: "list[list[int] | None]" = [None] * cardinality
        for i, code in enumerate(build_codes):
            if code >= 0:
                bucket = buckets[code]
                if bucket is None:
                    buckets[code] = [i]
                else:
                    bucket.append(i)
        build_sel: list[int] = []
        probe_sel: list[int] = []
        for j, code in enumerate(probe_codes):
            bucket = buckets[code] if code >= 0 else None
            if bucket is None:
                continue
            build_sel += bucket
            if len(bucket) == 1:
                probe_sel.append(j)
            else:
                probe_sel += [j] * len(bucket)
        return build_sel, probe_sel

    def _metrics_entry(self) -> tuple[str, str, dict[str, object] | None]:
        conds = ",".join(f"{b}={p}" for b, p in self.conditions)
        return ("join", f"⋈ₕ[{conds}]", {"conditions": conds})

    def explain_lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        conds = ",".join(f"{b}={p}" for b, p in self.conditions)
        est = (f" build≈{self.build_estimate}"
               if self.build_estimate is not None else "")
        lines = [f"{pad}⋈ₕ[{conds}]{est}"]
        lines.extend(self.build.explain_lines(indent + 1))
        lines.extend(self.probe.explain_lines(indent + 1))
        return lines


@dataclass
class PhysicalProject(PhysicalOperator):
    """The closing projection of one UCQ branch: rename qualified
    attributes onto feature column names (π of the paper's final step),
    gathering only the mapped columns from the child's fused segment.

    With ``distinct`` (the planner sets it on a branch that feeds a
    DISTINCT union) the branch deduplicates itself: first occurrences
    are computed on the code lanes *before* any value is gathered."""

    child: PhysicalOperator
    #: output column name → qualified input attribute
    mapping: dict[str, str] = field(default_factory=dict)
    #: keep only the first occurrence of each output row
    distinct: bool = False

    def schema(self) -> RelationSchema:
        child_schema = self.child.schema()
        attrs = tuple(
            Attribute(out_name, child_schema.attribute(in_name).is_id)
            for out_name, in_name in self.mapping.items())
        return RelationSchema(f"π({child_schema.name})", attrs, None)

    def _execute_encoded(self, provider: ScanProvider) -> ColumnBatch:
        return self.child.execute_fused(provider).project(
            self.mapping, self.schema(), distinct=self.distinct)

    def _metrics_entry(self) -> tuple[str, str, dict[str, object] | None]:
        return ("project", f"π[{len(self.mapping)} cols]", None)

    def explain_lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        cols = ",".join(f"{dst}←{src}" if src != dst else dst
                        for dst, src in self.mapping.items())
        return [f"{pad}π{{{cols}}}",
                *self.child.explain_lines(indent + 1)]


@dataclass
class PhysicalUnion(PhysicalOperator):
    """Union of schema-compatible projection branches; ``distinct``
    deduplicates during the single output pass. Branch scans hitting
    one :class:`ScanCache` fetch each shared wrapper once."""

    branches: tuple[PhysicalProject, ...]
    distinct: bool = True
    #: UCQ walks each branch stands for (explain only; empty = one
    #: each). The planner folds equivalent walks into one branch under
    #: DISTINCT.
    walks: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.branches:
            raise SchemaError("union requires at least one branch")
        first = set(self.branches[0].schema().attribute_names)
        for branch in self.branches[1:]:
            other = set(branch.schema().attribute_names)
            if other != first:
                raise SchemaError(
                    "union branches have incompatible schemas: "
                    f"{sorted(first)} vs {sorted(other)}")
        for branch in self.branches:
            if not isinstance(branch, PhysicalProject):
                raise SchemaError(
                    "union branches must be projections, got "
                    f"{type(branch).__name__}")

    def schema(self) -> RelationSchema:
        return self.branches[0].schema()

    def _execute_encoded(self, provider: ScanProvider) -> ColumnBatch:
        """Concatenate every branch's batch, then deduplicate globally
        under ``distinct``. Branches the planner marked ``distinct``
        already dropped their own duplicates on their code lanes, so
        the global pass runs over the shrunken concat — and not at all
        for a single such branch."""
        merged = concat_batches(
            self.schema(),
            [branch.execute_encoded(provider) for branch in self.branches])
        if not self.distinct or (len(self.branches) == 1
                                 and self.branches[0].distinct):
            return merged
        return merged.distinct()

    def _metrics_entry(self) -> tuple[str, str, dict[str, object] | None]:
        kind = "distinct" if self.distinct else "all"
        return ("union", f"∪ {kind}", None)

    def explain_lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        kind = "distinct" if self.distinct else "all"
        count = len(self.branches)
        walks = self.walks or (1,) * count
        folded = (f"; {sum(walks)} equivalent walks"
                  if sum(walks) > count else "")
        lines = [f"{pad}∪ {kind} [{count} branch"
                 f"{'es' if count != 1 else ''}{folded}]"]
        for branch, folds in zip(self.branches, walks):
            branch_lines = branch.explain_lines(indent + 1)
            if folds > 1:
                branch_lines[0] += f" [{folds} equivalent walks]"
            lines.extend(branch_lines)
        return lines
