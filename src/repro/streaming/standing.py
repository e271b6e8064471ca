"""Standing queries: materialized answers maintained by O(Δ) refresh.

A :class:`StandingQuery` owns everything needed to keep one rewritten
query's answer current without re-running it: the incremental state
tree (:mod:`repro.streaming.operators`), a per-wrapper CDC cursor, the
maintained result bag, and the materialized
:class:`~repro.relational.rows.Relation` consumers read.

Refresh protocol, per wrapper feeding the plan:

1. if the wrapper's ``data_version`` token still matches the one the
   state reflects, the feed contributes nothing (common case: most
   ticks touch few sources);
2. otherwise ask for **exact deltas** since the stored cursor
   (:meth:`~repro.wrappers.base.Wrapper.fetch_deltas`);
3. a ``None`` answer (no change log, cursor truncated out of it,
   payload regenerated wholesale) **reseeds** the query from full
   scans, with a reason that names the wrapper;
4. the **fallback valve**: when the total delta volume exceeds
   ``max(FALLBACK_MIN_DELTA_ROWS, FALLBACK_DELTA_FRACTION × leaf
   rows)`` the query reseeds too — at that churn rate propagating
   deltas costs more than recomputing, and reseeding also self-heals
   any state drift.

A seed reads each wrapper's cursor and version token *before* its rows
and the token again after them. The state is installed only when the
token held still across the scan; if it moved in each of
:data:`SEED_ATTEMPTS` tries the seed raises, because rows newer than
the cursor would be applied a second time by the next refresh.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from repro.errors import RelationalError, SchemaError, WrapperError
from repro.relational.physical import ScanProvider
from repro.relational.rows import Relation
from repro.relational.schema import RelationSchema
from repro.streaming.operators import (
    DeltaNode, RowTuple, ScanState, build_states,
)
from repro.wrappers.base import Wrapper

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.planner import PhysicalPlan

__all__ = ["StandingQuery", "RefreshOutcome",
           "FALLBACK_MIN_DELTA_ROWS", "FALLBACK_DELTA_FRACTION"]

#: Below this absolute delta volume the valve never triggers — tiny
#: states would otherwise reseed on every refresh.
FALLBACK_MIN_DELTA_ROWS = 256

#: Reseed when the delta volume exceeds this fraction of the leaf rows.
FALLBACK_DELTA_FRACTION = 0.5

#: Scans a seed tries per wrapper before giving up on a stable read.
SEED_ATTEMPTS = 3

#: How a standing query resolves wrapper names to live wrappers —
#: usually ``ontology.physical_wrapper``.
WrapperResolver = Callable[[str], Wrapper]


@dataclass(frozen=True)
class RefreshOutcome:
    """What one seed/refresh did, for cache accounting and telemetry."""

    relation: Relation
    #: evidence in the answer cache's format: sorted (wrapper, token)
    data_versions: tuple[tuple[str, object], ...]
    #: True when the state was rebuilt from full scans (otherwise O(Δ)
    #: maintenance served this refresh, no-ops included)
    reseeded: bool
    reason: str
    #: why the state was rebuilt, as a stable key for counters:
    #: ``seed``, ``no_deltas`` or ``delta_volume`` (empty unless
    #: *reseeded*); *reason* is the readable account
    cause: str = ""


class _ScanFeed:
    """One wrapper's CDC bookkeeping: cursor, version token, and the
    scan states (plan leaves) it feeds."""

    __slots__ = ("name", "states", "cursor", "version")

    def __init__(self, name: str) -> None:
        self.name = name
        self.states: list[ScanState] = []
        self.cursor: object = None
        self.version: object = None


class StandingQuery:
    """A maintained query result: seed once, then patch per refresh.

    Thread-safe: seed/refresh run under an internal lock; the
    materialized :attr:`relation` is replaced (never mutated), so
    readers holding an old snapshot — e.g. a paginating client — are
    unaffected by later refreshes.
    """

    def __init__(self, plan: "PhysicalPlan",
                 resolve: WrapperResolver) -> None:
        self.plan = plan
        self.resolve = resolve
        self.lock = threading.RLock()
        self.root: DeltaNode
        self._feeds: dict[str, _ScanFeed]  # guarded-by: lock
        self.result: Counter[RowTuple]  # guarded-by: lock
        self.relation: Relation
        self.seeded = False  # guarded-by: lock
        self._build()

    # -- construction --------------------------------------------------------

    # repro-lint: disable=guarded-by -- called from __init__ (sole
    # reference) and from _reseed, whose callers hold the lock.
    def _build(self) -> None:
        """(Re)create the state tree empty; feeds group leaves by
        wrapper so each source's delta is fetched once per refresh."""
        self.root, scan_states = build_states(self.plan.root)
        feeds: dict[str, _ScanFeed] = {}
        for state in scan_states:
            feed = feeds.get(state.wrapper_name)
            if feed is None:
                feed = _ScanFeed(state.wrapper_name)
                feeds[state.wrapper_name] = feed
            feed.states.append(state)
        self._feeds = feeds
        self.result = Counter()
        self.relation = self._materialize()

    # -- views ---------------------------------------------------------------

    def data_versions(self) -> tuple[tuple[str, object], ...]:
        """The evidence tuple the answer cache stores: which data state
        the maintained result reflects."""
        with self.lock:
            return tuple(sorted((feed.name, feed.version)
                                for feed in self._feeds.values()))

    # -- maintenance ---------------------------------------------------------

    def seed(self, provider: ScanProvider) -> RefreshOutcome:
        """Full scans through the (shared) provider → initial state."""
        with self.lock:
            return self._reseed(provider, "initial seed", "seed")

    def refresh(self, provider: ScanProvider) -> RefreshOutcome:
        """Bring the maintained result up to date: O(Δ) when the
        wrappers serve deltas, a reseed when one cannot or the valve
        trips."""
        with self.lock:
            if not self.seeded:
                return self._reseed(provider, "initial seed", "seed")

            pending: dict[ScanState, Counter[RowTuple]] = {}
            updates: dict[str, tuple[object, object]] = {}
            delta_rows = 0
            for feed in self._feeds.values():
                token = provider.data_version(feed.name)
                if token == feed.version:
                    continue
                wrapper = self.resolve(feed.name)
                deltas = wrapper.fetch_deltas(feed.cursor)
                if deltas is None:
                    return self._reseed(
                        provider, f"wrapper {feed.name} served no deltas",
                        "no_deltas")
                for state in feed.states:
                    gather = self._local_names(state, wrapper.local_names)
                    counts = pending.setdefault(state, Counter())
                    for sign, row in deltas.changes:
                        counts[tuple(row[name] for name in gather)] += sign
                    delta_rows += len(deltas.changes)
                updates[feed.name] = (deltas.cursor, deltas.data_version)

            if not updates:
                return RefreshOutcome(
                    self.relation, self.data_versions(), reseeded=False,
                    reason="no changes")

            threshold = max(FALLBACK_MIN_DELTA_ROWS, int(
                FALLBACK_DELTA_FRACTION * self.root.state_rows()))
            if delta_rows > threshold:
                return self._reseed(
                    provider, f"delta volume {delta_rows} exceeds "
                              f"threshold {threshold}", "delta_volume")

            changed = self._fold_result(self.root.apply(pending))
            for name, (cursor, version) in updates.items():
                feed = self._feeds[name]
                feed.cursor = cursor
                feed.version = version
            if changed:
                self.relation = self._materialize()
            return RefreshOutcome(
                self.relation, self.data_versions(), reseeded=False,
                reason="patched" if changed else "no-op delta")

    # -- internals -----------------------------------------------------------

    # repro-lint: disable=guarded-by -- sole callers are seed/refresh,
    # which hold the lock for the whole maintenance step.
    def _reseed(self, provider: ScanProvider, reason: str,
                cause: str) -> RefreshOutcome:
        self.seeded = False
        self._build()
        scan_deltas: dict[ScanState, Counter[RowTuple]] = {}
        for feed in self._feeds.values():
            wrapper = self.resolve(feed.name)
            # Stable read: the token must not move under the scan, or
            # the rows hold changes the cursor does not account for.
            for _attempt in range(SEED_ATTEMPTS):
                feed.cursor = wrapper.delta_cursor()
                feed.version = provider.data_version(feed.name)
                bags = [self._full_scan(provider, state)
                        for state in feed.states]
                if provider.data_version(feed.name) == feed.version:
                    break
            else:
                raise WrapperError(
                    f"wrapper {feed.name} changed during each of "
                    f"{SEED_ATTEMPTS} seed scans")
            scan_deltas.update(zip(feed.states, bags))
        self._fold_result(self.root.apply(scan_deltas))
        self.relation = self._materialize()
        self.seeded = True
        return RefreshOutcome(
            self.relation, self.data_versions(), reseeded=True,
            reason=reason, cause=cause)

    @staticmethod
    def _full_scan(provider: ScanProvider,
                   state: ScanState) -> Counter[RowTuple]:
        """A leaf's whole bag as an all-inserts delta (shares the scan
        cache with cold executions of the same plan)."""
        relation = provider.scan(state.wrapper_name, state.columns)
        batch = relation.columnar().reorder(state.schema.attribute_names)
        dense = batch.dense_columns()
        if not dense:  # zero-column schema: every row is ()
            return Counter({(): len(batch)})
        return Counter(zip(*dense))

    @staticmethod
    def _local_names(state: ScanState,
                     local_of: Mapping[str, str]) -> tuple[str, ...]:
        """Wrapper-local name of each tuple position of *state*."""
        try:
            return tuple(local_of[q]
                         for q in state.schema.attribute_names)
        except KeyError as exc:
            raise SchemaError(
                f"wrapper {state.wrapper_name} is missing attribute "
                f"{exc.args[0]!r}; the source likely evolved under the "
                "wrapper") from None

    # repro-lint: disable=guarded-by -- callers (refresh/_reseed) hold
    # the lock around the fold and the relation swap.
    def _fold_result(self, out: Counter[RowTuple]) -> bool:
        for row, count in out.items():
            updated = self.result[row] + count
            if updated:
                self.result[row] = updated
            else:
                del self.result[row]
        return bool(out)

    # repro-lint: disable=guarded-by -- called from __init__ via _build
    # (sole reference) and from maintenance steps that hold the lock.
    def _materialize(self) -> Relation:
        """The maintained bag as a Relation (same ``result`` schema as
        :meth:`~repro.query.planner.PhysicalPlan.execute`, so bag
        equality against a cold recompute holds structurally)."""
        schema = RelationSchema("result", self.root.schema.attributes)
        names = self.root.schema.attribute_names
        rows: list[dict[str, object]] = []
        for values, count in self.result.items():
            if count < 0:
                raise RelationalError(
                    f"maintained result holds {values!r} {count} times; "
                    "a retraction overshot its insert")
            row = dict(zip(names, values))
            if count == 1:
                rows.append(row)
            else:
                # duplicates share the dict — results are immutable by
                # convention, same as union-all branch adoption
                rows.extend([row] * count)
        return Relation.from_trusted(schema, rows)
