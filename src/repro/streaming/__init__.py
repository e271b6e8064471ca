"""Incremental answer maintenance over CDC change streams.

Sources emit per-row change logs (:mod:`repro.sources`), wrappers
expose them as signed relational deltas
(:meth:`~repro.wrappers.base.Wrapper.fetch_deltas`), and this package
turns those deltas into O(Δ) refresh of materialized answers:
:mod:`~repro.streaming.operators` maintains each physical operator
incrementally, exchanging signed ``Counter`` bags of row tuples,
:class:`~repro.streaming.standing.StandingQuery` owns one maintained
result and reseeds it from full scans when a wrapper serves no deltas,
and :class:`~repro.streaming.drift_feed.CollectionDriftMonitor` feeds
the same change streams into drift detection so in-flight schema drift
auto-drafts releases for the steward.
"""

from repro.streaming.drift_feed import CollectionDriftMonitor, DriftDraft
from repro.streaming.operators import (
    DeltaNode, JoinState, ProjectState, RowTuple, ScanState, UnionState,
    build_states,
)
from repro.streaming.standing import (
    FALLBACK_DELTA_FRACTION, FALLBACK_MIN_DELTA_ROWS, RefreshOutcome,
    StandingQuery,
)

__all__ = [
    "RowTuple",
    "CollectionDriftMonitor", "DriftDraft",
    "DeltaNode", "JoinState", "ProjectState", "ScanState", "UnionState",
    "build_states",
    "FALLBACK_DELTA_FRACTION", "FALLBACK_MIN_DELTA_ROWS",
    "RefreshOutcome", "StandingQuery",
]
