"""Incremental operator states mirroring a physical plan.

For every physical operator the planner emits
(:class:`~repro.relational.physical.PhysicalScan` /
:class:`~repro.relational.physical.PhysicalHashJoin` /
:class:`~repro.relational.physical.PhysicalProject` /
:class:`~repro.relational.physical.PhysicalUnion`) there is a *state*
node here that answers the incremental question: given a signed bag of
changes at the leaves, what is the delta of this operator's output?
The classic bilinear join rule does the heavy lifting::

    Δ(B ⋈ P) = ΔB ⋈ P_old  ∪  B_new ⋈ ΔP

processed sequentially (apply ΔB to the build index between the two
half-joins) so the cross term ``ΔB ⋈ ΔP`` is counted exactly once.
Join index maps — the same ``key → rows`` tables the hash join builds
per execution — are *kept alive* across refreshes, which is
precisely what makes a refresh O(Δ) instead of O(data).

All state lives in row-tuple space aligned with each node's plan
schema, and so do the deltas: a delta is a :class:`collections.Counter`
mapping a row tuple to the signed change of its multiplicity (positive
= insert, negative = retract; an update travels as a retraction and an
assertion). Every node returns its delta with the entries that
cancelled out dropped, so an empty ``Counter`` means "no change". The
maintained result is bag-equal to a cold recompute by construction
(distinct is support counting: a row enters the output when its
support rises from 0 and leaves when it falls back to 0).

Scan dedup under DISTINCT is deliberately *not* mirrored: scan states
pass the full (projected) wrapper bag's changes on, and the union's
support counts keep a tuple until its last supporting row is deleted.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from repro.errors import SchemaError
from repro.relational.physical import (
    PhysicalHashJoin, PhysicalOperator, PhysicalProject, PhysicalScan,
    PhysicalUnion,
)
from repro.relational.schema import RelationSchema

__all__ = [
    "RowTuple", "DeltaNode", "ScanState", "JoinState", "ProjectState",
    "UnionState", "build_states",
]

#: One row as a value tuple aligned with a schema's attribute order —
#: the hashable currency of multiplicity counters and join indexes.
RowTuple = tuple[object, ...]

#: Per-refresh leaf input: scan state → the delta of its wrapper bag.
#: Keyed by state identity (each plan leaf owns exactly one state).
ScanDeltas = Mapping["ScanState", Counter[RowTuple]]


def _drop_zeros(counts: Counter[RowTuple]) -> Counter[RowTuple]:
    """*counts* without the changes that cancelled out (in place)."""
    for row in [row for row, count in counts.items() if not count]:
        del counts[row]
    return counts


class DeltaNode:
    """Base class of incremental operator states."""

    schema: RelationSchema

    def apply(self, scan_deltas: ScanDeltas) -> Counter[RowTuple]:
        """Pull child deltas, fold them into this node's state, and
        return the delta of this node's output."""
        raise NotImplementedError

    def state_rows(self) -> int:
        """Total multiplicity held at this subtree's leaves — the
        "size of the data" the fallback valve compares deltas against."""
        raise NotImplementedError


class ScanState(DeltaNode):
    """Leaf: one wrapper scan's delta, passed through.

    Tuples follow the plan's qualified attribute order
    (``schema.attribute_names``); ``columns`` is the pushed-down
    projection the standing query re-requests when it must rescan.
    What the query needs of the rows lives above the leaf, in the join
    indexes and the result bag; the leaf keeps only the running size
    of the wrapper's bag, which the fallback valve reads.
    """

    def __init__(self, scan: PhysicalScan) -> None:
        self.schema = scan.schema()
        self.wrapper_name = scan.wrapper_name
        self.columns = scan.columns
        self._size = 0  # running Σ count of the wrapper's bag

    def apply(self, scan_deltas: ScanDeltas) -> Counter[RowTuple]:
        delta = scan_deltas.get(self)
        if not delta:
            return Counter()
        _drop_zeros(delta)
        self._size += sum(delta.values())
        return delta

    def state_rows(self) -> int:
        return self._size


class JoinState(DeltaNode):
    """Incremental hash equi-join with both index maps kept alive.

    ``build_index`` / ``probe_index`` map a join key to the bag of that
    side's rows carrying the key — the standing-query analogue of the
    table the hash join rebuilds from scratch every execution.
    Output tuples are ``build_tuple + probe_tuple``, matching
    :meth:`PhysicalHashJoin.schema`.
    """

    def __init__(self, op: PhysicalHashJoin, build: DeltaNode,
                 probe: DeltaNode) -> None:
        self.build = build
        self.probe = probe
        self.schema = op.schema()
        build_names = build.schema.attribute_names
        probe_names = probe.schema.attribute_names
        self._build_key = tuple(build_names.index(b)
                                for b, _ in op.conditions)
        self._probe_key = tuple(probe_names.index(p)
                                for _, p in op.conditions)
        self.build_index: dict[object, Counter[RowTuple]] = {}
        self.probe_index: dict[object, Counter[RowTuple]] = {}

    @staticmethod
    def _key(row: RowTuple, positions: tuple[int, ...]) -> object:
        if len(positions) == 1:
            return row[positions[0]]
        return tuple(row[i] for i in positions)

    @staticmethod
    def _fold(index: dict[object, Counter[RowTuple]], key: object,
              row: RowTuple, count: int) -> None:
        bucket = index.get(key)
        if bucket is None:
            bucket = Counter()
            index[key] = bucket
        updated = bucket[row] + count
        if updated:
            bucket[row] = updated
        else:
            del bucket[row]
            if not bucket:
                del index[key]

    def apply(self, scan_deltas: ScanDeltas) -> Counter[RowTuple]:
        d_build = self.build.apply(scan_deltas)
        d_probe = self.probe.apply(scan_deltas)
        out: Counter[RowTuple] = Counter()
        if not d_build and not d_probe:
            return out
        # ΔB ⋈ P_old, then fold ΔB into the build index...
        for row, count in d_build.items():
            bucket = self.probe_index.get(self._key(row, self._build_key))
            if bucket:
                for other, multiplicity in bucket.items():
                    out[row + other] += count * multiplicity
        for row, count in d_build.items():
            self._fold(self.build_index,
                       self._key(row, self._build_key), row, count)
        # ...so B_new ⋈ ΔP picks up the ΔB⋈ΔP cross term exactly once.
        for row, count in d_probe.items():
            bucket = self.build_index.get(self._key(row, self._probe_key))
            if bucket:
                for other, multiplicity in bucket.items():
                    out[other + row] += count * multiplicity
        for row, count in d_probe.items():
            self._fold(self.probe_index,
                       self._key(row, self._probe_key), row, count)
        return _drop_zeros(out)

    def state_rows(self) -> int:
        return self.build.state_rows() + self.probe.state_rows()


class ProjectState(DeltaNode):
    """Incremental projection: a position gather per changed row;
    multiplicities of rows that collapse together simply add."""

    def __init__(self, op: PhysicalProject, child: DeltaNode) -> None:
        self.child = child
        self.schema = op.schema()
        child_names = child.schema.attribute_names
        self._positions = tuple(child_names.index(src)
                                for src in op.mapping.values())

    def apply(self, scan_deltas: ScanDeltas) -> Counter[RowTuple]:
        counts: Counter[RowTuple] = Counter()
        for row, count in self.child.apply(scan_deltas).items():
            counts[tuple(row[i] for i in self._positions)] += count
        return _drop_zeros(counts)

    def state_rows(self) -> int:
        return self.child.state_rows()


class UnionState(DeltaNode):
    """Incremental union; ``distinct`` maintains a support counter and
    emits only the 0→positive (+1) and positive→0 (−1) transitions."""

    def __init__(self, op: PhysicalUnion,
                 branches: list[DeltaNode]) -> None:
        self.branches = branches
        self.schema = op.schema()
        self.distinct = op.distinct
        names = self.schema.attribute_names
        # Branch schemas are name-compatible but may order attributes
        # differently; align each branch's tuples to the union order.
        self._aligns: list[tuple[int, ...] | None] = []
        for branch in branches:
            branch_names = branch.schema.attribute_names
            self._aligns.append(
                None if branch_names == names
                else tuple(branch_names.index(n) for n in names))
        self.support: Counter[RowTuple] = Counter()

    def apply(self, scan_deltas: ScanDeltas) -> Counter[RowTuple]:
        merged: Counter[RowTuple] = Counter()
        for branch, align in zip(self.branches, self._aligns):
            for row, count in branch.apply(scan_deltas).items():
                if align is not None:
                    row = tuple(row[i] for i in align)
                merged[row] += count
        if not self.distinct:
            return _drop_zeros(merged)
        out: Counter[RowTuple] = Counter()
        for row, count in merged.items():
            old = self.support[row]
            new = old + count
            if new:
                self.support[row] = new
            else:
                del self.support[row]
            if new > 0 and old <= 0:
                out[row] = 1
            elif new <= 0 and old > 0:
                out[row] = -1
        return out

    def state_rows(self) -> int:
        return sum(branch.state_rows() for branch in self.branches)


def build_states(root: PhysicalOperator
                 ) -> tuple[DeltaNode, list[ScanState]]:
    """Lower a physical plan into its incremental state tree.

    Returns the root state plus every leaf :class:`ScanState` (the
    standing query groups leaves by wrapper to feed deltas in). Raises
    :class:`~repro.errors.SchemaError` for operators with no
    incremental form — the engine then falls back to recompute.
    """
    scans: list[ScanState] = []

    def lower(node: PhysicalOperator) -> DeltaNode:
        if isinstance(node, PhysicalScan):
            state = ScanState(node)
            scans.append(state)
            return state
        if isinstance(node, PhysicalHashJoin):
            return JoinState(node, lower(node.build), lower(node.probe))
        if isinstance(node, PhysicalProject):
            return ProjectState(node, lower(node.child))
        if isinstance(node, PhysicalUnion):
            return UnionState(node, [lower(b) for b in node.branches])
        raise SchemaError(
            f"operator {type(node).__name__} has no incremental form")

    return lower(root), scans
