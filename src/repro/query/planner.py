"""The physical query planner: rewritten UCQ → executable pushdown plan.

Sits between rewriting (Algorithms 2-5, which produce the *logical*
union of covering and minimal walks) and the wrapper layer. For every
walk the planner emits a tree of physical operators
(:mod:`repro.relational.physical`) with:

* **projection pushdown** — each scan requests only the qualified
  columns the branch actually outputs (final-projection sources plus
  join keys); everything else never leaves the source;
* **ID-filter / semi-join pushdown** — hash joins materialize their
  build side first and push its distinct key set into a probe-side
  scan, so high-fanout wrappers fetch only joinable rows;
* **cardinality-aware join ordering** — wrappers join smallest-first
  (by :meth:`~repro.wrappers.base.Wrapper.estimate_rows` estimates),
  replacing the logical lowering's alphabetical left-deep order; the
  smaller side of every join becomes the hash-build side;
* **shared scans** — branches reading the same ``(wrapper, columns)``
  are annotated, and executing the plan through a
  :class:`~repro.relational.physical.ScanCache`-backed provider fetches
  each of them exactly once per batch.

Plans are pure descriptions: :meth:`PhysicalPlan.execute` takes the
:class:`~repro.relational.physical.ScanProvider` to run against, so one
plan serves both the production path (bound wrappers, shared cache) and
explicitly supplied test providers. ``explain()`` renders the same
object that executes — the two can no longer diverge, and
``explain(analyze=True)`` appends the last run's observed per-operator
metrics.

**Adaptive feedback** (PR 10): every execution records a
:class:`~repro.relational.metrics.PlanMetrics` tree; a
:class:`CardinalityMemo` folds the *observed* scan cardinalities and
join selectivities back into planning, overriding ``estimate_rows``
guesses the next time the same shape plans — so a wrapper that
mis-estimates its size gets the right join order from the second run
on. The memo is bounded, invalidated at ontology-epoch boundaries like
every other cache, and switched off per engine by
``QueryEngine(adaptive=False)``.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.ontology import BDIOntology
from repro.errors import RewritingError, UnanswerableQueryError
from repro.relational.metrics import MetricsCollector, PlanMetrics, \
    collecting
from repro.relational.physical import (
    PhysicalHashJoin, PhysicalOperator, PhysicalProject, PhysicalScan,
    PhysicalUnion, ScanProvider,
)
from repro.relational.rows import Relation
from repro.relational.schema import RelationSchema
from repro.relational.walk import Walk

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ontology import OntologyFingerprint
    from repro.query.ucq import UCQ

__all__ = ["CardinalityMemo", "PhysicalPlan", "plan_ucq", "plan_walk"]

#: Resolves a wrapper name to its estimated cardinality (None = unknown).
Estimator = Callable[[str], "int | None"]

#: Refines a join's output estimate from its two input estimates
#: (conditions, build_estimate, probe_estimate) → rows or None.
JoinRefiner = Callable[
    ["tuple[tuple[str, str], ...]", "int | None", "int | None"],
    "int | None"]


class CardinalityMemo:
    """Observed-cardinality store feeding the planner (adaptive tier).

    Execution metrics flow in through :meth:`observe`; the next
    planning of the same shape reads them back out:

    * **scan cardinalities** — keyed ``(wrapper, data_version)`` so a
      data write naturally invalidates the observation; recorded only
      from *unfiltered* scans (a semi-join-filtered probe fetch says
      nothing about the wrapper's true size). They override the
      wrapper's ``estimate_rows`` guess via :meth:`estimator`.
    * **join selectivities** — keyed by the join's orientation-free
      condition signature; they refine the intermediate-size guesses
      the greedy orderer chains through multi-join walks
      (:meth:`join_estimate`). Selectivities observed under a pushed
      semi-join filter are biased low against unfiltered estimates —
      they steer ordering, never correctness.

    Bounded (first-observed evicts first), cleared at ontology-epoch
    boundaries like every other cache, and versioned: :attr:`version`
    advances whenever an observation changes what planning would see,
    so plan caches know their memoized plans went stale.
    """

    def __init__(self, capacity: int = 256) -> None:
        self._lock = threading.Lock()
        self._fingerprint: "OntologyFingerprint | None" = \
            None  # guarded-by: _lock
        #: (wrapper, data_version) → observed unfiltered scan rows
        self._scan_rows: dict[tuple[str, int], int] = \
            {}  # guarded-by: _lock
        #: canonical condition signature → rows_out / (build × probe)
        self._join_selectivity: dict[tuple[str, ...], float] = \
            {}  # guarded-by: _lock
        self.capacity = capacity
        self.version = 0  # guarded-by: _lock

    @staticmethod
    def _signature(conditions: "Iterable[tuple[str, str]]"
                   ) -> tuple[str, ...]:
        """Orientation-free identity of a join's condition set (build
        and probe sides swap between plans of the same walk)."""
        return tuple(sorted("=".join(sorted(pair))
                            for pair in conditions))

    def validate(self, fingerprint: "OntologyFingerprint") -> None:
        """Drop every observation if the ontology evolved since they
        were made (epoch invalidation, mirroring the scan cache)."""
        with self._lock:
            if self._fingerprint is not None \
                    and self._fingerprint != fingerprint \
                    and (self._scan_rows or self._join_selectivity):
                self._scan_rows.clear()
                self._join_selectivity.clear()
                self.version += 1
            self._fingerprint = fingerprint

    def observe(self, metrics: "PlanMetrics | None",
                data_version: Callable[[str], int]) -> bool:
        """Fold one execution's metrics tree into the memo.

        Returns True (and advances :attr:`version`) when anything
        planning-visible changed — the caller's cue to re-plan
        memoized shapes.
        """
        if metrics is None:
            return False
        changed = False
        with self._lock:
            for node in metrics.walk():
                if node.failed:
                    continue
                if node.kind == "scan" \
                        and not node.detail.get("filtered"):
                    wrapper = node.detail.get("wrapper")
                    if not isinstance(wrapper, str):
                        continue
                    key = (wrapper, data_version(wrapper))
                    if self._scan_rows.get(key) != node.rows_out:
                        stale = [k for k in self._scan_rows
                                 if k[0] == wrapper and k != key]
                        for k in stale:
                            del self._scan_rows[k]
                        self._scan_rows[key] = node.rows_out
                        changed = True
                elif node.kind == "join" and len(node.children) == 2:
                    raw = str(node.detail.get("conditions", ""))
                    pairs = [tuple(part.split("=", 1))
                             for part in raw.split(",")
                             if "=" in part]
                    build_rows = node.children[0].rows_out
                    probe_rows = node.children[1].rows_out
                    if not pairs or not build_rows or not probe_rows:
                        continue
                    signature = self._signature(pairs)  # type: ignore[arg-type]
                    selectivity = node.rows_out / (build_rows
                                                   * probe_rows)
                    if self._join_selectivity.get(signature) \
                            != selectivity:
                        self._join_selectivity[signature] = selectivity
                        changed = True
            while len(self._scan_rows) > self.capacity:
                del self._scan_rows[next(iter(self._scan_rows))]
            while len(self._join_selectivity) > self.capacity:
                del self._join_selectivity[
                    next(iter(self._join_selectivity))]
            if changed:
                self.version += 1
        return changed

    def scan_estimate(self, wrapper: str,
                      data_version: int) -> "int | None":
        with self._lock:
            return self._scan_rows.get((wrapper, data_version))

    def estimator(self, base: Estimator,
                  data_version: Callable[[str], int]) -> Estimator:
        """An estimator preferring observed cardinalities over *base*'s
        guesses (falling back wrapper-by-wrapper)."""
        def estimate(name: str) -> "int | None":
            observed = self.scan_estimate(name, data_version(name))
            if observed is not None:
                return observed
            return base(name)
        return estimate

    def join_estimate(self,
                      conditions: "tuple[tuple[str, str], ...]",
                      build_estimate: "int | None",
                      probe_estimate: "int | None") -> "int | None":
        """Refined join-output estimate from an observed selectivity,
        or None when the signature was never observed (or an input is
        unknown)."""
        if build_estimate is None or probe_estimate is None:
            return None
        with self._lock:
            selectivity = self._join_selectivity.get(
                self._signature(conditions))
        if selectivity is None:
            return None
        return round(selectivity * build_estimate * probe_estimate)

    def snapshot(self) -> dict[str, int]:
        """Observability counters for ``describe_service``."""
        with self._lock:
            return {"scan_observations": len(self._scan_rows),
                    "join_observations": len(self._join_selectivity),
                    "version": self.version}


def _order_key(estimate: "int | None", name: str) -> tuple:
    """Sort known-small first; unknown cardinalities last, by name."""
    return (estimate is None, estimate if estimate is not None else 0,
            name)


@dataclass
class PhysicalPlan:
    """One executable plan for one rewritten UCQ."""

    ucq: "UCQ"
    root: PhysicalOperator
    distinct: bool = True
    #: :attr:`CardinalityMemo.version` this plan was planned under —
    #: plan caches re-plan when the memo has since learned something
    memo_version: "int | None" = None
    #: metrics tree of the most recent :meth:`execute` (None before
    #: the first run, or when metrics were disabled for the run)
    last_metrics: "PlanMetrics | None" = dataclass_field(
        default=None, compare=False)

    def execute(self, provider: ScanProvider,
                collect_metrics: bool = True) -> Relation:
        """Materialize the plan; output columns are feature names.

        The operator tree exchanges :class:`~repro.relational.columnar.
        ColumnBatch` objects, runs joins on dictionary codes and fuses
        pipeline segments into single gather passes; rows are
        materialized exactly once, here at the plan boundary.

        Unless ``collect_metrics=False``, the run records a
        per-operator :class:`~repro.relational.metrics.PlanMetrics`
        tree onto :attr:`last_metrics` (also on failure, with the
        aborted frame flagged) — the feed of ``explain(analyze=True)``
        and the adaptive planner.
        """
        collector = (MetricsCollector(time.perf_counter)
                     if collect_metrics else None)
        try:
            # Even with metrics off, install the (None) collector: a
            # plan executing inside another instrumented execution
            # must not leak frames into the outer tree.
            with collecting(collector):
                # Present the output under a friendly relation name
                # instead of the internal plan-derived one (mirrors
                # UCQ.execute).
                batch = self.root.execute_encoded(provider)
                schema = RelationSchema("result",
                                        batch.schema.attributes)
                return Relation.from_trusted(schema, batch.to_rows())
        finally:
            if collector is not None and collector.root is not None:
                self.last_metrics = collector.root

    def wrappers(self) -> set[str]:
        return {scan.wrapper_name for scan in self.scans()}

    def scans(self) -> list[PhysicalScan]:
        out: list[PhysicalScan] = []

        def visit(node: PhysicalOperator) -> None:
            if isinstance(node, PhysicalScan):
                out.append(node)
            elif isinstance(node, PhysicalHashJoin):
                visit(node.build)
                visit(node.probe)
            elif isinstance(node, PhysicalProject):
                visit(node.child)
            elif isinstance(node, PhysicalUnion):
                for branch in node.branches:
                    visit(branch)

        visit(self.root)
        return out

    def explain(self, analyze: bool = False) -> str:
        """The plan as an indented operator tree with pushdown and
        scan-sharing annotations; ``analyze=True`` appends the last
        run's observed per-operator rows and wall-time."""
        lines = ["physical plan (projection pushdown, semi-join "
                 "pushdown, shared scans):"]
        lines.extend(self.root.explain_lines(1))
        if analyze:
            if self.last_metrics is None:
                lines.append("runtime metrics: not yet executed")
            else:
                lines.append("runtime metrics (last run):")
                lines.extend(self.last_metrics.lines(1))
        return "\n".join(lines)


def plan_walk(walk: Walk, mapping: dict[str, str],
              estimate: Estimator,
              refine: "JoinRefiner | None" = None) -> PhysicalOperator:
    """Lower one walk into a physical branch.

    *mapping* is the branch's closing projection: output column name →
    qualified attribute (:meth:`UCQ.branch_mapping
    <repro.query.ucq.UCQ.branch_mapping>`). Only attributes reachable
    from it — plus join keys — are scanned. *refine* (usually
    :meth:`CardinalityMemo.join_estimate`) sharpens the
    intermediate-size guesses chained through multi-join walks from
    observed selectivities.
    """
    if not walk.schemas:
        raise RewritingError("cannot lower an empty walk")
    if not walk.is_connected():
        raise RewritingError(
            f"walk over {sorted(walk.schemas)} is not connected by "
            "its join conditions")

    # --- projection pushdown: columns each wrapper must deliver --------
    needed: dict[str, set[str]] = {name: set() for name in walk.schemas}
    for condition in walk.joins:
        needed[condition.left_wrapper].add(condition.left_attribute)
        needed[condition.right_wrapper].add(condition.right_attribute)
    for attribute in mapping.values():
        for name, schema in walk.schemas.items():
            if attribute in schema:
                needed[name].add(attribute)
                break
        else:
            raise RewritingError(
                f"projection attribute {attribute!r} belongs to no "
                f"wrapper of walk {walk.notation()}")

    estimates = {name: estimate(name) for name in walk.schemas}

    def leaf(name: str) -> PhysicalScan:
        schema = walk.schemas[name]
        total = len(schema.attributes)
        wanted = needed[name]
        if len(wanted) >= total:
            columns = None  # full-width scan: maximal cache sharing
            scan_schema = schema
        else:
            attrs = tuple(a for a in schema.attributes
                          if a.name in wanted)
            columns = tuple(a.name for a in attrs)
            scan_schema = RelationSchema(schema.name, attrs,
                                         schema.source)
        return PhysicalScan(scan_schema, columns, total)

    order = sorted(walk.schemas)
    start = min(order, key=lambda n: _order_key(estimates[n], n))
    included = {start}
    tree: PhysicalOperator = leaf(start)
    tree_estimate = estimates[start]
    pending = set(walk.joins)

    while len(included) < len(walk.schemas):
        # Wrappers connected to the current tree by a pending condition.
        frontier = set()
        for condition in pending:
            inside_left = condition.left_wrapper in included
            inside_right = condition.right_wrapper in included
            if inside_left != inside_right:
                frontier.add(condition.right_wrapper if inside_left
                             else condition.left_wrapper)
        if not frontier:  # pragma: no cover - guarded by is_connected
            raise RewritingError("join graph became disconnected")
        newcomer = min(frontier,
                       key=lambda n: _order_key(estimates[n], n))

        # Every pending condition between the tree and the newcomer
        # applies at once (multi-attribute joins).
        tree_to_new: list[tuple[str, str]] = []
        used = []
        for condition in sorted(pending):
            if (condition.left_wrapper in included
                    and condition.right_wrapper == newcomer):
                tree_to_new.append((condition.left_attribute,
                                    condition.right_attribute))
                used.append(condition)
            elif (condition.right_wrapper in included
                    and condition.left_wrapper == newcomer):
                tree_to_new.append((condition.right_attribute,
                                    condition.left_attribute))
                used.append(condition)

        new_estimate = estimates[newcomer]
        # Build on the smaller side. Ties and unknowns keep the tree as
        # the build side, so the newcomer scan stays on the probe side
        # where the semi-join filter can be pushed into its fetch.
        tree_builds = not (
            new_estimate is not None
            and (tree_estimate is None or new_estimate < tree_estimate))
        if tree_builds:
            build, probe = tree, leaf(newcomer)
            conditions = tuple(tree_to_new)
            build_estimate = tree_estimate
        else:
            build, probe = leaf(newcomer), tree
            conditions = tuple((n, t) for t, n in tree_to_new)
            build_estimate = new_estimate
        tree = PhysicalHashJoin(build, probe, conditions,
                                build_estimate=build_estimate)
        included.add(newcomer)
        pending.difference_update(used)
        refined = (refine(conditions, tree_estimate, new_estimate)
                   if refine is not None else None)
        if refined is not None:
            tree_estimate = refined
        else:
            known = [e for e in (tree_estimate, new_estimate)
                     if e is not None]
            tree_estimate = min(known) if known else None

    # Conditions between wrappers already joined (cycles) are not
    # expected from the rewriting algorithm; mirror Walk.to_expression
    # and refuse rather than silently dropping them.
    if pending:
        raise RewritingError(
            f"redundant join conditions remain: "
            f"{[str(j) for j in sorted(pending)]}")

    return PhysicalProject(tree, dict(mapping))


def plan_ucq(ontology: BDIOntology, ucq: "UCQ",
             provider: ScanProvider | None = None,
             distinct: bool = True,
             memo: "CardinalityMemo | None" = None) -> PhysicalPlan:
    """Plan the full union: one physical branch per walk.

    *provider* supplies cardinality estimates (plan-time only); when
    omitted, bound physical wrappers are consulted directly. *memo*
    (the adaptive tier) overlays observed cardinalities over those
    estimates and stamps the plan with the memo version it saw, so
    plan caches can re-plan once execution teaches the memo better.
    """
    if not ucq.walks:
        raise UnanswerableQueryError(
            "no covering and minimal walk answers the query")

    if provider is not None:
        estimate: Estimator = provider.estimate
    else:
        def estimate(name: str) -> "int | None":
            if not ontology.has_physical_wrapper(name):
                return None
            try:
                return ontology.physical_wrapper(name).estimate_rows()
            except Exception:
                return None

    refine: "JoinRefiner | None" = None
    memo_version: "int | None" = None
    if memo is not None:
        def version_of(name: str) -> int:
            if provider is not None:
                return provider.data_version(name)
            try:
                return ontology.physical_wrapper(name).data_version()
            except Exception:
                return 0

        estimate = memo.estimator(estimate, version_of)
        refine = memo.join_estimate
        memo_version = memo.version

    branches = [
        plan_walk(walk, ucq.branch_mapping(ontology, walk), estimate,
                  refine)
        for walk in ucq.walks]
    root: PhysicalOperator
    if len(branches) == 1 and not distinct:
        root = branches[0]
    else:
        root = PhysicalUnion(tuple(branches), distinct=distinct)
    plan = PhysicalPlan(ucq=ucq, root=root, distinct=distinct,
                        memo_version=memo_version)

    # Annotate scans shared between branches: with a ScanCache-backed
    # provider these fetch once for the whole union.
    scans = plan.scans()
    counts = Counter((s.wrapper_name, s.columns) for s in scans)
    for scan in scans:
        copies = counts[(scan.wrapper_name, scan.columns)]
        if copies > 1:
            scan.annotation = f"(shared ×{copies})"
    return plan
