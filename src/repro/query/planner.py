"""The physical query planner: rewritten UCQ → executable pushdown plan.

Sits between rewriting (Algorithms 2-5, which produce the *logical*
union of covering and minimal walks) and the wrapper layer. For every
walk the planner emits a tree of physical operators
(:mod:`repro.relational.physical`) with:

* **projection pushdown** — each scan requests only the qualified
  columns the branch actually outputs (final-projection sources plus
  join keys); everything else never leaves the source;
* **cardinality-aware join ordering** — wrappers join smallest-first
  (by :meth:`~repro.wrappers.base.Wrapper.estimate_rows` estimates),
  replacing the logical lowering's alphabetical left-deep order; the
  smaller side of every join becomes the hash-build side;
* **shared scans** — branches reading the same ``(wrapper, columns)``
  are annotated, and executing the plan through a
  :class:`~repro.relational.physical.ScanCache`-backed provider fetches
  each of them exactly once per batch;
* **set semantics** — under DISTINCT, walks that are one conjunctive
  query (same wrappers, same equality closure, same output mapping:
  :meth:`~repro.relational.walk.Walk.closure_key`) are planned once,
  and every scan below a join drops duplicate rows at the leaf, since
  δπ(R ⋈ S) = δπ(δπ′R ⋈ δπ″S) when π′ and π″ keep the join keys. The
  UCQ itself — and so the paper's walk counts — is untouched; bag
  plans (``distinct=False``) keep every walk and every row.

Plans are pure descriptions: :meth:`PhysicalPlan.execute` takes the
:class:`~repro.relational.physical.ScanProvider` to run against, so one
plan serves both the production path (bound wrappers, shared cache) and
explicitly supplied test providers. ``explain()`` renders the same
object that executes — the two can no longer diverge, and
``explain(analyze=True)`` appends the last run's observed per-operator
metrics.

Plans are a pure function of the rewriting and the wrapper estimates
they were planned with: execution records a
:class:`~repro.relational.metrics.PlanMetrics` tree for observability
only, never feeding it back into planning.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Callable

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
    from repro.query.ucq import UCQ

__all__ = ["PhysicalPlan", "new_collector", "plan_ucq", "plan_walk"]

#: Resolves a wrapper name to its estimated cardinality (None = unknown).
Estimator = Callable[[str], "int | None"]

def _order_key(estimate: "int | None", name: str) -> tuple:
    """Sort known-small first; unknown cardinalities last, by name."""
    return (estimate is None, estimate if estimate is not None else 0,
            name)


def new_collector() -> MetricsCollector:
    """A wall-clock collector for one :meth:`PhysicalPlan.execute`."""
    return MetricsCollector(time.perf_counter)


@dataclass
class PhysicalPlan:
    """One executable plan for one rewritten UCQ."""

    ucq: "UCQ"
    root: PhysicalOperator
    distinct: bool = True
    #: metrics tree of the most recent :meth:`execute` (None before
    #: the first run)
    last_metrics: "PlanMetrics | None" = dataclass_field(
        default=None, compare=False)

    def execute(self, provider: ScanProvider,
                collector: MetricsCollector | None = None) -> Relation:
        """Materialize the plan; output columns are feature names.

        The operator tree exchanges :class:`~repro.relational.columnar.
        ColumnBatch` objects, runs joins on dictionary codes and fuses
        pipeline segments into single gather passes. The answer is
        backed by the output batch (:meth:`Relation.from_batch
        <repro.relational.rows.Relation.from_batch>`): row dicts are
        built only if a caller reads rows.

        The run records a per-operator
        :class:`~repro.relational.metrics.PlanMetrics` tree into
        *collector* (a fresh wall-clock one when ``None``) and onto
        :attr:`last_metrics` (also on failure, with the aborted frame
        flagged) — the feed of ``explain(analyze=True)``. A cached plan
        is shared between threads, so :attr:`last_metrics` holds
        whichever run finished last; a caller that needs *this* run's
        tree passes its own collector and reads ``collector.root``.
        """
        if collector is None:
            collector = new_collector()
        try:
            with collecting(collector):
                # Present the output under a friendly relation name
                # instead of the internal plan-derived one (mirrors
                # UCQ.execute).
                return Relation.from_batch(
                    self.root.execute_encoded(provider), "result")
        finally:
            if collector.root is not None:
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
        lines = ["physical plan (projection pushdown, shared scans):"]
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
              distinct: bool = False) -> PhysicalProject:
    """Lower one walk into a physical branch.

    *mapping* is the branch's closing projection: output column name →
    qualified attribute (:meth:`UCQ.branch_mapping
    <repro.query.ucq.UCQ.branch_mapping>`). Only attributes reachable
    from it — plus join keys — are scanned. With *distinct* (the
    branch feeds a DISTINCT union) the closing projection drops its
    duplicate rows, and so does every scan below a join.
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
    # A lone scan fetches exactly the branch's output columns, so the
    # closing projection's dedup already drops its duplicates;
    # deduplicating at the leaf pays only below a join.
    dedup = distinct and len(walk.schemas) > 1

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
        return PhysicalScan(scan_schema, columns, total, dedup=dedup)

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
        # the build side, and the newcomer scan probes it.
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

    return PhysicalProject(tree, dict(mapping), distinct=distinct)


def plan_ucq(ontology: BDIOntology, ucq: "UCQ",
             provider: ScanProvider,
             distinct: bool = True) -> PhysicalPlan:
    """Plan the full union: one physical branch per walk — per class
    of equivalent walks when *distinct*.

    *provider* supplies cardinality estimates (plan-time only). The
    engine passes a :class:`~repro.relational.physical.
    CachingScanProvider`, which counts a failing estimate and reads it
    as unknown.
    """
    if not ucq.walks:
        raise UnanswerableQueryError(
            "no covering and minimal walk answers the query")

    # One estimate per wrapper per plan, however many walks read it.
    estimates: dict[str, "int | None"] = {}

    def estimate(name: str) -> "int | None":
        if name not in estimates:
            estimates[name] = provider.estimate(name)
        return estimates[name]

    # Under set semantics a walk equivalent to an earlier one adds no
    # row: plan the first walk of each class, in UCQ order. Bag
    # semantics needs every walk's duplicates, so each is its own key.
    branches: list[PhysicalProject] = []
    walks: list[int] = []
    position_of: dict[object, int] = {}
    for index, walk in enumerate(ucq.walks):
        mapping = ucq.branch_mapping(ontology, walk)
        key = ((walk.closure_key(), tuple(mapping.items()))
               if distinct else index)
        position = position_of.get(key)
        if position is not None:
            walks[position] += 1
            continue
        position_of[key] = len(branches)
        branches.append(plan_walk(walk, mapping, estimate, distinct))
        walks.append(1)
    root: PhysicalOperator
    if len(branches) == 1 and not distinct:
        root = branches[0]
    else:
        root = PhysicalUnion(tuple(branches), distinct=distinct,
                             walks=tuple(walks))
    plan = PhysicalPlan(ucq=ucq, root=root, distinct=distinct)

    # Annotate scans shared between branches: with a ScanCache-backed
    # provider these fetch once for the whole union.
    scans = plan.scans()
    counts = Counter((s.wrapper_name, s.columns) for s in scans)
    for scan in scans:
        copies = counts[(scan.wrapper_name, scan.columns)]
        if copies > 1:
            scan.annotation = f"(shared ×{copies})"
    return plan
