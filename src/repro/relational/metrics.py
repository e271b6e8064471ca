"""Runtime plan metrics: per-operator rows and wall-time.

Every physical operator (:mod:`repro.relational.physical`) wraps its
execution in the thread's active :class:`MetricsCollector`, producing a
:class:`PlanMetrics` tree that mirrors the plan shape — one node per
operator with rows-in (sum of the children's outputs), rows-out, and
elapsed seconds. It is observability only — planning never reads it.
The tree feeds two consumers:

* ``PhysicalPlan.explain(analyze=True)`` renders it inline with the
  plan notation;
* :func:`repro.mdm.analyst.describe_service` / ``GET /v1/describe``
  surface the last run's scan timings so a fleet operator can spot a
  slow wrapper without a profiler.

Determinism note: this module is import-reachable from the streaming
replay path, so it never reads a clock itself — the party that starts a
collection (the planner, which is *not* replay-reachable) injects one.
Replayed streaming work simply runs with no active collector, making
metrics a strict no-op there.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = ["PlanMetrics", "MetricsCollector", "active_collector",
           "collecting", "scan_timings"]


@dataclass
class PlanMetrics:
    """One operator's observed behaviour in one plan execution.

    ``children`` mirror the plan tree (build before probe, branches in
    order), so the tree can be rendered alongside ``explain`` output or
    walked for per-wrapper aggregates.
    """

    kind: str
    label: str
    rows_out: int = 0
    seconds: float = 0.0
    detail: dict[str, object] = field(default_factory=dict)
    children: list["PlanMetrics"] = field(default_factory=list)
    failed: bool = False

    @property
    def rows_in(self) -> int:
        """Input cardinality: the children's combined output (a leaf
        consumes what it produces)."""
        if not self.children:
            return self.rows_out
        return sum(child.rows_out for child in self.children)

    def walk(self) -> Iterator["PlanMetrics"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def snapshot(self) -> dict[str, object]:
        """JSON-ready nested dict (the gateway/describe payload)."""
        node: dict[str, object] = {
            "operator": self.label,
            "kind": self.kind,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "seconds": round(self.seconds, 6),
        }
        if self.detail:
            node["detail"] = dict(self.detail)
        if self.failed:
            node["failed"] = True
        if self.children:
            node["children"] = [c.snapshot() for c in self.children]
        return node

    def lines(self, indent: int = 0) -> list[str]:
        """Indented text rendering for ``explain(analyze=True)``."""
        pad = "  " * indent
        ms = self.seconds * 1000.0
        status = " FAILED" if self.failed else ""
        out = [f"{pad}{self.label}  rows={self.rows_out} "
               f"(in {self.rows_in})  {ms:.2f} ms{status}"]
        for child in self.children:
            out.extend(child.lines(indent + 1))
        return out

    def notation(self) -> str:
        return "\n".join(self.lines())


class MetricsCollector:
    """Builds one :class:`PlanMetrics` tree while a plan executes.

    A collector belongs to one plan execution on one thread (operators
    find it through the thread-local :func:`active_collector`). The
    *clock* is injected — ``time.perf_counter`` where timing matters,
    a constant where determinism does (see the module docstring).
    Each operator opens exactly one frame per execution, so the tree
    is one node per plan operator.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._stack: list[PlanMetrics] = []
        self._starts: list[float] = []
        #: completed root of the collection (None until the outermost
        #: frame exits)
        self.root: PlanMetrics | None = None

    def enter(self, kind: str, label: str,
              detail: dict[str, object] | None = None) -> PlanMetrics:
        """Open a frame as a child of the innermost open one."""
        node = PlanMetrics(kind=kind, label=label,
                           detail=detail if detail is not None else {})
        if self._stack:
            self._stack[-1].children.append(node)
        self._stack.append(node)
        self._starts.append(self._clock())
        return node

    def exit(self, frame: PlanMetrics, rows_out: int) -> None:
        self._stack.pop()
        frame.seconds = self._clock() - self._starts.pop()
        frame.rows_out = rows_out
        if not self._stack:
            self.root = frame

    def abort(self, frame: PlanMetrics) -> None:
        """Close a frame whose execution raised; the partial node stays
        in the tree, flagged, so a failed run still explains itself."""
        self._stack.pop()
        frame.seconds = self._clock() - self._starts.pop()
        frame.failed = True
        if not self._stack:
            self.root = frame


_ACTIVE = threading.local()


def active_collector() -> MetricsCollector | None:
    """The collector of the current thread's in-flight plan, if any."""
    return getattr(_ACTIVE, "collector", None)


@contextmanager
def collecting(collector: MetricsCollector | None,
               ) -> Iterator[MetricsCollector | None]:
    """Install *collector* as the thread's active one for the block.

    ``None`` disables collection for the block (used to shield nested
    executions from an outer collection). The previous collector is
    restored on exit, so collections nest correctly.
    """
    previous = active_collector()
    _ACTIVE.collector = collector
    try:
        yield collector
    finally:
        _ACTIVE.collector = previous


def scan_timings(root: PlanMetrics | None
                 ) -> dict[str, dict[str, float]]:
    """Per-wrapper scan aggregates of one metrics tree.

    The describe surface: ``{wrapper: {scans, rows, seconds}}`` —
    enough to rank wrappers by observed scan cost.
    The counter slots hold ints at runtime; ``float`` is the
    common static type.
    """
    out: dict[str, dict[str, float]] = {}
    if root is None:
        return out
    for node in root.walk():
        if node.kind != "scan":
            continue
        wrapper = str(node.detail.get("wrapper", node.label))
        entry = out.setdefault(wrapper, {
            "scans": 0, "rows": 0, "seconds": 0.0})
        entry["scans"] = int(entry["scans"]) + 1
        entry["rows"] = int(entry["rows"]) + node.rows_out
        entry["seconds"] = round(
            float(entry["seconds"]) + node.seconds, 6)
    return out
