"""Walks over wrappers (§2.2): ``W = Π̃(w1) ⋈̃ ... ⋈̃ Π̃(wk)``.

A walk is a conjunctive query over wrappers: every wrapper contributes a
restricted projection of its attributes, and wrappers are pairwise
connected through restricted equi-joins on ID attributes. Two walks are
equivalent when they join the same wrappers with the same conditions,
regardless of join order — :meth:`Walk.equivalence_key` captures that.
Walks whose conditions equate the same attributes, even through
different spanning trees, are one conjunctive query —
:meth:`Walk.closure_key` captures that coarser equivalence.

The rewriting algorithm (Algorithms 4 and 5) manipulates walks abstractly
and only at the very end lowers them onto the relational algebra tree via
:meth:`Walk.to_expression`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RewritingError, SameSourceJoinError, SchemaError
from repro.relational.algebra import Expression, Join, Project, Scan
from repro.relational.schema import RelationSchema

__all__ = ["JoinCondition", "Walk"]


@dataclass(frozen=True, order=True)
class JoinCondition:
    """An equi-join condition between ID attributes of two wrappers."""

    left_wrapper: str
    left_attribute: str
    right_wrapper: str
    right_attribute: str

    def normalized(self) -> "JoinCondition":
        """Direction-insensitive canonical form (left ≤ right)."""
        if (self.left_wrapper, self.left_attribute) <= (
                self.right_wrapper, self.right_attribute):
            return self
        return JoinCondition(self.right_wrapper, self.right_attribute,
                             self.left_wrapper, self.left_attribute)

    def touches(self, wrapper: str) -> bool:
        return wrapper in (self.left_wrapper, self.right_wrapper)

    def __str__(self) -> str:
        return (f"{self.left_wrapper}.{self.left_attribute}="
                f"{self.right_wrapper}.{self.right_attribute}")


@dataclass
class Walk:
    """A (possibly partial) walk: wrapper schemas, projections, joins.

    ``projections[w]`` lists the *non-ID* attributes of ``w`` that the walk
    projects; ID attributes are always retained per the Π̃ semantics.
    """

    schemas: dict[str, RelationSchema] = field(default_factory=dict)
    projections: dict[str, set[str]] = field(default_factory=dict)
    joins: set[JoinCondition] = field(default_factory=set)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def single(cls, schema: RelationSchema,
               non_id_attributes: set[str] | None = None) -> "Walk":
        walk = cls()
        walk.schemas[schema.name] = schema
        selected = set(non_id_attributes or ())
        unknown = selected - set(schema.non_id_names)
        if unknown:
            raise SchemaError(
                f"projection of unknown/non-projectable attributes "
                f"{sorted(unknown)} on {schema.name}")
        walk.projections[schema.name] = selected
        return walk

    # -- inspection -------------------------------------------------------------

    @property
    def wrapper_names(self) -> frozenset[str]:
        """``wrappers(W)`` of the paper."""
        return frozenset(self.schemas)

    def sources(self) -> set[str]:
        return {s.source for s in self.schemas.values()
                if s.source is not None}

    def projected_attributes(self) -> set[str]:
        """All projected non-ID attributes across wrappers."""
        out: set[str] = set()
        for attrs in self.projections.values():
            out |= attrs
        return out

    def output_attributes(self) -> set[str]:
        """Attributes in the walk's output: projections plus all IDs."""
        out = self.projected_attributes()
        for schema in self.schemas.values():
            out |= set(schema.id_names)
        return out

    def equivalence_key(self) -> tuple:
        """Walks joining the same wrappers the same way are equivalent."""
        return (
            self.wrapper_names,
            frozenset(j.normalized() for j in self.joins),
        )

    def closure_key(self) -> tuple:
        """Walks over the same wrappers whose join conditions induce the
        same equality closure are one conjunctive query.

        Coarser than :meth:`equivalence_key`: on a star whose satellites
        all carry the hub's ID, every spanning tree of the ID joins
        (``H.id=S1.id, H.id=S2.id`` vs ``H.id=S1.id, S1.id=S2.id``)
        equates the same attributes, so all of them share one key. The
        key is the wrapper names plus the partition of
        ``(wrapper, attribute)`` the conditions induce (a union-find).
        """
        parent: dict[tuple[str, str], tuple[str, str]] = {}

        def find(node: tuple[str, str]) -> tuple[str, str]:
            while parent.setdefault(node, node) != node:
                node = parent[node]
            return node

        for join in self.joins:
            left = find((join.left_wrapper, join.left_attribute))
            right = find((join.right_wrapper, join.right_attribute))
            if left != right:
                parent[max(left, right)] = min(left, right)
        classes: dict[tuple[str, str], set[tuple[str, str]]] = {}
        for node in parent:
            classes.setdefault(find(node), set()).add(node)
        return (self.wrapper_names,
                frozenset(frozenset(c) for c in classes.values()))

    def __len__(self) -> int:
        return len(self.schemas)

    # -- building ------------------------------------------------------------------

    def _check_same_source(self, incoming: RelationSchema) -> None:
        if incoming.source is None:
            return
        for schema in self.schemas.values():
            if (schema.name != incoming.name
                    and schema.source == incoming.source):
                raise SameSourceJoinError(
                    f"wrappers {schema.name} and {incoming.name} belong to "
                    f"the same source {incoming.source}; schema versions of "
                    "one source must not be joined (paper §2.2)")

    def add_wrapper(self, schema: RelationSchema,
                    non_id_attributes: set[str] | None = None) -> None:
        """Add (or extend the projections of) one wrapper."""
        self._check_same_source(schema)
        selected = set(non_id_attributes or ())
        unknown = selected - set(schema.non_id_names)
        if unknown:
            raise SchemaError(
                f"projection of unknown/non-projectable attributes "
                f"{sorted(unknown)} on {schema.name}")
        if schema.name in self.schemas:
            self.projections[schema.name] |= selected
        else:
            self.schemas[schema.name] = schema
            self.projections[schema.name] = selected

    def add_join(self, condition: JoinCondition) -> None:
        """Register a join; both wrappers must already be in the walk."""
        for wrapper, attribute in (
                (condition.left_wrapper, condition.left_attribute),
                (condition.right_wrapper, condition.right_attribute)):
            schema = self.schemas.get(wrapper)
            if schema is None:
                raise RewritingError(
                    f"join references wrapper {wrapper} absent from walk")
            if not schema.attribute(attribute).is_id:
                raise RewritingError(
                    f"join on non-ID attribute {wrapper}.{attribute}")
        self.joins.add(condition.normalized())

    def merged_with(self, other: "Walk") -> "Walk":
        """MergeWalks of the paper: union of wrappers/projections/joins.

        Raises :class:`SameSourceJoinError` when the union would mix two
        schema versions of one source.
        """
        result = Walk()
        for schema in self.schemas.values():
            result.add_wrapper(schema, self.projections[schema.name])
        for schema in other.schemas.values():
            result.add_wrapper(schema, other.projections[schema.name])
        result.joins = {j.normalized() for j in self.joins | other.joins}
        return result

    def shares_wrapper_with(self, other: "Walk") -> bool:
        return bool(self.wrapper_names & other.wrapper_names)

    # -- connectivity & lowering -----------------------------------------------------

    def is_connected(self) -> bool:
        """True when the join graph spans all wrappers (or single wrapper)."""
        if len(self.schemas) <= 1:
            return True
        remaining = set(self.schemas)
        start = sorted(remaining)[0]
        reached = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for join in self.joins:
                if join.touches(node):
                    other = (join.right_wrapper
                             if join.left_wrapper == node
                             else join.left_wrapper)
                    if other not in reached:
                        reached.add(other)
                        frontier.append(other)
        return reached == remaining

    def to_expression(self) -> Expression:
        """Lower the walk onto a left-deep Π̃/⋈̃ expression tree."""
        if not self.schemas:
            raise RewritingError("cannot lower an empty walk")
        if not self.is_connected():
            raise RewritingError(
                f"walk over {sorted(self.schemas)} is not connected by "
                "its join conditions")

        def leaf(name: str) -> Expression:
            return Project(Scan(self.schemas[name]),
                           sorted(self.projections[name]))

        order = sorted(self.schemas)
        included = {order[0]}
        expression = leaf(order[0])
        pending = set(self.joins)

        while len(included) < len(self.schemas):
            # Find a wrapper connected to the current tree.
            progress = False
            for join in sorted(pending):
                inside_left = join.left_wrapper in included
                inside_right = join.right_wrapper in included
                if inside_left == inside_right:
                    continue  # either both inside (later) or both outside
                newcomer = (join.right_wrapper if inside_left
                            else join.left_wrapper)
                # Collect every pending condition between the tree and the
                # newcomer so multi-attribute joins apply at once.
                conditions: list[tuple[str, str]] = []
                used: list[JoinCondition] = []
                for candidate in sorted(pending):
                    if (candidate.left_wrapper in included
                            and candidate.right_wrapper == newcomer):
                        conditions.append((candidate.left_attribute,
                                           candidate.right_attribute))
                        used.append(candidate)
                    elif (candidate.right_wrapper in included
                            and candidate.left_wrapper == newcomer):
                        conditions.append((candidate.right_attribute,
                                           candidate.left_attribute))
                        used.append(candidate)
                expression = Join(expression, leaf(newcomer), conditions)
                included.add(newcomer)
                pending.difference_update(used)
                progress = True
                break
            if not progress:  # pragma: no cover - guarded by is_connected
                raise RewritingError("join graph became disconnected")

        # Conditions between wrappers already joined (cycles) are not
        # expected from the rewriting algorithm; encode them as errors so
        # silent cartesian blowups cannot pass unnoticed.
        if pending:
            raise RewritingError(
                f"redundant join conditions remain: "
                f"{[str(j) for j in sorted(pending)]}")
        return expression

    # -- display -------------------------------------------------------------------------

    def notation(self) -> str:
        parts = []
        for name in sorted(self.schemas):
            attrs = ",".join(sorted(self.projections[name])) or "∅"
            parts.append(f"Π̃{{{attrs}}}({name})")
        joins = ", ".join(str(j) for j in sorted(self.joins))
        text = " ⋈̃ ".join(parts)
        return f"{text} [{joins}]" if joins else text

    def __str__(self) -> str:
        return self.notation()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Walk {self.notation()}>"
