"""Unions of conjunctive queries: the output of LAV rewriting (§2.3, §5).

A :class:`UCQ` bundles the final covering-and-minimal walks with the
requested features and lowers them onto an executable relational
expression: every walk becomes a branch, closed by a
:class:`~repro.relational.algebra.FinalProject` that maps source
attributes back to *feature* column names (so branches over different
schema versions — ``lagRatio`` vs ``bufferingRatio`` — align, which is
precisely how historical queries keep working after evolution).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ontology import BDIOntology
from repro.core.vocabulary import qualified_attribute_name, wrapper_uri
from repro.errors import RewritingError, UnanswerableQueryError
from repro.relational.algebra import (
    DataProvider, Expression, FinalProject, Union,
)
from repro.relational.rows import Relation
from repro.relational.walk import Walk
from repro.rdf.term import IRI

__all__ = ["UCQ"]


def _feature_columns(features: list[IRI]) -> dict[IRI, str]:
    """Assign readable, unique column names to the requested features."""
    columns: dict[IRI, str] = {}
    used: set[str] = set()
    for feature in features:
        base = feature.local_name
        name = base
        suffix = 2
        while name in used:
            name = f"{base}_{suffix}"
            suffix += 1
        used.add(name)
        columns[feature] = name
    return columns


@dataclass
class UCQ:
    """The union of conjunctive queries answering one OMQ."""

    features: list[IRI]
    walks: list[Walk]
    #: feature IRI → output column name
    columns: dict[IRI, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.columns:
            self.columns = _feature_columns(self.features)

    # -- lowering ------------------------------------------------------------

    def branch_mapping(self, ontology: BDIOntology,
                       walk: Walk) -> dict[str, str]:
        """The branch's closing projection: output column → qualified
        attribute of the walk providing the feature. Shared by the
        logical lowering and the physical planner, so both project the
        same attributes."""
        output_attrs = walk.output_attributes()
        mapping: dict[str, str] = {}
        for feature in self.features:
            column = self.columns[feature]
            attribute = self._attribute_in_walk(ontology, walk, feature,
                                                output_attrs)
            mapping[column] = attribute
        return mapping

    def branch_expression(self, ontology: BDIOntology,
                          walk: Walk) -> Expression:
        """One UCQ branch: the walk capped with the final projection."""
        return FinalProject(walk.to_expression(),
                            self.branch_mapping(ontology, walk))

    def _attribute_in_walk(self, ontology: BDIOntology, walk: Walk,
                           feature: IRI,
                           output_attrs: set[str]) -> str:
        for wrapper_name in sorted(walk.wrapper_names):
            attribute = ontology.attribute_providing(
                wrapper_uri(wrapper_name), feature)
            if attribute is None:
                continue
            qualified = qualified_attribute_name(attribute)
            if qualified in output_attrs:
                return qualified
        raise RewritingError(
            f"walk {walk.notation()} does not expose any attribute for "
            f"requested feature {feature}")

    def to_expression(self, ontology: BDIOntology,
                      distinct: bool = True) -> Expression:
        """The full union expression over all branches."""
        if not self.walks:
            raise UnanswerableQueryError(
                "no covering and minimal walk answers the query")
        branches = [self.branch_expression(ontology, walk)
                    for walk in self.walks]
        if len(branches) == 1 and not distinct:
            return branches[0]
        return Union(branches, distinct=distinct)

    # -- execution ---------------------------------------------------------------

    def execute(self, ontology: BDIOntology,
                provider: DataProvider | None = None,
                distinct: bool = True) -> Relation:
        """Evaluate the logical Π̃/⋈̃ tree naively; *provider* defaults
        to the bound wrappers.

        This is the reference oracle the equivalence suites and
        benchmarks compare against; planned execution goes through
        :class:`~repro.query.engine.QueryEngine`.
        """
        expression = self.to_expression(ontology, distinct)
        if provider is None:
            provider = ontology.data_provider
        raw = expression.evaluate(provider)
        # Present the output under a friendly relation name instead of
        # the internal expression-derived one.
        from repro.relational.schema import RelationSchema
        schema = RelationSchema("result", raw.schema.attributes)
        return Relation(schema, raw.rows)

    # -- display ---------------------------------------------------------------------

    def notation(self) -> str:
        if not self.walks:
            return "∅ (unanswerable)"
        return "\n  ∪ ".join(w.notation() for w in self.walks)

    def __len__(self) -> int:
        return len(self.walks)

    def __str__(self) -> str:
        return self.notation()
