"""The three-phase query rewriting algorithm (paper §5.2).

Given an OMQ over G, produce the union of all covering and minimal walks
over the wrappers:

1. :func:`~repro.query.well_formed.well_formed_query` (Algorithm 2);
2. :func:`~repro.query.expansion.query_expansion` (Algorithm 3);
3. :func:`~repro.query.intra_concept.intra_concept_generation`
   (Algorithm 4);
4. :func:`~repro.query.inter_concept.inter_concept_generation`
   (Algorithm 5);
5. final filter: keep covering & minimal walks (problem statement §2.3)
   and drop equivalent duplicates.

The :class:`RewritingResult` exposes every intermediate artifact so the
evaluation harness (and curious users) can inspect each phase.

``rewrite(..., extend=(base, wrappers))`` is the same pipeline run after
releases that only *added* wrappers (paper §4: under LAV a release never
edits an existing mapping). For a single-concept query the walks of the
old wrappers, and their coverage and minimality, cannot change, so
phase 2 runs for the added wrappers only, the filter checks only their
walks, and every list is merged in the order a cold rewrite emits it.
The result records the rewriting it extends and the wrappers it added,
so the answer cache can extend the base's answer the same way.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.ontology import BDIOntology
from repro.core.vocabulary import wrapper_uri
from repro.query.coverage import is_covering, is_minimal
from repro.query.expansion import query_expansion
from repro.query.intra_concept import ConceptWalks, intra_concept_generation
from repro.query.inter_concept import inter_concept_generation
from repro.query.omq import OMQ, parse_omq
from repro.query.ucq import UCQ
from repro.query.well_formed import well_formed_query
from repro.rdf.term import IRI
from repro.relational.walk import Walk

__all__ = ["RewritingResult", "rewrite"]


@dataclass
class RewritingResult:
    """All artifacts of one rewriting run."""

    original: OMQ
    well_formed: OMQ
    concepts: list[IRI]
    expanded: OMQ
    partial_walks: list[ConceptWalks]
    walks: list[Walk]
    #: walks produced by phase 3 but rejected by the §2.3 filter
    rejected: list[Walk] = field(default_factory=list)
    #: the rewriting this one extends (``rewrite(..., extend=)``), held
    #: weakly so a chain of extensions keeps no older rewriting alive
    extends: "weakref.ref[RewritingResult] | None" = field(
        default=None, repr=False, compare=False)
    #: the wrappers the extension added to :attr:`extends`
    added: tuple[str, ...] = field(default=(), compare=False)

    def extension_of(self, other: "RewritingResult | None") -> bool:
        """True when this rewriting extends *other* itself."""
        return (other is not None and self.extends is not None
                and self.extends() is other)

    @property
    def ucq(self) -> UCQ:
        return UCQ(features=list(self.well_formed.pi),
                   walks=list(self.walks))

    def report(self) -> str:
        """Human-readable account of the three phases."""
        lines = [
            f"OMQ: π = {[str(p) for p in self.well_formed.pi]}",
            f"     φ = {len(self.well_formed.phi)} triples",
            f"phase 1: concepts = {[c.local_name for c in self.concepts]}"
            f", expanded φ = {len(self.expanded.phi)} triples",
            "phase 2 (partial walks per concept):",
        ]
        for cw in self.partial_walks:
            lines.append(f"  {cw.concept.local_name}:")
            for walk in cw.walks:
                lines.append(f"    {walk.notation()}")
        lines.append(f"phase 3: {len(self.walks)} covering & minimal "
                     f"walk(s), {len(self.rejected)} rejected")
        for walk in self.walks:
            lines.append(f"  {walk.notation()}")
        if self.rejected:
            lines.append("rejected (not covering and minimal):")
            for walk in self.rejected:
                lines.append(f"  {walk.notation()}")
        return "\n".join(lines)


def rewrite(ontology: BDIOntology, query: OMQ | str,
            prefixes: dict[str, str] | None = None, *,
            extend: "tuple[RewritingResult, Iterable[str]] | None" = None,
            ) -> RewritingResult:
    """Run the rewriting pipeline over *query*.

    With *extend* = ``(base, wrappers)``, *base* is the rewriting of the
    same query computed before releases that only added the named
    *wrappers* (:attr:`~repro.core.ontology.EvolutionEvent.wrapper`),
    and must span a single concept. The result equals a cold rewrite's,
    walk by walk and in order, but only the added wrappers' walks are
    generated and filtered.
    """
    original = parse_omq(query, prefixes) if isinstance(query, str) \
        else query
    if extend is not None:
        return _extended(ontology, original, *extend)

    well_formed = well_formed_query(ontology, original)
    concepts, expanded = query_expansion(ontology, well_formed)
    partial = intra_concept_generation(ontology, concepts, expanded)
    candidates = inter_concept_generation(ontology, partial, expanded)

    accepted: list[Walk] = []
    rejected: list[Walk] = []
    for walk in candidates:
        if is_covering(ontology, walk, well_formed) and is_minimal(
                ontology, walk, well_formed):
            accepted.append(walk)
        else:
            rejected.append(walk)

    accepted.sort(key=lambda w: sorted(w.wrapper_names))
    return RewritingResult(
        original=original,
        well_formed=well_formed,
        concepts=concepts,
        expanded=expanded,
        partial_walks=partial,
        walks=accepted,
        rejected=rejected,
    )


def _wrapper_order(walk: Walk) -> IRI:
    """The key a single-concept walk is emitted by: its wrapper's URI
    (phase 2 visits providing wrappers in URI order)."""
    (name,) = walk.wrapper_names
    return wrapper_uri(name)


def _extended(ontology: BDIOntology, original: OMQ, base: RewritingResult,
              wrappers: Iterable[str]) -> RewritingResult:
    """*base* plus the walks over *wrappers*, in cold-rewrite order.

    Phases 1 and 3 read only G and the query, which an additive release
    leaves alone, and a single concept's partial walks are its
    candidates, so phase 2 and the filter run for the added wrappers
    only. Each candidate holds one wrapper; merging by wrapper URI (the
    phase-2 order) and by wrapper names (the accepted-walk order)
    therefore reproduces a cold rewrite's lists exactly.
    """
    if len(base.concepts) != 1:
        raise ValueError("only a single-concept rewriting can be extended")
    names = tuple(wrappers)
    added = frozenset(wrapper_uri(name) for name in names)
    (fresh,) = intra_concept_generation(ontology, base.concepts,
                                        base.expanded, wrappers=added,
                                        known=base.partial_walks)
    accepted = list(base.walks)
    rejected = list(base.rejected)
    for walk in fresh.walks:
        if is_covering(ontology, walk, base.well_formed) and is_minimal(
                ontology, walk, base.well_formed):
            accepted.append(walk)
        else:
            rejected.append(walk)
    accepted.sort(key=lambda w: sorted(w.wrapper_names))
    rejected.sort(key=_wrapper_order)
    (old,) = base.partial_walks
    partial = ConceptWalks(old.concept, sorted(
        old.walks + fresh.walks, key=_wrapper_order), old.features)
    return RewritingResult(
        original=original,
        well_formed=base.well_formed,
        concepts=list(base.concepts),
        expanded=base.expanded,
        partial_walks=[partial],
        walks=accepted,
        rejected=rejected,
        extends=weakref.ref(base),
        added=names,
    )
