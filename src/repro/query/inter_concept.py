"""Algorithm 5 — phase #3 of query rewriting: inter-concept generation.

Joins the per-concept partial walks into walks covering the whole query:

7. compute the cartesian product of the current walks and the next
   concept's partial walks;
8. merge each pair (``MergeWalks``) — when the two sides share a wrapper
   the join is already materialized by it;
9. otherwise discover the wrappers providing the φ-edge between the two
   concepts (``GRAPH ?g { ⟨current.c, ?x, next.c⟩ }``);
10. discover the join attributes through the ID feature and emit the
    ``⋈̃`` condition.

Generalizations over the paper's pseudo-code (see DESIGN.md):

* the join feature is ``ID(head)`` of the edge, falling back to
  ``ID(tail)`` for event-like concepts without identifiers (exactly what
  the running example needs for ``InfoMonitor``);
* an edge-providing wrapper absent from both sides is added as a *bridge*
  and joined to the tail side through ``ID(tail)``;
* concepts are visited in a connected order (each new concept shares a
  φ-edge with an already-processed one), which also covers tree-shaped
  patterns;
* the same-source constraint (§2.2) is enforced on every merge; violating
  candidates are dropped.
"""

from __future__ import annotations

from itertools import product

from repro.core.ontology import BDIOntology
from repro.core.vocabulary import (
    qualified_attribute_name, wrapper_local_name, wrapper_uri,
)
from repro.errors import SameSourceJoinError, UnanswerableQueryError
from repro.query.intra_concept import ConceptWalks
from repro.query.omq import OMQ
from repro.rdf.term import IRI
from repro.relational.walk import JoinCondition, Walk

__all__ = ["inter_concept_generation"]


def _concept_edges(expanded: OMQ,
                   concepts: list[IRI]) -> list[tuple[IRI, IRI]]:
    """Concept→concept edges of φ (object properties, not hasFeature)."""
    concept_set = set(concepts)
    edges = []
    for t in expanded.phi:
        if t.s in concept_set and t.o in concept_set:
            edges.append((IRI(str(t.s)), IRI(str(t.o))))
    return sorted(set(edges))


def _connected_order(partial: list[ConceptWalks],
                     edges: list[tuple[IRI, IRI]]) -> list[ConceptWalks]:
    """Reorder concepts so each one touches an already-visited concept."""
    if len(partial) <= 1:
        return list(partial)
    by_concept = {cw.concept: cw for cw in partial}
    neighbours: dict[IRI, set[IRI]] = {c: set() for c in by_concept}
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    order = [partial[0]]
    visited = {partial[0].concept}
    remaining = [cw.concept for cw in partial[1:]]
    while remaining:
        pick = None
        for concept in remaining:
            if neighbours[concept] & visited:
                pick = concept
                break
        if pick is None:  # disconnected concept components
            raise UnanswerableQueryError(
                "the query pattern does not connect concepts "
                f"{[str(c) for c in remaining]} to the rest of the query")
        remaining.remove(pick)
        visited.add(pick)
        order.append(by_concept[pick])
    return order


def _attribute_of(ontology: BDIOntology, wrapper_name: str,
                  feature: IRI) -> str | None:
    """The qualified attribute of *wrapper_name* mapped to *feature*."""
    attr = ontology.attribute_providing(wrapper_uri(wrapper_name), feature)
    return qualified_attribute_name(attr) if attr is not None else None


def _holders_in(ontology: BDIOntology, walk: Walk,
                feature: IRI) -> list[tuple[str, str]]:
    """Wrappers of *walk* having an attribute mapped to *feature*."""
    out = []
    for name in sorted(walk.wrapper_names):
        attr = _attribute_of(ontology, name, feature)
        if attr is not None:
            out.append((name, attr))
    return out


def _discover_edge(ontology: BDIOntology, left: Walk, right: Walk,
                   tail: IRI, head: IRI) -> list[tuple[list[str],
                                                       list[JoinCondition]]]:
    """All realizations of the φ-edge ``tail→head`` between two walks.

    Returns ``(bridge wrappers to add, join conditions)`` alternatives.
    """
    providers = [wrapper_local_name(w)
                 for w in ontology.edge_providers(tail, head)]
    if not providers:
        return []

    head_ids = ontology.id_features_of(head)
    tail_ids = ontology.id_features_of(tail)
    if head_ids:
        join_feature = head_ids[0]
        fallback_used = False
    elif tail_ids:
        join_feature = tail_ids[0]  # event-style concept without an ID
        fallback_used = True
    else:
        return []

    provider_set = set(providers)
    holders_left = _holders_in(ontology, left, join_feature)
    holders_right = _holders_in(ontology, right, join_feature)

    alternatives: list[tuple[list[str], list[JoinCondition]]] = []

    # (i) both sides hold the join feature; the edge is justified when one
    # endpoint of the join is an edge-providing wrapper (Alg. 5 ln 13-17).
    for l_name, l_attr in holders_left:
        for r_name, r_attr in holders_right:
            if l_name == r_name:
                continue
            if l_name not in provider_set and r_name not in provider_set:
                continue
            alternatives.append(
                ([], [JoinCondition(l_name, l_attr, r_name, r_attr)]))

    # (ii) bridge: an edge provider outside both walks supplies the join
    # feature and is anchored to the tail side through ID(tail). Only
    # attempted when no direct realization exists — the paper's algorithm
    # never adds wrappers beyond the partial walks, and unconditional
    # bridging would generate non-minimal walks by the thousands in the
    # worst case.
    if not alternatives and not fallback_used and tail_ids:
        anchor_feature = tail_ids[0]
        in_walks = left.wrapper_names | right.wrapper_names
        for bridge in sorted(provider_set - in_walks):
            bridge_join_attr = _attribute_of(ontology, bridge, join_feature)
            bridge_anchor_attr = _attribute_of(ontology, bridge,
                                               anchor_feature)
            if bridge_join_attr is None or bridge_anchor_attr is None:
                continue
            for r_name, r_attr in holders_right:
                for l_name, l_attr in _holders_in(ontology, left,
                                                  anchor_feature):
                    alternatives.append((
                        [bridge],
                        [JoinCondition(l_name, l_attr,
                                       bridge, bridge_anchor_attr),
                         JoinCondition(bridge, bridge_join_attr,
                                       r_name, r_attr)],
                    ))
    return alternatives


def inter_concept_generation(ontology: BDIOntology,
                             partial_walks: list[ConceptWalks],
                             expanded: OMQ) -> list[Walk]:
    """Phase #3: join partial walks into full walks over the query."""
    if not partial_walks:
        return []
    concepts = [cw.concept for cw in partial_walks]
    edges = _concept_edges(expanded, concepts)
    ordered = _connected_order(partial_walks, edges)

    current = list(ordered[0].walks)
    processed = {ordered[0].concept}

    for nxt in ordered[1:]:
        connecting = [(a, b) for a, b in edges
                      if (a in processed and b == nxt.concept)
                      or (b in processed and a == nxt.concept)]
        joined: list[Walk] = []
        for left, right in product(current, nxt.walks):  # step 7
            # Step 8: shared wrapper — the join is materialized inside it.
            if left.shares_wrapper_with(right):
                try:
                    joined.append(left.merged_with(right))
                except SameSourceJoinError:
                    pass
                continue

            # Steps 9-10: discover a realization for every connecting edge.
            per_edge: list[list[tuple[list[str], list[JoinCondition]]]] = []
            for a, b in connecting:
                realizations = _discover_edge(ontology, left, right, a, b)
                per_edge.append(realizations)
            if not per_edge or any(not r for r in per_edge):
                continue  # this pair cannot be joined

            for combination in product(*per_edge):
                try:
                    merged = left.merged_with(right)
                    for bridges, conditions in combination:
                        for bridge in bridges:
                            merged.add_wrapper(
                                ontology.wrapper_relation_schema(bridge),
                                set())
                        for condition in conditions:
                            merged.add_join(condition)
                except SameSourceJoinError:
                    continue
                joined.append(merged)

        current = _dedupe(joined)
        processed.add(nxt.concept)
        if not current:
            break

    return current


def _dedupe(walks: list[Walk]) -> list[Walk]:
    """Drop equivalent walks (same wrappers, same joins; §2.2)."""
    seen: set[tuple] = set()
    out: list[Walk] = []
    for walk in walks:
        key = walk.equivalence_key()
        if key not in seen:
            seen.add(key)
            out.append(walk)
        else:
            # Keep the union of projections on the representative so no
            # requested attribute is lost by deduplication.
            for kept in out:
                if kept.equivalence_key() == key:
                    for name, attrs in walk.projections.items():
                        kept.projections.setdefault(name, set()).update(
                            attrs)
                    break
    return out
