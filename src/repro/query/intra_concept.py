"""Algorithm 4 — phase #2 of query rewriting: intra-concept generation.

For each query concept, produce the list of *partial walks*: one per
wrapper that provides **all** features requested for that concept. The
steps follow the paper's numbering:

3. identify queried features (a SPARQL lookup over ``Q'G.φ``);
4. unfold LAV mappings (``GRAPH ?g { ⟨c, G:hasFeature, f⟩ }`` over T);
5. find the providing attribute in S (``owl:sameAs`` + ``S:hasAttribute``);
6. prune wrappers that do not cover every requested feature of the
   concept — this prune is what keeps the phase linear in the number of
   wrappers (no combinations *within* a concept, §5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterator, Sequence

from repro.core.ontology import BDIOntology
from repro.core.vocabulary import qualified_attribute_name
from repro.query.omq import OMQ
from repro.rdf.sparql import parse_sparql, select
from repro.rdf.term import IRI
from repro.relational.walk import Walk

__all__ = ["ConceptWalks", "intra_concept_generation"]

# Step 3's lookup over the query pattern, parsed once at import.
_REQUESTED_FEATURES = parse_sparql(
    "SELECT ?f WHERE { ?concept G:hasFeature ?f }")


@dataclass
class ConceptWalks:
    """Partial walks of one concept (``⟨c, lw⟩`` in Algorithm 5)."""

    concept: IRI
    walks: list[Walk]
    #: the concept's features the query requests (step 3's lookup)
    features: frozenset[IRI] = frozenset()

    def __iter__(self) -> Iterator[Walk]:
        return iter(self.walks)

    def __len__(self) -> int:
        return len(self.walks)


def intra_concept_generation(ontology: BDIOntology, concepts: list[IRI],
                             expanded: OMQ,
                             wrappers: Collection[IRI] | None = None,
                             known: Sequence[ConceptWalks] = (),
                             ) -> list[ConceptWalks]:
    """Phase #2: the list of partial walks per concept.

    *wrappers* restricts the phase to those wrappers (by URI): the
    partial walks of the others are left out, as when a cached
    rewriting is extended by the wrappers additive releases added.
    *known* holds an earlier run's partial walks over the same
    *expanded* query; their requested features are reused instead of
    looked up again.
    """
    partial_walks: list[ConceptWalks] = []
    requested = {walks.concept: walks.features for walks in known}

    for concept in concepts:
        # Step 3 (line 6): features requested for this concept, looked up
        # in the *query pattern* graph Q'G.φ.
        features = requested.get(concept)
        if features is None:
            features = frozenset(
                IRI(str(row["f"]))
                for row in select(expanded.phi, _REQUESTED_FEATURES,
                                  entailment=False,
                                  bindings={"concept": concept}))
        if not features:
            # A concept with no requested features and no ID cannot anchor
            # any partial walk; phase 3 will report unanswerability if the
            # query still needs it.
            partial_walks.append(ConceptWalks(concept, []))
            continue

        # Steps 4-5 (lines 7-13): per feature, find providing wrappers and
        # their attributes; accumulate requested attributes per wrapper.
        requested_per_wrapper: dict[IRI, set[IRI]] = {}
        for feature in sorted(features):
            for wrapper in ontology.wrappers_providing(concept, feature):
                if wrappers is not None and wrapper not in wrappers:
                    continue
                attribute = ontology.attribute_providing(wrapper, feature)
                if attribute is None:
                    continue
                requested_per_wrapper.setdefault(wrapper, set()).add(
                    attribute)

        # Step 6 (lines 14-23): merge projections per wrapper and keep only
        # wrappers providing *all* requested features of the concept.
        walks: list[Walk] = []
        for wrapper in sorted(requested_per_wrapper):
            attributes = requested_per_wrapper[wrapper]
            features_in_walk = set()
            for attribute in attributes:
                feature = ontology.feature_of_attribute(attribute)
                if feature is not None:
                    features_in_walk.add(IRI(str(feature)))
            if features_in_walk != features:
                continue  # pruned
            schema = ontology.wrapper_relation_schema(wrapper)
            qualified = {qualified_attribute_name(a) for a in attributes}
            non_ids = {q for q in qualified
                       if not schema.attribute(q).is_id}
            walk = Walk.single(schema, non_ids)
            walks.append(walk)
        partial_walks.append(ConceptWalks(concept, walks, features))

    return partial_walks
