"""Releases and Algorithm 1 ("Adapt to Release", paper §4).

A release ``R = ⟨w, G, F⟩`` announces a new wrapper (i.e. a new schema
version of a data source):

* ``w`` — the wrapper, as a relation ``w(aID, anID)``;
* ``G`` — the subgraph of the Global graph the wrapper contributes to;
* ``F`` — a function mapping each wrapper attribute to a feature vertex
  of ``G`` (``F : a ↦ V(G)``).

:func:`new_release` applies Algorithm 1 literally: it registers the data
source (if new), the wrapper, the attributes (reusing same-source
attributes across versions), stores the LAV named graph and serializes
``F`` as ``owl:sameAs`` triples. The algorithm is linear in the size of
``R`` and idempotent on the graphs (re-applying the same release adds no
triple — the graphs are sets); each application does record one
evolution event, so release-aware caches re-derive rewritings over the
release's concepts. When the release is purely additive, the event names
the wrapper it added: a cached single-concept rewriting is extended by
that wrapper's walks instead, and the ontology's lookup catalog is
carried forward with the new wrapper's entries added
(:meth:`~repro.core.ontology.BDIOntology.carry_catalog`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.ontology import BDIOntology
from repro.core.vocabulary import attribute_uri, source_uri
from repro.errors import ReleaseError
from repro.rdf.graph import Graph
from repro.rdf.namespace import G as G_NS
from repro.rdf.sparql import parse_sparql, select
from repro.rdf.term import IRI

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wrappers.base import Wrapper

__all__ = ["Release", "new_release", "prevalidate_release",
           "subgraph_concepts"]

# Algorithm 1's lookups over S, parsed once at import.
_DATA_SOURCES = parse_sparql(
    "SELECT ?ds WHERE { ?ds rdf:type S:DataSource }")
_ATTRIBUTES = parse_sparql("SELECT ?a WHERE { ?a rdf:type S:Attribute }")


def subgraph_concepts(subgraph: Graph) -> frozenset[IRI]:
    """The concepts a LAV subgraph spans: ``hasFeature`` subjects plus
    both endpoints of concept-level object properties."""
    concepts: set[IRI] = set()
    for triple in subgraph:
        if triple.p == G_NS.hasFeature:
            if isinstance(triple.s, IRI):
                concepts.add(triple.s)
        else:
            if isinstance(triple.s, IRI):
                concepts.add(triple.s)
            if isinstance(triple.o, IRI):
                concepts.add(triple.o)
    return frozenset(concepts)


@dataclass
class Release:
    """The 3-tuple ``R = ⟨w, G, F⟩`` of paper §4.1."""

    wrapper_name: str
    source_name: str
    id_attributes: tuple[str, ...]
    non_id_attributes: tuple[str, ...]
    subgraph: Graph
    attribute_to_feature: dict[str, IRI]
    #: optional physical wrapper to bind for execution
    wrapper: "Wrapper | None" = field(default=None, compare=False)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def for_wrapper(cls, wrapper: "Wrapper", subgraph: Graph,
                    attribute_to_feature: Mapping[str, IRI | str],
                    ) -> "Release":
        """Build a release from a physical wrapper object."""
        return cls(
            wrapper_name=wrapper.name,
            source_name=wrapper.source_name,
            id_attributes=tuple(wrapper.id_attributes),
            non_id_attributes=tuple(wrapper.non_id_attributes),
            subgraph=subgraph,
            attribute_to_feature={
                a: IRI(str(f)) for a, f in attribute_to_feature.items()},
            wrapper=wrapper,
        )

    # -- views ---------------------------------------------------------------------

    @property
    def attributes(self) -> tuple[str, ...]:
        """``R.w.aID ∪ R.w.anID`` in declaration order."""
        return self.id_attributes + self.non_id_attributes

    def affected_concepts(self) -> frozenset[IRI]:
        """The Global-graph concepts this release touches.

        Derived from the release subgraph: the subject of every
        ``G:hasFeature`` edge plus both endpoints of every concept-level
        object property. This is the invalidation granule of the
        release-aware rewriting cache — queries over disjoint concept
        sets are provably unaffected by the release.
        """
        return subgraph_concepts(self.subgraph)

    # -- validation -------------------------------------------------------------------

    def validate(self, ontology: BDIOntology) -> None:
        """Raise :class:`ReleaseError` when the release is inconsistent.

        Checks performed before Algorithm 1 runs:

        * every attribute is mapped by ``F`` and maps to a feature vertex
          of the release subgraph (``F : a ↦ V(G)``);
        * the subgraph is a subgraph of the current Global graph;
        * mapped features are typed ``G:Feature`` in the Global graph.
        """
        if not self.wrapper_name:
            raise ReleaseError("release lacks a wrapper name")
        if not self.source_name:
            raise ReleaseError("release lacks a source name")
        missing = [a for a in self.attributes
                   if a not in self.attribute_to_feature]
        if missing:
            raise ReleaseError(
                f"release for {self.wrapper_name}: attributes {missing} "
                "have no feature mapping in F")
        unknown = [a for a in self.attribute_to_feature
                   if a not in self.attributes]
        if unknown:
            raise ReleaseError(
                f"release for {self.wrapper_name}: F maps unknown "
                f"attributes {unknown}")

        subgraph_vertices = {t.s for t in self.subgraph} | {
            t.o for t in self.subgraph}
        for attribute, feature in self.attribute_to_feature.items():
            if feature not in subgraph_vertices:
                raise ReleaseError(
                    f"feature {feature} (for attribute {attribute!r}) is "
                    "not a vertex of the release subgraph")
            if not ontology.globals.is_feature(feature):
                raise ReleaseError(
                    f"feature {feature} (for attribute {attribute!r}) is "
                    "not a registered G:Feature")
        for triple in self.subgraph:
            if triple not in ontology.g:
                raise ReleaseError(
                    f"release subgraph triple {triple.n3()} is not part "
                    "of the Global graph; extend G first")


def prevalidate_release(ontology: BDIOntology, release: Release) -> None:
    """Every check Algorithm 1 performs *before* mutating ``T``.

    Raises :class:`ReleaseError` when the release would be rejected:
    structural validation plus the §3.2 stable-semantics check (no
    remapping of an already-mapped same-source attribute). Journaling
    writers call this before appending the release's change record so
    the journal never carries a record that is doomed to fail on
    replay.
    """
    release.validate(ontology)
    for attribute, feature in sorted(release.attribute_to_feature.items()):
        attr_uri = attribute_uri(release.source_name, attribute)
        existing = ontology.mappings.feature_of_attribute(attr_uri)
        if existing is not None and existing != feature:
            raise ReleaseError(
                f"attribute {attr_uri} is already mapped to {existing}; "
                f"release tries to remap it to {feature}. Same-source "
                "attributes keep their semantics across versions (§3.2) — "
                "use a differently named attribute")


def new_release(ontology: BDIOntology, release: Release,
                absorbed_concepts: "frozenset[IRI] | set[IRI] | None"
                = None, *, prevalidated: bool = False) -> dict[str, int]:
    """Algorithm 1: adapt the BDI ontology ``T`` w.r.t. release ``R``.

    *prevalidated* skips the redundant re-run of
    :func:`prevalidate_release` when the caller just performed it
    against the same settled ontology state (the journaling writers,
    which validate before appending the change record).

    Returns the number of triples added per graph — used by the §6.4
    ontology-growth study (Figure 11).

    The body follows the paper line by line; the existence checks are the
    same SPARQL queries over ``T``.

    Edits made to ``T`` since the previous evolution event (e.g. the
    steward extending G in preparation of this release) are folded into
    this release's event: when *absorbed_concepts* names the concepts
    those edits touched, the event stays concept-attributed; otherwise
    the event is marked ungoverned and release-aware caches flush
    wholesale rather than risk serving stale rewritings.
    """
    # Validation and the §3.2 stable-semantics check run before any
    # mutation: a rejected release must not leave partial state in S or M.
    if not prevalidated:
        prevalidate_release(ontology, release)

    # Bracket Algorithm 1's own mutations; begin_evolution() flags edits
    # that were already pending when the release started (someone
    # else's). On failure the bracket is aborted so later events fall
    # back to the conservative regime instead of reading a stale flag.
    ontology.begin_evolution()
    before = ontology.triple_counts()
    try:
        # Lines 2-5: register the data source when first seen.
        src_uri = source_uri(release.source_name)
        known_sources = {
            str(r["ds"]) for r in select(ontology.s, _DATA_SOURCES)
        }
        if str(src_uri) not in known_sources:
            ontology.sources.add_data_source(release.source_name)

        # Lines 6-8: register the wrapper and link it to its source.
        ontology.sources.add_wrapper(release.source_name,
                                     release.wrapper_name)

        # Lines 9-15: register attributes (reused within the source).
        known_attributes = {
            str(r["a"]) for r in select(ontology.s, _ATTRIBUTES)
        }
        created: set[IRI] = set()
        for attribute in release.attributes:
            attr_uri = attribute_uri(release.source_name, attribute)
            if str(attr_uri) not in known_attributes:
                ontology.sources.add_attribute(release.source_name,
                                               attribute)
                created.add(attr_uri)
            ontology.sources.link_wrapper_attribute(
                release.wrapper_name, release.source_name, attribute)

        # Line 16: register the LAV named graph in M. When the release
        # replaces an existing wrapper's mapping, the concepts of the
        # OLD subgraph are affected too — cached rewritings may hold
        # walks over mappings that no longer exist afterwards.
        previous_subgraph = ontology.mappings.mapping_graph_of(
            release.wrapper_name)
        previously_affected = (subgraph_concepts(previous_subgraph)
                               if previous_subgraph is not None
                               else frozenset())
        ontology.mappings.set_wrapper_subgraph(release.wrapper_name,
                                               release.subgraph)

        # Lines 17-21: serialize F as owl:sameAs triples (conflicts were
        # rejected above, before any mutation). Mapping an attribute
        # that existed unmapped can hand a feature to an old wrapper
        # linked to it, so only links on attributes created above keep
        # the release purely additive.
        additive = previous_subgraph is None and not absorbed_concepts
        for attribute, feature in sorted(
                release.attribute_to_feature.items()):
            attr_uri = attribute_uri(release.source_name, attribute)
            if ontology.mappings.feature_of_attribute(attr_uri) is None:
                ontology.mappings.add_same_as(attr_uri, feature)
                additive = additive and attr_uri in created

        if release.wrapper is not None:
            ontology.bind_wrapper(release.wrapper)

        # Bump the evolution epoch with the concepts the release
        # touched, so release-aware caches invalidate only rewritings
        # over those concepts.
        affected = release.affected_concepts() | previously_affected
        if absorbed_concepts:
            affected |= frozenset(IRI(str(c)) for c in absorbed_concepts)
        event = ontology.note_evolution(
            affected,
            description=f"release {release.wrapper_name} "
                        f"({release.source_name})",
            gap_absorbed=bool(absorbed_concepts),
            wrapper=release.wrapper_name if additive else None)
        if event.wrapper is not None:
            # Nothing an old wrapper reads changed: keep the metadata
            # lookups answered so far, plus the new wrapper's share.
            ontology.carry_catalog(event.wrapper)
    except BaseException:
        ontology.abort_evolution()
        raise

    after = ontology.triple_counts()
    return {key: after[key] - before[key] for key in after}
