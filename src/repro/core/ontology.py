"""The BDI ontology ``T = ⟨G, S, M⟩`` (paper §2.2, §3).

:class:`BDIOntology` owns an RDF dataset with three primary named graphs
(Global, Source, Mappings) plus one named graph per wrapper holding its
LAV mapping subgraph. It exposes:

* typed facades (:attr:`globals`, :attr:`sources`, :attr:`mappings`);
* the ontology-level queries that Algorithms 2-5 issue (ID features of a
  concept, wrappers providing a feature of a concept, edge-providing
  wrappers, attribute↔feature resolution) — implemented as *literal*
  SPARQL queries over the dataset, as in the paper, parsed once and
  answered once per state of ``T`` from a lookup catalog;
* binding of physical wrappers so that rewritten walks can be executed;
* growth statistics (triple counts per graph) for the §6.4 study.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Hashable, Iterable, TypeVar, cast,
)

from repro.core.global_graph import GlobalGraph
from repro.core.mapping_graph import MappingGraph
from repro.core.source_graph import SourceGraph
from repro.core.vocabulary import (
    GLOBAL_GRAPH, MAPPINGS_GRAPH, SOURCE_GRAPH,
    global_metamodel, mapping_graph_uri,
    qualified_attribute_name, source_metamodel,
    wrapper_local_name, wrapper_uri,
)
from repro.errors import OntologyError, UnknownWrapperError
from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.namespace import G as G_NS, M as M_NS, OWL, \
    S as S_NS
from repro.rdf.sparql import parse_sparql, select
from repro.rdf.term import IRI
from repro.relational.rows import Relation
from repro.relational.schema import Attribute, RelationSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wrappers.base import Wrapper

__all__ = ["BDIOntology", "EvolutionEvent", "OntologyFingerprint"]

_T = TypeVar("_T")

#: the lookup catalog: (state of T, lookup key -> answer)
_Catalog = tuple[tuple[int, int], dict[Hashable, object]]

# The lookups of Algorithms 3-5, kept as the paper's literal SPARQL but
# parsed once at import; each call binds its IRIs into the ?slots.
_ID_FEATURES = parse_sparql("""
    SELECT ?t WHERE {
        ?concept G:hasFeature ?t .
        ?t rdfs:subClassOf sc:identifier
    }""")
_FEATURE_GRAPHS = parse_sparql("""
    SELECT ?g WHERE {
        GRAPH ?g { ?concept G:hasFeature ?feature }
    }""")
_EDGE_GRAPHS = parse_sparql("""
    SELECT ?g WHERE {
        GRAPH ?g { ?tail ?x ?head }
    }""")
_PROVIDING_ATTRIBUTES = parse_sparql("""
    SELECT ?wrapper ?a WHERE {
        ?a owl:sameAs ?feature .
        ?wrapper S:hasAttribute ?a
    }""")


@dataclass(frozen=True)
class EvolutionEvent:
    """One governed evolution step (a release landing, §4/§6).

    Records the epoch it produced and the set of Global-graph concepts it
    affected — the unit of fine-grained cache invalidation: a cached
    rewriting survives the event iff its concept set is disjoint from
    :attr:`concepts` and no event in between is :attr:`ungoverned`. A
    rewriting the event does touch can still be *extended* rather than
    recomputed when the event names the :attr:`wrapper` it added.
    """

    epoch: int
    concepts: frozenset[IRI]
    description: str = ""
    #: structural fingerprint component right after the event landed
    structure: int = 0
    #: True when the event covers mutations that could not be attributed
    #: to concepts (edits bypassing the release machinery); caches must
    #: treat it as touching everything
    ungoverned: bool = False
    #: the wrapper a purely additive release added (a new wrapper name
    #: whose ``owl:sameAs`` links all belong to attributes created by
    #: the same release, no absorbed edits, governed). Under LAV such a
    #: release leaves every existing walk as it was, so a cached
    #: rewriting only gains the walks over this wrapper. None for every
    #: other event, and for events decoded from a snapshot.
    wrapper: str | None = None


@dataclass(frozen=True)
class OntologyFingerprint:
    """A cheap structural identity of ``T = ⟨G, S, M⟩`` at one instant.

    * :attr:`epoch` counts governed evolution steps (releases applied via
      Algorithm 1 and anything else reported through
      :meth:`BDIOntology.note_evolution`);
    * :attr:`structure` is a structural hash over the per-graph triple
      counts, the mapping named-graph (wrapper) inventory and the
      dataset's monotonic mutation counter. It is a safety net:
      mutations that bypass the release machinery — including
      count-neutral edits (remove one triple, add another) — change the
      hash deterministically, so derived artifacts keyed by a stale
      fingerprint are discarded rather than served.

    Both components are O(number of named graphs) to compute — no triple
    is ever re-hashed — so fingerprinting sits comfortably on the query
    hot path.
    """

    epoch: int
    structure: int


class BDIOntology:
    """The annotated two-level ontology governing the integration system."""

    def __init__(self, include_metamodel: bool = True) -> None:
        self.dataset = Dataset()
        self._g = self.dataset.graph(GLOBAL_GRAPH)
        self._s = self.dataset.graph(SOURCE_GRAPH)
        self._m = self.dataset.graph(MAPPINGS_GRAPH)
        self.globals = GlobalGraph(self._g)
        self.sources = SourceGraph(self._s)
        self.mappings = MappingGraph(self._m, self.dataset)
        self._physical: dict[str, "Wrapper"] = {}
        self._epoch = 0
        self._evolution_log: list[EvolutionEvent] = []
        #: None = no attribution bracket open; bool = whether foreign
        #: (unattributed) edits already existed when it was opened
        self._evolution_bracket_gap: bool | None = None
        self._evolution_listeners: \
            list[Callable[[EvolutionEvent], None]] = []
        #: (state of T, lookup key -> answer): the lookup catalog,
        #: valid only while :meth:`_state` still reads that state
        self._catalog: _Catalog = ((-1, -1), {})
        #: (epoch, catalog) as the latest :meth:`begin_evolution` found
        #: them, for :meth:`carry_catalog`
        self._catalog_at_begin: tuple[int, _Catalog] | None = None
        if include_metamodel:
            self._g.update(global_metamodel())
            self._s.update(source_metamodel())
        self._structure_at_last_event = self.fingerprint().structure

    # -- raw graphs ------------------------------------------------------------

    @property
    def g(self) -> Graph:
        """The Global graph G."""
        return self._g

    @property
    def s(self) -> Graph:
        """The Source graph S."""
        return self._s

    @property
    def m(self) -> Graph:
        """The Mappings graph M."""
        return self._m

    # -- physical binding ---------------------------------------------------------

    def bind_wrapper(self, wrapper: "Wrapper") -> None:
        """Associate a physical wrapper with its RDF representation."""
        self._physical[wrapper.name] = wrapper

    def physical_wrapper(self, wrapper_name: str) -> "Wrapper":
        try:
            return self._physical[wrapper_name]
        except KeyError:
            raise UnknownWrapperError(
                f"no physical wrapper bound for {wrapper_name!r}") from None

    def has_physical_wrapper(self, wrapper_name: str) -> bool:
        return wrapper_name in self._physical

    def data_provider(self, wrapper_name: str) -> Relation:
        """DataProvider callable for walk execution (qualified columns)."""
        return self.physical_wrapper(wrapper_name).relation(qualified=True)

    # -- evolution bookkeeping (release-aware caching, §5-§6) ----------------------

    @property
    def epoch(self) -> int:
        """Number of governed evolution steps applied so far."""
        return self._epoch

    def begin_evolution(self) -> bool:
        """Open an attribution bracket before out-of-band edits to T.

        The bracketed protocol for stewards editing G/S/M directly::

            foreign = ontology.begin_evolution()
            # ... edits affecting concept C ...
            ontology.note_evolution([C], "why")

        Only edits made inside the bracket are attributed to the
        concepts named in the closing :meth:`note_evolution`; edits that
        were already pending when the bracket opened belong to someone
        else and degrade the event to ungoverned. Returns that
        foreign-gap flag so the caller can warn or abort. Repeated opens
        before one close keep the worst flag seen.
        """
        gap = self.has_ungoverned_gap()
        # has_ungoverned_gap() read the fingerprint through the lookup
        # catalog, so the catalog is current here.
        self._catalog_at_begin = (self._epoch, self._catalog)
        if self._evolution_bracket_gap is None:
            self._evolution_bracket_gap = gap
        else:
            self._evolution_bracket_gap |= gap
        return self._evolution_bracket_gap

    def abort_evolution(self) -> None:
        """Close an attribution bracket without recording an event.

        For error paths: mutations already made inside the bracket stay
        unattributed, so the next :meth:`note_evolution` or lookup falls
        back to the conservative (flush-all) regime instead of reading a
        stale bracket flag.
        """
        self._evolution_bracket_gap = None
        self._catalog_at_begin = None

    def note_evolution(self, concepts: Iterable[IRI | str],
                       description: str = "",
                       ungoverned: bool = False,
                       gap_absorbed: bool = False,
                       wrapper: str | None = None) -> EvolutionEvent:
        """Record one governed evolution step affecting *concepts*.

        Called by Algorithm 1 (:func:`repro.core.release.new_release`)
        with the concepts of the release subgraph; stewards editing
        G/S/M out of band should bracket their edits with
        :meth:`begin_evolution` and close with this call so
        release-aware caches can invalidate selectively.

        Safety: attribution is only trusted for bracketed edits. Without
        an open bracket, any edits pending at call time cannot be told
        apart from a third party's, so the event is conservatively
        marked *ungoverned* (caches treat it as touching everything).
        With a bracket, only a gap that predated the bracket does so.
        *gap_absorbed* is Algorithm 1's override: the caller vouches
        that the pending gap is covered by *concepts*. *wrapper* is
        Algorithm 1's claim that the step only added that wrapper (see
        :attr:`EvolutionEvent.wrapper`); an ungoverned event drops it.
        """
        if not gap_absorbed:
            pending = (self._evolution_bracket_gap
                       if self._evolution_bracket_gap is not None
                       else self.has_ungoverned_gap())
            ungoverned = ungoverned or pending
        self._evolution_bracket_gap = None
        self._epoch += 1
        event = EvolutionEvent(
            epoch=self._epoch,
            concepts=frozenset(IRI(str(c)) for c in concepts),
            description=description,
            structure=self.fingerprint().structure,
            ungoverned=ungoverned,
            wrapper=None if ungoverned else wrapper)
        self._evolution_log.append(event)
        self._structure_at_last_event = event.structure
        for listener in tuple(self._evolution_listeners):
            listener(event)
        return event

    def add_evolution_listener(
            self, listener: "Callable[[EvolutionEvent], None]") -> None:
        """Subscribe to evolution events (the serving layer's write hook).

        *listener* is invoked synchronously at the end of every
        :meth:`note_evolution`, after the event is logged — i.e. once per
        release landing through Algorithm 1 and once per bracketed
        steward edit. Listeners must be fast and must not mutate ``T``
        or re-enter the evolution machinery; exceptions propagate to the
        mutator. Registering the same callable twice is a no-op.
        """
        if listener not in self._evolution_listeners:
            self._evolution_listeners.append(listener)

    def remove_evolution_listener(
            self, listener: "Callable[[EvolutionEvent], None]") -> None:
        """Unsubscribe a listener; unknown listeners are ignored."""
        try:
            self._evolution_listeners.remove(listener)
        except ValueError:
            pass

    def restore_evolution_state(self, epoch: int,
                                events: Iterable[EvolutionEvent],
                                pending_gap: bool = False) -> None:
        """Reinstate evolution bookkeeping after a snapshot restore.

        Called once the dataset (triples *and* mutation counts) has been
        rebuilt to the snapshotted state. *pending_gap* records whether
        the writer had unattributed edits outstanding at snapshot time,
        so :meth:`has_ungoverned_gap` keeps answering the same after the
        restore. Listeners are never restored — they belong to live
        serving objects, not to the governed state.
        """
        self._epoch = epoch
        self._evolution_log = list(events)
        self._evolution_bracket_gap = None
        structure = self.fingerprint().structure
        # ~structure is guaranteed different from structure, which is
        # all has_ungoverned_gap() compares for.
        self._structure_at_last_event = (
            structure if not pending_gap else ~structure)

    def has_ungoverned_gap(self) -> bool:
        """True when T was mutated since the last recorded event.

        Algorithm 1 checks this on entry: a positive gap means edits
        bypassed the governance layer, so the upcoming release event is
        marked ungoverned unless the caller attributes those edits to
        concepts (``absorbed_concepts``).
        """
        return self.fingerprint().structure != self._structure_at_last_event

    def evolution_since(self, epoch: int) -> list[EvolutionEvent]:
        """Events applied after *epoch* (epochs are contiguous from 1)."""
        if epoch >= self._epoch:
            return []
        return self._evolution_log[epoch:]

    def fingerprint(self) -> OntologyFingerprint:
        """The current :class:`OntologyFingerprint` of ``T``.

        The structural component hashes the per-graph triple counts, the
        sorted mapping named-graph inventory (each LAV graph is one
        wrapper, so a release landing always perturbs it) and the
        dataset's mutation counter (so count-neutral edits perturb it
        too). It is answered from the lookup catalog, keyed on the epoch
        as well, so repeated calls at one state of ``T`` compute it once.
        """
        epoch = self._epoch
        return self._lookup(("fingerprint", epoch), lambda: (
            OntologyFingerprint(epoch=epoch, structure=self._structure())))

    def _structure(self) -> int:
        counts = self.triple_counts()
        lav_names = tuple(sorted(
            str(name) for name in self.dataset.graph_names()
            if str(name).startswith(str(mapping_graph_uri("")))))
        return hash((counts["G"], counts["S"], counts["M"],
                     counts["lav_graphs"], lav_names,
                     self.dataset.mutation_count()))

    # -- ontology-level queries used by the algorithms -----------------------------

    def _state(self) -> tuple[int, int]:
        """The key of the lookup catalog: one value per state of ``T``.

        The dataset's mutation counter advances on every effective edit
        and on every graph drop. Creating an empty named graph
        (:meth:`Dataset.graph <repro.rdf.dataset.Dataset.graph>`) does
        not advance it, but it changes the LAV inventory, so the
        named-graph count is part of the key too.
        """
        return self.dataset.mutation_count(), self.dataset.graph_count()

    def _lookup(self, key: Hashable, compute: Callable[[], _T]) -> _T:
        """Answer a metadata lookup from the catalog of the current T.

        The catalog is keyed by :meth:`_state`. A different state drops
        the whole catalog, whoever made the edit and whether or not it
        changed a triple count; only Algorithm 1 carries it across a
        release that just added a wrapper (:meth:`carry_catalog`). A
        miss runs *compute* and stores its answer only if the state did
        not move meanwhile, so an answer computed across an edit is
        never served later. Stored answers are never mutated (tuples,
        IRIs, frozen schemas, fingerprints, and the per-feature
        providing map, which only :meth:`attribute_providing` reads);
        the public methods hand out fresh lists. Concurrent readers at most recompute an answer:
        each stores into the dict tagged with the state it read.
        """
        state = self._state()
        catalog = self._catalog
        if catalog[0] != state:
            catalog = self._catalog = (state, {})
        elif key in catalog[1]:
            return cast(_T, catalog[1][key])
        value = compute()
        if self._state() == state:
            catalog[1][key] = value
        return value

    def carry_catalog(self, wrapper: str) -> bool:
        """Carry the lookup catalog across a release that only added
        *wrapper* (:attr:`EvolutionEvent.wrapper`).

        Algorithm 1 calls this after recording such a release. The
        release leaves G alone and gives no old wrapper an attribute, an
        ``owl:sameAs`` link or a mapping edge, so the catalog as the
        release's :meth:`begin_evolution` found it stays exact once the
        new wrapper's own share is added:

        * ``id_features`` and ``wrapper_relation_schema`` entries are
          kept;
        * ``providing``, ``wrappers_providing`` and ``edge_providers``
          entries gain the new wrapper's contribution, read from its own
          attributes and its own LAV graph;
        * every other entry (the fingerprint) is dropped.

        The carried entries are installed under the current state of T,
        next to whatever was already computed there. Changed entries are
        new dicts and tuples; no stored answer is mutated. It applies
        only when exactly one event followed the latest
        :meth:`begin_evolution`, and returns whether it applied.
        """
        snapshot, self._catalog_at_begin = self._catalog_at_begin, None
        if snapshot is None or snapshot[0] != self._epoch - 1:
            return False
        wrapper_iri = wrapper_uri(wrapper)
        lav = self.mappings.mapping_graph_of(wrapper)
        owners = self._graphs_to_wrappers([mapping_graph_uri(wrapper)])
        # The rows the providing-attributes select gains: the new
        # wrapper's own attributes (in S) and the features they are the
        # same as (in M), where Algorithm 1 writes both.
        provided: dict[str, IRI] = {}
        same_as = OWL.sameAs
        for link in self._s.match(wrapper_iri, S_NS.hasAttribute, None):
            attribute = IRI(str(link.o))
            for same in self._m.match(link.o, same_as, None):
                feature = str(same.o)
                if isinstance(same.o, IRI) and (
                        feature not in provided
                        or attribute < provided[feature]):
                    provided[feature] = attribute

        has_feature = G_NS.hasFeature
        carried: dict[Hashable, object] = {}
        for key, value in snapshot[1][1].items():
            kind, *args = cast("tuple[str, ...]", key)
            if kind in ("id_features", "wrapper_relation_schema"):
                carried[key] = value
            elif kind == "providing":
                attribute = provided.get(args[0])
                carried[key] = value if attribute is None else {
                    **cast("dict[str, IRI]", value),
                    str(wrapper_iri): attribute}
            elif kind in ("wrappers_providing", "edge_providers"):
                predicate = (has_feature
                             if kind == "wrappers_providing" else None)
                wrappers = cast("tuple[IRI, ...]", value)
                if lav is not None and lav.contains(
                        IRI(args[0]), predicate, IRI(args[1])):
                    # insert into the sorted answer, as sorted() would
                    merged = list(wrappers)
                    for owner in owners:
                        if owner not in merged:
                            bisect.insort(merged, owner)
                    wrappers = tuple(merged)
                carried[key] = wrappers
        state = self._state()
        current = self._catalog
        if current[0] == state:
            carried.update(current[1])
        self._catalog = (state, carried)
        return True

    def id_features_of(self, concept: IRI | str) -> list[IRI]:
        """Algorithm 3 line 10 / Algorithm 5 line 12, literally:

        ``SELECT ?t FROM T WHERE {⟨c, G:hasFeature, ?t⟩ .
        ⟨?t, rdfs:subClassOf, sc:identifier⟩}`` under RDFS entailment.
        """
        def compute() -> tuple[IRI, ...]:
            rows = select(self._g, _ID_FEATURES,
                          bindings={"concept": IRI(str(concept))})
            return tuple(sorted({IRI(str(r["t"])) for r in rows}))
        return list(self._lookup(("id_features", str(concept)), compute))

    def wrappers_providing(self, concept: IRI | str,
                           feature: IRI | str) -> list[IRI]:
        """Algorithm 4 line 8: named graphs asserting the hasFeature edge.

        ``SELECT ?g FROM T WHERE { GRAPH ?g {⟨c, G:hasFeature, f⟩} }``;
        graph names are translated back to wrapper URIs via ``M:mapping``.
        """
        def compute() -> tuple[IRI, ...]:
            rows = select(self.dataset, _FEATURE_GRAPHS,
                          bindings={"concept": IRI(str(concept)),
                                    "feature": IRI(str(feature))})
            return self._graphs_to_wrappers(IRI(str(r["g"])) for r in rows)
        return list(self._lookup(
            ("wrappers_providing", str(concept), str(feature)), compute))

    def edge_providers(self, source_concept: IRI | str,
                       target_concept: IRI | str) -> list[IRI]:
        """Algorithm 5 lines 9-10: wrappers whose mapping contains the
        concept-to-concept edge (any predicate)."""
        def compute() -> tuple[IRI, ...]:
            rows = select(self.dataset, _EDGE_GRAPHS,
                          bindings={"tail": IRI(str(source_concept)),
                                    "head": IRI(str(target_concept))})
            return self._graphs_to_wrappers(IRI(str(r["g"])) for r in rows)
        return list(self._lookup(
            ("edge_providers", str(source_concept), str(target_concept)),
            compute))

    def _graphs_to_wrappers(self, graph_names: Iterable[IRI]
                            ) -> tuple[IRI, ...]:
        out: set[IRI] = set()
        for name in graph_names:
            owners = [s for s in self._m.subjects(M_NS.mapping, name)
                      if isinstance(s, IRI)]
            out.update(owners)
        return tuple(sorted(out))

    def attribute_providing(self, wrapper: IRI | str,
                            feature: IRI | str) -> IRI | None:
        """Algorithm 4 line 10 / Algorithm 5 lines 14 & 16:

        ``SELECT ?a FROM T WHERE {⟨?a, owl:sameAs, f⟩ .
        ⟨w, S:hasAttribute, ?a⟩}``

        Answered for every wrapper at once: one select per feature
        leaves ``?wrapper`` unbound, and the catalog maps each wrapper
        to its least providing attribute.
        """
        def compute() -> dict[str, IRI]:
            rows = select(self.dataset, _PROVIDING_ATTRIBUTES,
                          bindings={"feature": IRI(str(feature))})
            least: dict[str, IRI] = {}
            for r in rows:
                name, attribute = str(r["wrapper"]), IRI(str(r["a"]))
                if name not in least or attribute < least[name]:
                    least[name] = attribute
            return least
        return self._lookup(("providing", str(feature)),
                            compute).get(str(wrapper))

    def feature_of_attribute(self, attribute: IRI | str) -> IRI | None:
        """Algorithm 4 line 18 (``⟨a, owl:sameAs, ?f⟩``)."""
        return self.mappings.feature_of_attribute(attribute)

    def lav_subgraph(self, wrapper: IRI | str) -> Graph:
        """The LAV mapping graph of a wrapper (``LAV(w)``)."""
        name = wrapper_local_name(IRI(str(wrapper))) \
            if str(wrapper).startswith(str(wrapper_uri(""))) else str(wrapper)
        graph = self.mappings.mapping_graph_of(name)
        if graph is None:
            raise OntologyError(f"wrapper {wrapper} has no LAV mapping")
        return graph.copy()  # callers must not mutate the stored mapping

    # -- schema reconstruction -------------------------------------------------------

    def wrapper_relation_schema(self, wrapper: IRI | str) -> RelationSchema:
        """Reconstruct ``w(aID, anID)`` from S, M and G.

        An attribute is an ID attribute iff the feature it maps to
        (through ``owl:sameAs``) is an ID feature in G. Attribute names
        are source-qualified, matching the relational layer.
        """
        wrapper_iri = (IRI(str(wrapper))
                       if str(wrapper).startswith(str(wrapper_uri("")))
                       else wrapper_uri(str(wrapper)))
        return self._lookup(
            ("wrapper_relation_schema", str(wrapper_iri)),
            lambda: self._build_relation_schema(wrapper_iri))

    def _build_relation_schema(self, wrapper_iri: IRI) -> RelationSchema:
        if not self._s.contains(wrapper_iri, None, None) and not any(
                True for _ in self._s.match(None, None, wrapper_iri)):
            raise UnknownWrapperError(
                f"{wrapper_iri} is not registered in the Source graph")
        name = wrapper_local_name(wrapper_iri)
        source = self.sources.source_of_wrapper(wrapper_iri)
        attributes: list[Attribute] = []
        for attr_iri in self.sources.attributes_of_wrapper(wrapper_iri):
            qualified = qualified_attribute_name(attr_iri)
            feature = self.mappings.feature_of_attribute(attr_iri)
            is_id = bool(feature) and self.globals.is_id_feature(feature)
            attributes.append(Attribute(qualified, is_id))
        return RelationSchema(name, tuple(sorted(attributes)),
                              source=str(source))

    def wrapper_names(self) -> list[str]:
        return [wrapper_local_name(w) for w in self.sources.wrappers()]

    # -- statistics (§6.4 growth study) -------------------------------------------------

    def triple_counts(self) -> dict[str, int]:
        """Triple counts per primary graph plus mapping named graphs."""
        mapping_graphs = sum(
            len(self.dataset.graph(name))
            for name in self.dataset.graph_names()
            if str(name).startswith(str(mapping_graph_uri(""))))
        return {
            "G": len(self._g),
            "S": len(self._s),
            "M": len(self._m),
            "lav_graphs": mapping_graphs,
            "total": self.dataset.quad_count(),
        }

    # -- validation ---------------------------------------------------------------------

    def validate(self) -> list[str]:
        """All constraint checks across G, S and M."""
        problems = []
        problems.extend(self.globals.validate())
        problems.extend(self.sources.validate())
        problems.extend(self.mappings.validate(self._g, self._s))
        # Every sameAs feature must be an ID or plain feature of G and the
        # attribute must belong to a wrapper of the right source.
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = self.triple_counts()
        return (f"<BDIOntology G={counts['G']} S={counts['S']} "
                f"M={counts['M']} lav={counts['lav_graphs']}>")
