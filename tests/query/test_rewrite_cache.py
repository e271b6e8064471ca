"""Release-aware rewriting cache: keys, hits, selective invalidation."""

import pytest

from repro.datasets import EXEMPLARY_QUERY, build_supersede
from repro.datasets.supersede import register_w4
from repro.evolution.apply import GovernedApi
from repro.evolution.changes import Change, ChangeKind
from repro.mdm import MDM
import repro.query.cache as cache_module
from repro.query.cache import RewriteCache, canonical_omq_key
from repro.query.engine import QueryEngine
from repro.query.omq import parse_omq
from repro.rdf.namespace import DUV, SC, SUP, XSD
from repro.sources.rest_api import ApiVersion, Endpoint, FieldSpec, RestApi

#: Touches SoftwareApplication / FeedbackGathering / UserFeedback —
#: disjoint from the VoD concepts (Monitor, InfoMonitor) that the w4
#: release of §2.1 affects.
FEEDBACK_QUERY = """
SELECT ?x ?y WHERE {
    VALUES (?x ?y) { (sup:applicationId dct:description) }
    sc:SoftwareApplication G:hasFeature sup:applicationId .
    sc:SoftwareApplication sup:hasFGTool sup:FeedbackGathering .
    sup:FeedbackGathering sup:generatesFeedback duv:UserFeedback .
    duv:UserFeedback G:hasFeature dct:description
}
"""


class TestCanonicalKey:
    def test_whitespace_insensitive(self):
        compact = parse_omq(
            "SELECT ?x WHERE { VALUES (?x) { (sup:lagRatio) } "
            "sup:InfoMonitor G:hasFeature sup:lagRatio }")
        spaced = parse_omq("""
            SELECT ?x
            WHERE {
                VALUES (?x) { (sup:lagRatio) }
                sup:InfoMonitor   G:hasFeature   sup:lagRatio
            }""")
        assert canonical_omq_key(compact) == canonical_omq_key(spaced)

    def test_triple_order_insensitive(self):
        a = parse_omq(EXEMPLARY_QUERY)
        reordered = parse_omq("""
            SELECT ?x ?y WHERE {
                VALUES (?x ?y) { (sup:applicationId sup:lagRatio) }
                sup:InfoMonitor G:hasFeature sup:lagRatio .
                sup:Monitor sup:generatesQoS sup:InfoMonitor .
                sc:SoftwareApplication sup:hasMonitor sup:Monitor .
                sc:SoftwareApplication G:hasFeature sup:applicationId
            }""")
        assert canonical_omq_key(a) == canonical_omq_key(reordered)

    def test_projection_order_sensitive(self):
        """π order names the output columns, so it must key separately."""
        a = parse_omq("""
            SELECT ?x ?y WHERE {
                VALUES (?x ?y) { (sup:monitorId sup:lagRatio) }
                sup:Monitor G:hasFeature sup:monitorId .
                sup:Monitor sup:generatesQoS sup:InfoMonitor .
                sup:InfoMonitor G:hasFeature sup:lagRatio }""")
        b = parse_omq("""
            SELECT ?x ?y WHERE {
                VALUES (?x ?y) { (sup:lagRatio sup:monitorId) }
                sup:Monitor G:hasFeature sup:monitorId .
                sup:Monitor sup:generatesQoS sup:InfoMonitor .
                sup:InfoMonitor G:hasFeature sup:lagRatio }""")
        assert canonical_omq_key(a) != canonical_omq_key(b)


class TestWarmHits:
    def test_identical_query_hits(self, engine):
        first = engine.rewrite(EXEMPLARY_QUERY)
        second = engine.rewrite(EXEMPLARY_QUERY)
        assert second is first
        assert engine.cache_stats.hits == 1
        assert engine.cache_stats.misses == 1

    def test_textual_variant_hits_same_entry(self, engine):
        engine.rewrite(EXEMPLARY_QUERY)
        engine.rewrite(EXEMPLARY_QUERY.replace("\n", " "))
        assert engine.cache_stats.hits == 1
        assert len(engine.cache) == 1

    def test_cache_disabled(self, scenario):
        engine = QueryEngine(scenario.ontology, use_cache=False)
        first = engine.rewrite(EXEMPLARY_QUERY)
        second = engine.rewrite(EXEMPLARY_QUERY)
        assert first is not second
        assert engine.cache is None
        assert engine.cache_stats is None

    def test_answer_uses_cache(self, engine):
        engine.answer(EXEMPLARY_QUERY)
        engine.answer(EXEMPLARY_QUERY)
        assert engine.cache_stats.hits == 1


class TestReleaseInvalidation:
    def test_release_touching_queried_concept_misses(self, scenario):
        engine = QueryEngine(scenario.ontology)
        assert len(engine.rewrite(EXEMPLARY_QUERY).walks) == 1

        register_w4(scenario)  # affects Monitor + InfoMonitor

        result = engine.rewrite(EXEMPLARY_QUERY)
        assert len(result.walks) == 2  # recomputed: w4 branch appeared
        assert engine.cache_stats.invalidated == 1
        assert engine.cache_stats.hits == 0

    def test_release_on_unrelated_concept_survives(self, scenario):
        engine = QueryEngine(scenario.ontology)
        cached = engine.rewrite(FEEDBACK_QUERY)

        register_w4(scenario)  # VoD concepts only

        survived = engine.rewrite(FEEDBACK_QUERY)
        assert survived is cached
        assert engine.cache_stats.survived_releases == 1
        assert engine.cache_stats.hits == 1
        assert engine.cache_stats.invalidated == 0

    def test_selective_invalidation_is_per_entry(self, scenario):
        """One release evicts only the rewritings over its concepts."""
        engine = QueryEngine(scenario.ontology)
        engine.rewrite(EXEMPLARY_QUERY)
        engine.rewrite(FEEDBACK_QUERY)
        assert len(engine.cache) == 2

        register_w4(scenario)

        engine.rewrite(FEEDBACK_QUERY)   # hit (disjoint concepts)
        engine.rewrite(EXEMPLARY_QUERY)  # miss (Monitor/InfoMonitor)
        assert engine.cache_stats.hits == 1
        assert engine.cache_stats.invalidated == 1
        assert engine.cache_stats.survived_releases == 1

    def test_survivor_revalidates_once(self, scenario):
        engine = QueryEngine(scenario.ontology)
        engine.rewrite(FEEDBACK_QUERY)
        register_w4(scenario)
        engine.rewrite(FEEDBACK_QUERY)
        engine.rewrite(FEEDBACK_QUERY)
        # The second post-release lookup short-circuits: epoch matches.
        assert engine.cache_stats.survived_releases == 1
        assert engine.cache_stats.hits == 2


class TestStructureGuard:
    def test_ungoverned_mutation_evicts(self, scenario):
        """Edits that bypass Algorithm 1 still invalidate (safety net)."""
        engine = QueryEngine(scenario.ontology)
        engine.rewrite(EXEMPLARY_QUERY)
        scenario.ontology.globals.add_feature(
            SUP.InfoMonitor, SUP.jitter, datatype=XSD.double)
        result = engine.rewrite(EXEMPLARY_QUERY)
        assert result is not None
        assert engine.cache_stats.structure_evictions == 1
        assert engine.cache_stats.hits == 0

    def test_bracketed_note_evolution_enables_selective_survival(
            self, scenario):
        """Stewards bracketing out-of-band edits keep unrelated
        entries."""
        engine = QueryEngine(scenario.ontology)
        cached = engine.rewrite(EXEMPLARY_QUERY)
        assert scenario.ontology.begin_evolution() is False
        scenario.ontology.globals.add_feature(
            DUV.UserFeedback, DUV.rating, datatype=XSD.integer)
        scenario.ontology.note_evolution(
            [DUV.UserFeedback], "steward added duv:rating")
        assert engine.rewrite(EXEMPLARY_QUERY) is cached
        assert engine.cache_stats.survived_releases == 1

    def test_unbracketed_note_evolution_is_conservative(self, scenario):
        """Without a bracket, note_evolution cannot tell the caller's
        edits from a third party's: the event flushes everything."""
        engine = QueryEngine(scenario.ontology)
        engine.rewrite(EXEMPLARY_QUERY)
        scenario.ontology.globals.add_feature(
            DUV.UserFeedback, DUV.rating, datatype=XSD.integer)
        event = scenario.ontology.note_evolution(
            [DUV.UserFeedback], "unbracketed")
        assert event.ungoverned
        engine.rewrite(EXEMPLARY_QUERY)
        assert engine.cache_stats.structure_evictions == 1

    def test_bracket_does_not_launder_foreign_edits(self, scenario):
        """A third party's unreported edit cannot ride an honest
        steward's attribution: the bracket remembers it."""
        engine = QueryEngine(scenario.ontology)
        engine.rewrite(EXEMPLARY_QUERY)
        # Third party silently drops a triple from w1's LAV mapping.
        lav = scenario.ontology.mappings.mapping_graph_of("w1")
        lav.remove(next(iter(lav)))
        # Honest steward brackets their own unrelated edit.
        assert scenario.ontology.begin_evolution() is True
        scenario.ontology.globals.add_feature(
            DUV.UserFeedback, DUV.rating, datatype=XSD.integer)
        event = scenario.ontology.note_evolution(
            [DUV.UserFeedback], "steward added duv:rating")
        assert event.ungoverned
        engine.rewrite(EXEMPLARY_QUERY)
        assert engine.cache_stats.structure_evictions == 1
        assert engine.cache_stats.hits == 0


class TestStructureGuardAcrossReleases:
    def test_unabsorbed_edit_degrades_next_release_to_flush(
            self, scenario):
        """An ungoverned edit followed by an unrelated release must not
        slip through the epoch path: the release event is marked
        ungoverned and flushes even concept-disjoint entries."""
        engine = QueryEngine(scenario.ontology)
        engine.rewrite(FEEDBACK_QUERY)
        # Direct edit on a VoD concept, not reported to governance...
        scenario.ontology.globals.add_feature(
            SUP.InfoMonitor, SUP.jitter, datatype=XSD.double)
        # ...then a release on VoD concepts lands (epoch advances).
        register_w4(scenario)
        engine.rewrite(FEEDBACK_QUERY)  # disjoint, but cannot be proven
        assert engine.cache_stats.structure_evictions == 1
        assert engine.cache_stats.survived_releases == 0

    def test_edit_after_release_detected(self, scenario):
        """Mutations landing after the latest event are caught by the
        recorded-structure comparison on the survival path."""
        engine = QueryEngine(scenario.ontology)
        engine.rewrite(FEEDBACK_QUERY)
        register_w4(scenario)  # governed, disjoint from the entry
        scenario.ontology.globals.add_feature(
            DUV.UserFeedback, DUV.rating, datatype=XSD.integer)
        engine.rewrite(FEEDBACK_QUERY)
        assert engine.cache_stats.structure_evictions == 1
        assert engine.cache_stats.survived_releases == 0

    def test_count_neutral_edit_detected(self, scenario):
        """Remove-one-add-one keeps every triple count identical; the
        mutation counter still perturbs the structural hash."""
        ontology = scenario.ontology
        engine = QueryEngine(ontology)
        engine.rewrite(EXEMPLARY_QUERY)
        before = ontology.triple_counts()
        ontology.g.remove((SC.SoftwareApplication, SUP.hasMonitor,
                           SUP.Monitor))
        ontology.g.add((SC.SoftwareApplication, SUP.hasMonitor,
                        SUP.FeedbackGathering))
        assert ontology.triple_counts() == before  # counts unchanged
        engine.rewrite(EXEMPLARY_QUERY)
        assert engine.cache_stats.structure_evictions == 1

    def test_wrapper_remapping_invalidates_old_concepts(self, scenario):
        """Re-releasing a wrapper with a different subgraph invalidates
        the concepts its PREVIOUS mapping covered, not just the new
        ones."""
        from repro.core.release import Release, new_release
        from repro.rdf.graph import Graph
        from repro.rdf.namespace import DCT, G as G_NS

        engine = QueryEngine(scenario.ontology)
        cached = engine.rewrite(FEEDBACK_QUERY)  # uses w2 over feedback

        # w2 is re-released mapping ONLY UserFeedback (new attributes,
        # so the stable-semantics rule of §3.2 is not violated).
        sub = Graph()
        sub.add((DUV.UserFeedback, G_NS.hasFeature, DCT.description))
        new_release(scenario.ontology, Release(
            wrapper_name="w2", source_name="D2",
            id_attributes=(), non_id_attributes=("body",),
            subgraph=sub,
            attribute_to_feature={"body": DCT.description}))

        # The event must carry FeedbackGathering (old subgraph) even
        # though the new subgraph only spans UserFeedback.
        event = scenario.ontology.evolution_since(3)[-1]
        assert SUP.FeedbackGathering in event.concepts
        assert engine.rewrite(FEEDBACK_QUERY) is not cached
        assert engine.cache_stats.invalidated == 1

    def test_dataset_mutation_count_monotonic_across_graph_drop(self):
        """Drop-and-recreate of a graph cannot reproduce an earlier
        fingerprint."""
        from repro.rdf.dataset import Dataset
        ds = Dataset()
        g = ds.graph("urn:g:x")
        g.add(("urn:a", "urn:p", "urn:b"))
        before = ds.mutation_count()
        ds.remove_graph("urn:g:x")
        ds.graph("urn:g:x").add(("urn:a2", "urn:p", "urn:b2"))
        assert ds.mutation_count() > before

    def test_governed_api_does_not_absorb_foreign_edits(self):
        """Out-of-band edits before gov.apply() degrade the release
        event to ungoverned instead of being silently attributed."""
        api = RestApi("Svc")
        endpoint = Endpoint("GET /items")
        endpoint.add_version(ApiVersion("1", [
            FieldSpec("id", "int"), FieldSpec("val", "string")]))
        api.add_endpoint(endpoint)
        gov = GovernedApi(api)
        gov.model_endpoint("GET /items", id_field="id")

        engine = QueryEngine(gov.ontology)
        items_q = """
        SELECT ?x WHERE {
            VALUES (?x) { (<urn:api:Svc:GET_items/val>) }
            <urn:api:Svc:GET_items> G:hasFeature
                <urn:api:Svc:GET_items/val>
        }
        """
        engine.rewrite(items_q)
        # Foreign edit: a concept minted outside GovernedApi's control.
        gov.ontology.globals.add_concept(SUP.Monitor)
        gov.apply(Change(ChangeKind.PARAM_ADD_PARAMETER, "Svc",
                         {"endpoint": "GET /items",
                          "parameter": "extra"}))
        event = gov.ontology.evolution_since(gov.ontology.epoch - 1)[-1]
        assert event.ungoverned
        engine.rewrite(items_q)
        assert engine.cache_stats.structure_evictions == 1

    def test_failed_release_no_partial_state_and_bracket_reset(
            self, scenario):
        """A rejected release (§3.2 remap conflict) mutates nothing and
        leaves no stale attribution bracket behind."""
        from repro.core.release import Release, new_release
        from repro.errors import ReleaseError
        from repro.rdf.graph import Graph
        from repro.rdf.namespace import G as G_NS

        ontology = scenario.ontology
        engine = QueryEngine(ontology)
        engine.rewrite(FEEDBACK_QUERY)
        lav_before = ontology.mappings.mapping_graph_of("w2").copy()
        counts_before = ontology.triple_counts()
        epoch_before = ontology.epoch

        sub = Graph()
        sub.add((SUP.FeedbackGathering, G_NS.hasFeature,
                 SUP.feedbackGatheringId))
        bad = Release("w2", "D2", (), ("tweet",), sub,
                      {"tweet": SUP.feedbackGatheringId})
        with pytest.raises(ReleaseError):
            new_release(ontology, bad)

        assert ontology.mappings.mapping_graph_of("w2") == lav_before
        assert ontology.triple_counts() == counts_before
        assert ontology.epoch == epoch_before
        # A later unbracketed note sees reality, not a stale bracket.
        ontology.globals.add_feature(DUV.UserFeedback, DUV.rating)
        event = ontology.note_evolution([DUV.UserFeedback], "later")
        assert event.ungoverned

    def test_mdm_register_release_absorbs_steward_prep(self, scenario):
        """The steward facade can attribute G extensions made in
        preparation of a release, keeping the event fine-grained."""
        from repro.core.release import Release
        from repro.rdf.graph import Graph
        from repro.rdf.namespace import G as G_NS
        from repro.rdf.namespace import Namespace
        from repro.wrappers.base import StaticWrapper

        mdm = MDM(scenario.ontology)
        cached = mdm.rewrite(FEEDBACK_QUERY)

        # Steward extends G for a brand-new InfoMonitor feature...
        SUPX = Namespace(str(SUP))
        scenario.ontology.globals.add_feature(
            SUP.InfoMonitor, SUPX["droppedFrames"], datatype=XSD.integer)
        sub = Graph()
        sub.add((SUP.InfoMonitor, G_NS.hasFeature, SUPX["droppedFrames"]))
        wrapper = StaticWrapper(
            "w1b", "D1", id_attributes=[],
            non_id_attributes=["frames"], rows=[{"frames": 3}],
            projection={"frames": "frames"})
        # ...and lands the release attributing the prep edit.
        mdm.register_release(
            Release.for_wrapper(wrapper, sub,
                                {"frames": SUPX["droppedFrames"]}),
            absorbed_concepts={SUP.InfoMonitor})

        event = scenario.ontology.evolution_since(
            scenario.ontology.epoch - 1)[-1]
        assert not event.ungoverned
        assert SUP.InfoMonitor in event.concepts
        # The feedback entry is concept-disjoint and survives.
        assert mdm.rewrite(FEEDBACK_QUERY) is cached
        assert mdm.cache.stats.survived_releases == 1

    def test_governed_api_steward_edits_are_absorbed(self):
        """GovernedApi's G extensions ride the release event: a release
        on one endpoint never flushes other endpoints' entries."""
        api = RestApi("Svc")
        for name in ("GET /a", "GET /b"):
            endpoint = Endpoint(name)
            endpoint.add_version(ApiVersion("1", [
                FieldSpec("id", "int"), FieldSpec("val", "string")]))
            api.add_endpoint(endpoint)
        gov = GovernedApi(api)
        gov.model_endpoint("GET /a", id_field="id")
        gov.model_endpoint("GET /b", id_field="id")

        engine = QueryEngine(gov.ontology)
        b_query = """
        SELECT ?x WHERE {
            VALUES (?x) { (<urn:api:Svc:GET_b/val>) }
            <urn:api:Svc:GET_b> G:hasFeature <urn:api:Svc:GET_b/val>
        }
        """
        cached = engine.rewrite(b_query)
        # Adding a parameter to /a extends G (steward edit) + releases.
        gov.apply(Change(ChangeKind.PARAM_ADD_PARAMETER, "Svc",
                         {"endpoint": "GET /a", "parameter": "extra"}))
        assert engine.rewrite(b_query) is cached
        assert engine.cache_stats.survived_releases == 1
        assert engine.cache_stats.structure_evictions == 0


class TestCacheMechanics:
    def test_lru_eviction(self, scenario, monkeypatch):
        monkeypatch.setattr(cache_module, "REWRITE_CACHE_ENTRIES", 1)
        cache = RewriteCache()
        engine = QueryEngine(scenario.ontology)
        engine.cache = cache
        engine.rewrite(EXEMPLARY_QUERY)
        engine.rewrite(FEEDBACK_QUERY)
        assert len(cache) == 1
        assert cache.stats.lru_evictions == 1
        engine.rewrite(EXEMPLARY_QUERY)  # was evicted -> miss
        assert cache.stats.hits == 0

    def test_shared_cache_never_cross_serves_ontologies(self):
        """Two structurally identical ontologies sharing one cache must
        not serve each other's rewritings."""
        cache = RewriteCache()
        a = build_supersede()
        b = build_supersede()
        engine_a = QueryEngine(a.ontology)
        engine_b = QueryEngine(b.ontology)
        engine_a.cache = engine_b.cache = cache
        result_a = engine_a.rewrite(EXEMPLARY_QUERY)
        result_b = engine_b.rewrite(EXEMPLARY_QUERY)
        assert result_b is not result_a
        assert cache.stats.hits == 0

    def test_parse_memo_tracks_prefix_changes(self, scenario):
        engine = QueryEngine(scenario.ontology)
        text = ("SELECT ?x WHERE { VALUES (?x) { (sup:lagRatio) } "
                "sup:InfoMonitor G:hasFeature sup:lagRatio }")
        first = engine._parse(text)
        assert engine._parse(text) is first  # memoized
        engine.prefixes["extra"] = "urn:extra:"
        assert engine._parse(text) is not first  # memo invalidated

    def test_manual_concept_invalidation(self, scenario):
        engine = QueryEngine(scenario.ontology)
        engine.rewrite(EXEMPLARY_QUERY)
        engine.rewrite(FEEDBACK_QUERY)
        evicted = engine.cache.invalidate_concepts([SUP.InfoMonitor])
        assert evicted == 1
        assert len(engine.cache) == 1

    def test_clear(self, scenario):
        engine = QueryEngine(scenario.ontology)
        engine.rewrite(EXEMPLARY_QUERY)
        assert engine.clear_cache() == 1
        assert len(engine.cache) == 0

    def test_fingerprint_stable_without_mutation(self, ontology):
        assert ontology.fingerprint() == ontology.fingerprint()

    def test_epoch_counts_releases(self):
        scenario = build_supersede()  # w1-w3: three releases
        assert scenario.ontology.epoch == 3
        register_w4(scenario)
        assert scenario.ontology.epoch == 4
        events = scenario.ontology.evolution_since(3)
        assert len(events) == 1
        assert SUP.Monitor in events[0].concepts
        assert SUP.InfoMonitor in events[0].concepts
        assert SUP.FeedbackGathering not in events[0].concepts


class TestGovernedApiImpact:
    @pytest.fixture()
    def gov(self):
        api = RestApi("Svc")
        endpoint = Endpoint("GET /items")
        endpoint.add_version(ApiVersion("1", [
            FieldSpec("itemId", "int"), FieldSpec("name", "string")]))
        api.add_endpoint(endpoint)
        governed = GovernedApi(api)
        governed.model_endpoint("GET /items", id_field="itemId")
        return governed

    def test_wrapper_side_change_has_no_impact(self, gov):
        epoch = gov.ontology.epoch
        report = gov.apply(Change(
            ChangeKind.API_CHANGE_RATE_LIMIT, "Svc", {"limit": 7}))
        assert report.affected_concepts == frozenset()
        assert gov.ontology.epoch == epoch  # no release, no epoch bump

    def test_ontology_side_change_names_its_concept(self, gov):
        epoch = gov.ontology.epoch
        report = gov.apply(Change(
            ChangeKind.PARAM_ADD_PARAMETER, "Svc",
            {"endpoint": "GET /items", "parameter": "stock"}))
        concept = gov.state("GET /items").concept
        assert report.affected_concepts == frozenset({concept})
        assert gov.ontology.epoch == epoch + 1
        assert concept in gov.last_release_impact

    def test_rename_method_resolves_new_name(self, gov):
        report = gov.apply(Change(
            ChangeKind.METHOD_CHANGE_METHOD_NAME, "Svc",
            {"endpoint": "GET /items", "new_name": "GET /products"}))
        concept = gov.state("GET /products").concept
        assert report.affected_concepts == frozenset({concept})

    def test_delete_method_preserves_cache(self, gov):
        report = gov.apply(Change(
            ChangeKind.METHOD_DELETE_METHOD, "Svc",
            {"endpoint": "GET /items"}))
        assert report.affected_concepts == frozenset()

    def test_param_rename_does_not_mistake_new_name_for_endpoint(
            self, gov):
        """For parameter renames, new_name is a parameter — even when
        it collides with another endpoint's name."""
        gov.apply(Change(ChangeKind.METHOD_ADD_METHOD, "Svc",
                         {"endpoint": "orders",
                          "fields": [("oid", "int")], "id_field": "oid"}))
        report = gov.apply(Change(
            ChangeKind.PARAM_RENAME_RESPONSE_PARAMETER, "Svc",
            {"endpoint": "GET /items", "parameter": "name",
             "new_name": "orders"}))
        items_concept = gov.state("GET /items").concept
        orders_concept = gov.state("orders").concept
        assert orders_concept not in report.affected_concepts
        assert report.affected_concepts == frozenset({items_concept})

    def test_release_impact_preview_covers_remapped_wrapper(self):
        """The preview matches what Algorithm 1 will record for a
        wrapper re-release."""
        from repro.core.release import Release
        from repro.evolution.release_builder import release_impact
        from repro.rdf.graph import Graph
        from repro.rdf.namespace import DCT, G as G_NS

        scenario = build_supersede()
        sub = Graph()
        sub.add((DUV.UserFeedback, G_NS.hasFeature, DCT.description))
        remap = Release("w2", "D2", (), ("body",), sub,
                        {"body": DCT.description})
        assert release_impact(remap) == frozenset({DUV.UserFeedback})
        full = release_impact(remap, scenario.ontology)
        assert SUP.FeedbackGathering in full  # old w2 subgraph concept

    def test_api_level_format_change_touches_every_concept(self, gov):
        gov.apply(Change(ChangeKind.METHOD_ADD_METHOD, "Svc",
                         {"endpoint": "GET /r",
                          "fields": [("rid", "int")], "id_field": "rid"}))
        report = gov.apply(Change(
            ChangeKind.API_ADD_RESPONSE_FORMAT, "Svc", {"format": "xml"}))
        concepts = {state.concept
                    for state in (gov.state("GET /items"),
                                  gov.state("GET /r"))}
        assert report.affected_concepts == frozenset(concepts)


class TestMDMIntegration:
    def test_statistics_expose_cache(self, scenario):
        mdm = MDM(scenario.ontology)
        mdm.rewrite(EXEMPLARY_QUERY)
        mdm.rewrite(EXEMPLARY_QUERY)
        stats = mdm.statistics()
        assert stats["cache_hits"] == 1
        assert stats["cached_rewritings"] == 1
        assert stats["evolution_epoch"] == 3

    def test_steward_release_invalidates_analyst_cache(self, scenario):
        mdm = MDM(scenario.ontology)
        mdm.rewrite(EXEMPLARY_QUERY)
        register_w4(scenario)
        assert len(mdm.rewrite(EXEMPLARY_QUERY).walks) == 2

    def test_describe_cache(self, scenario):
        mdm = MDM(scenario.ontology)
        mdm.rewrite(EXEMPLARY_QUERY)
        text = mdm.describe_cache()
        assert "1/256 entries" in text
        assert "InfoMonitor" in text

    def test_describe_cache_disabled(self, scenario):
        mdm = MDM(scenario.ontology, use_cache=False)
        assert "disabled" in mdm.describe_cache()
        assert mdm.rewrite(EXEMPLARY_QUERY) is not None
