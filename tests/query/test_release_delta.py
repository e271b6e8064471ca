"""Release-delta rewriting and answers: an additive release extends what
is cached instead of dropping it.

Algorithm 1 names the wrapper a purely additive release added on its
evolution event. The rewrite cache then extends a stale single-concept
rewriting by that wrapper's walks, the answer cache extends the cached
answer by those walks' rows, and the lookup catalog is carried forward
with the wrapper's entries added. The cold
:func:`~repro.query.rewriter.rewrite`, the naive evaluator and a cold
catalog are the oracles; every case an extension cannot cover must fall
back to them, counted under its reason.
"""

from __future__ import annotations

import gc
import threading

import pytest

from repro.core.ontology import BDIOntology
from repro.core.release import Release, new_release
from repro.core.vocabulary import wrapper_uri
from repro.datasets import EXEMPLARY_QUERY, build_supersede
from repro.datasets.supersede import register_w4
from repro.evolution.growth import WP, _prepare_global_graph, \
    wordpress_release
from repro.evolution.release_builder import build_release
from repro.evolution.wordpress import WORDPRESS_RELEASES
from repro.mdm.analyst import describe_answer_cache, describe_cache
from repro.query.engine import QueryEngine
from repro.query.rewriter import rewrite
from repro.rdf.namespace import G as G_NS
from repro.storage.codec import decode_event, encode_event
from repro.wrappers.base import StaticWrapper

#: the historical posts panel: renamed single features and
#: multi-feature projections over the one Post concept
PANEL = (
    ("title",), ("meta",), ("featured_media",), ("status",),
    ("id", "title"), ("title", "author", "date"),
    ("slug", "modified", "meta"),
    ("id", "featured_media", "excerpt", "sticky"),
)

ROWS_PER_RELEASE = 3


def posts_query(features: tuple[str, ...]) -> str:
    variables = " ".join(f"?v{i}" for i in range(len(features)))
    values = " ".join(f"<{WP[f'post/{f}']}>" for f in features)
    pattern = " .\n".join(
        f"<{WP.Post}> G:hasFeature <{WP[f'post/{f}']}>" for f in features)
    return (f"SELECT {variables} WHERE {{ VALUES ({variables}) "
            f"{{ ({values}) }}\n{pattern} }}")


def posts_release(ontology: BDIOntology, index: int) -> Release:
    """Release *index* of the Wordpress history, with inline rows."""
    release = wordpress_release(ontology, WORDPRESS_RELEASES[index])
    release.wrapper = StaticWrapper(
        release.wrapper_name, release.source_name, release.id_attributes,
        release.non_id_attributes,
        rows=[{a: f"{release.wrapper_name}-{a}-{j}"
               for a in release.attributes}
              for j in range(ROWS_PER_RELEASE)])
    return release


def posts_ontology(releases: int = 1) -> BDIOntology:
    """Post modelled in G, then the first *releases* releases landed."""
    ontology = BDIOntology()
    _prepare_global_graph(ontology)
    for index in range(releases):
        new_release(ontology, posts_release(ontology, index),
                    absorbed_concepts={WP.Post} if index == 0 else None)
    return ontology


def assert_cold_equal(engine: QueryEngine, query: str) -> None:
    cached = engine.rewrite(query)
    cold = rewrite(engine.ontology, query)
    assert cached.report() == cold.report()
    assert [w.equivalence_key() for w in cached.walks] == \
        [w.equivalence_key() for w in cold.walks]


class TestAdditiveEvents:
    def test_new_wrapper_release_names_its_wrapper(self):
        ontology = posts_ontology(1)
        new_release(ontology, posts_release(ontology, 1))
        assert ontology.evolution_since(1)[-1].wrapper == "wp_v2"

    def test_absorbing_release_is_not_additive(self):
        ontology = posts_ontology(1)
        assert ontology.evolution_since(0)[0].wrapper is None

    def test_snapshot_codec_drops_the_wrapper(self):
        ontology = posts_ontology(2)
        event = ontology.evolution_since(1)[0]
        assert event.wrapper == "wp_v2"
        assert decode_event(encode_event(event)).wrapper is None


def warm_catalog(ontology: BDIOntology) -> None:
    """Ask every metadata lookup the catalog answers, for every concept,
    feature, concept pair and wrapper of *ontology*."""
    concepts = ontology.globals.concepts()
    wrappers = ontology.sources.wrappers()
    for concept in concepts:
        ontology.id_features_of(concept)
        for feature in ontology.globals.features_of(concept):
            ontology.wrappers_providing(concept, feature)
            ontology.attribute_providing(wrappers[0], feature)
        for other in concepts:
            ontology.edge_providers(concept, other)
    for wrapper in wrappers:
        ontology.wrapper_relation_schema(wrapper)


def catalog_kinds(ontology: BDIOntology) -> set[str]:
    state, entries = ontology._catalog
    assert state == ontology._state()
    return {key[0] for key in entries}


def assert_catalog_exact(ontology: BDIOntology) -> dict:
    """Every entry of the current catalog equals a cold recompute."""
    state, carried = ontology._catalog
    assert state == ontology._state()
    carried = dict(carried)
    ontology._catalog = ((-1, -1), {})
    for key in carried:
        kind, *args = key
        if kind == "fingerprint":
            ontology.fingerprint()
        elif kind == "id_features":
            ontology.id_features_of(*args)
        elif kind == "providing":
            ontology.attribute_providing(wrapper_uri("any"), *args)
        elif kind == "wrappers_providing":
            ontology.wrappers_providing(*args)
        elif kind == "edge_providers":
            ontology.edge_providers(*args)
        else:
            assert kind == "wrapper_relation_schema", key
            ontology.wrapper_relation_schema(*args)
        assert ontology._catalog[1][key] == carried[key], key
    return carried


class TestWrappersProvidingAmong:
    """An extended rewriting asks for the wrappers providing a feature
    among the ones a release added. It reads them from the lookup
    catalog that Algorithm 1 carried across the additive release, and
    the carried catalog must equal a cold one entry by entry."""

    def test_every_wordpress_release(self):
        ontology = posts_ontology(0)
        for index in range(len(WORDPRESS_RELEASES)):
            if index:
                warm_catalog(ontology)
            release = posts_release(ontology, index)
            new_release(ontology, release,
                        absorbed_concepts={WP.Post} if index == 0
                        else None)
            if index == 0:  # absorbs the modelling of Post: dropped
                assert catalog_kinds(ontology) <= {"fingerprint"}
                continue
            carried = assert_catalog_exact(ontology)
            added = wrapper_uri(release.wrapper_name)
            assert any(str(added) in value for key, value
                       in carried.items() if key[0] == "providing")
            assert any(added in value for key, value in carried.items()
                       if key[0] == "wrappers_providing")
            assert {"id_features", "wrapper_relation_schema"} <= {
                key[0] for key in carried}

    def test_running_example_before_and_after_w4(self):
        scenario = build_supersede()
        warm_catalog(scenario.ontology)
        register_w4(scenario)
        carried = assert_catalog_exact(scenario.ontology)
        assert {"providing", "wrappers_providing", "edge_providers",
                "id_features", "wrapper_relation_schema"} <= {
            key[0] for key in carried}
        assert any(wrapper_uri("w4") in value for key, value
                   in carried.items() if key[0] == "edge_providers")

    def test_non_additive_release_drops_the_catalog(self):
        ontology = posts_ontology(2)
        warm_catalog(ontology)
        new_release(ontology, posts_release(ontology, 1))  # wp_v2 again
        assert catalog_kinds(ontology) <= {"fingerprint"}

    def test_out_of_band_edit_drops_the_catalog(self):
        ontology = posts_ontology(2)
        warm_catalog(ontology)
        ontology.globals.add_feature(WP.Post, WP["post/late_field"])
        new_release(ontology, posts_release(ontology, 2))
        assert ontology.evolution_since(ontology.epoch - 1)[0].wrapper \
            is None
        assert catalog_kinds(ontology) <= {"fingerprint"}
        # and an edit after a carried release drops it on the next read
        warm_catalog(ontology)
        new_release(ontology, posts_release(ontology, 3))
        assert "providing" in catalog_kinds(ontology)
        ontology.globals.add_feature(WP.Post, WP["post/later_field"])
        ontology.fingerprint()
        assert catalog_kinds(ontology) == {"fingerprint"}


class TestExtensionEqualsColdRewrite:
    def test_every_wordpress_release_and_panel_query(self):
        """At each of the 15 releases the extended rewriting equals a
        cold one walk by walk, and the answer equals the naive bag."""
        ontology = posts_ontology(0)
        engine = QueryEngine(ontology)
        queries = [posts_query(q) for q in PANEL]
        for index in range(len(WORDPRESS_RELEASES)):
            new_release(ontology, posts_release(ontology, index),
                        absorbed_concepts={WP.Post} if index == 0
                        else None)
            naive = QueryEngine(ontology, use_planner=False,
                                use_cache=False, use_answer_cache=False)
            for query in queries:
                assert_cold_equal(engine, query)
                assert engine.answer(query) == naive.answer(query), \
                    (WORDPRESS_RELEASES[index].version, query)
        stats = engine.cache_stats
        # Release 1 absorbs the steward's modelling of Post; the 14
        # later releases extend every panel entry.
        assert stats.extended == len(queries) * (
            len(WORDPRESS_RELEASES) - 1)
        assert stats.invalidated == 0
        assert stats.extension_fallbacks == {}
        assert len(engine.rewrite(queries[0]).walks) == \
            len(WORDPRESS_RELEASES)

    def test_extension_is_a_miss_and_replans(self):
        ontology = posts_ontology(2)
        engine = QueryEngine(ontology)
        query = posts_query(("id", "title"))
        engine.answer(query)
        before = engine.rewrite(query)
        new_release(ontology, posts_release(ontology, 2))
        after = engine.rewrite(query)
        assert after is not before
        assert "_plans" not in after.__dict__
        stats = engine.cache_stats
        assert (stats.hits, stats.misses, stats.extended) == (1, 2, 1)
        assert engine.rewrite(query) is after  # stored: now a hit

    def test_extension_reaches_only_touched_entries(self):
        """An additive release on another concept leaves the entry
        valid (it survives); the extension only runs where the
        release's concepts meet the entry's."""
        ontology = posts_ontology(2)
        ontology.begin_evolution()
        comment = ontology.globals.add_concept(WP.Comment)
        ontology.globals.add_feature(comment, WP["comment/id"], is_id=True)
        ontology.note_evolution([WP.Comment], "model comments")
        engine = QueryEngine(ontology)
        query = posts_query(("title",))
        cached = engine.rewrite(query)
        release = build_release(
            ontology, "wordpress_comments", "wp_comments_v1",
            id_attributes=["id"], non_id_attributes=[],
            feature_hints={"id": WP["comment/id"]})
        new_release(ontology, release)
        assert ontology.evolution_since(ontology.epoch - 1)[0].wrapper \
            == "wp_comments_v1"
        assert engine.rewrite(query) is cached
        assert engine.cache_stats.survived_releases == 1
        assert engine.cache_stats.extended == 0


class TestFallbacks:
    """Each non-additive case falls back to a cold rewrite, counted."""

    @pytest.fixture()
    def primed(self):
        ontology = posts_ontology(2)
        engine = QueryEngine(ontology)
        query = posts_query(("id", "title"))
        engine.rewrite(query)
        return ontology, engine, query

    def assert_fallback(self, engine: QueryEngine, query: str,
                        reason: str) -> None:
        assert_cold_equal(engine, query)
        stats = engine.cache_stats
        assert stats.extended == 0
        assert stats.invalidated == 1
        assert stats.extension_fallbacks == {reason: 1}
        assert f"extension fallbacks: {reason} = 1" in \
            describe_cache(engine.cache)

    def test_re_released_wrapper_name(self, primed):
        ontology, engine, query = primed
        new_release(ontology, posts_release(ontology, 1))  # wp_v2 again
        assert ontology.evolution_since(ontology.epoch - 1)[0].wrapper \
            is None
        self.assert_fallback(engine, query, "non_additive")

    def test_absorbed_concepts(self, primed):
        ontology, engine, query = primed
        new_release(ontology, posts_release(ontology, 2),
                    absorbed_concepts={WP.Post})
        self.assert_fallback(engine, query, "non_additive")

    def test_out_of_band_edit_after_the_release(self, primed):
        ontology, engine, query = primed
        new_release(ontology, posts_release(ontology, 2))
        ontology.globals.add_feature(WP.Post, WP["post/late_field"])
        self.assert_fallback(engine, query, "out_of_band_edit")

    def test_release_mapping_an_old_wrappers_unmapped_attribute(self):
        """``wp_v1`` holds an attribute no release mapped; a later
        release maps it, which gives ``wp_v1`` a feature and so a walk
        that an extension by the new wrapper alone would miss."""
        ontology = posts_ontology(1)
        ontology.begin_evolution()
        ontology.sources.add_attribute("wordpress_posts", "lead")
        ontology.sources.link_wrapper_attribute("wp_v1", "wordpress_posts",
                                                "lead")
        lav = ontology.mappings.mapping_graph_of("wp_v1")
        lav.add((WP.Post, G_NS.hasFeature, WP["post/template"]))
        ontology.note_evolution([WP.Post], "wp_v1 serves a lead")
        engine = QueryEngine(ontology)
        query = posts_query(("id", "template"))
        assert engine.rewrite(query).walks == []

        release = build_release(
            ontology, "wordpress_posts", "wp_lead",
            id_attributes=["id"], non_id_attributes=["lead"],
            feature_hints={"id": WP["post/id"],
                           "lead": WP["post/template"]})
        new_release(ontology, release)
        assert ontology.evolution_since(ontology.epoch - 1)[0].wrapper \
            is None
        self.assert_fallback(engine, query, "non_additive")
        assert sorted(next(iter(w.wrapper_names))
                      for w in engine.rewrite(query).walks) == \
            ["wp_lead", "wp_v1"]

    def test_multi_concept_query(self):
        """The running example's w4 release touches a rewriting over
        three concepts: extending joins is out of scope."""
        scenario = build_supersede()
        engine = QueryEngine(scenario.ontology)
        assert len(engine.rewrite(EXEMPLARY_QUERY).walks) == 1
        register_w4(scenario)
        self.assert_fallback(engine, EXEMPLARY_QUERY, "multi_concept")
        assert len(engine.rewrite(EXEMPLARY_QUERY).walks) == 2

    def test_events_restored_from_a_snapshot(self, primed):
        """The snapshot codec keeps no wrapper on an event, so a log
        that went through it reads as non-additive."""
        ontology, engine, query = primed
        new_release(ontology, posts_release(ontology, 2))
        ontology.restore_evolution_state(
            ontology.epoch,
            [decode_event(encode_event(e))
             for e in ontology.evolution_since(0)])
        self.assert_fallback(engine, query, "non_additive")


# -- release-delta answers ---------------------------------------------------

#: a query over the running example's feedback concepts, which the w4
#: release (VoD monitoring) does not touch
FEEDBACK_QUERY = """
SELECT ?x ?y WHERE {
    VALUES (?x ?y) { (sup:applicationId dct:description) }
    sc:SoftwareApplication G:hasFeature sup:applicationId .
    sc:SoftwareApplication sup:hasFGTool sup:FeedbackGathering .
    sup:FeedbackGathering sup:generatesFeedback duv:UserFeedback .
    duv:UserFeedback G:hasFeature dct:description
}
"""


def oracle(ontology: BDIOntology, query: str, distinct: bool = True):
    """The naive reference answer at the current T."""
    return QueryEngine(ontology, use_planner=False, use_cache=False,
                       use_answer_cache=False).answer(query,
                                                      distinct=distinct)


class TestAnswerExtension:
    @pytest.mark.parametrize("distinct", [True, False])
    def test_every_wordpress_release_and_panel_query(self, distinct):
        """After each additive release every panel answer is its cached
        answer plus the new wrapper's rows, equal to the naive bag."""
        ontology = posts_ontology(0)
        engine = QueryEngine(ontology)
        queries = [posts_query(q) for q in PANEL]
        for index in range(len(WORDPRESS_RELEASES)):
            new_release(ontology, posts_release(ontology, index),
                        absorbed_concepts={WP.Post} if index == 0
                        else None)
            for query in queries:
                answer = engine.answer(query, distinct=distinct)
                assert answer == oracle(ontology, query, distinct), \
                    (WORDPRESS_RELEASES[index].version, query)
                assert len(answer) == ROWS_PER_RELEASE * (index + 1)
        stats = engine.answer_cache_stats
        assert stats.extended == len(queries) * (
            len(WORDPRESS_RELEASES) - 1)
        assert stats.extension_fallbacks == {}
        assert stats.hits == 0

    def test_extension_plans_only_the_added_walks(self):
        ontology = posts_ontology(2)
        engine = QueryEngine(ontology)
        query = posts_query(("id", "title"))
        engine.answer(query)
        release = posts_release(ontology, 2)
        new_release(ontology, release)
        result = engine.rewrite(query)
        assert result.added == (release.wrapper_name,)
        engine.answer(query)
        assert "_plans" not in result.__dict__  # no full plan was built
        (_, metrics), = engine.plan_metrics_log()[-1:]
        assert scan_wrappers(metrics) == [release.wrapper_name]
        # the extended answer is a hit from now on
        assert engine.answer(query) is engine.answer(query)
        assert engine.answer_cache_stats.hits == 2

    def test_an_extension_holds_its_base_weakly(self):
        ontology = posts_ontology(2)
        engine = QueryEngine(ontology)
        query = posts_query(("title",))
        engine.rewrite(query)  # no answer entry keeps it alive
        new_release(ontology, posts_release(ontology, 2))
        result = engine.rewrite(query)
        gc.collect()
        assert result.extends is not None and result.extends() is None
        assert engine.answer(query) == oracle(ontology, query)
        assert engine.answer_cache_stats.extended == 0

    def test_keep_across_a_release_on_other_concepts(self):
        """w4 touches only VoD concepts: a feedback query's rewriting
        survives it, and so does its answer, as a hit."""
        scenario = build_supersede()
        engine = QueryEngine(scenario.ontology)
        before = engine.answer(FEEDBACK_QUERY)
        register_w4(scenario)
        after = engine.answer(FEEDBACK_QUERY)
        assert after is before
        stats = engine.answer_cache_stats
        assert (stats.hits, stats.kept, stats.evictions) == (1, 1, 0)
        assert after == oracle(scenario.ontology, FEEDBACK_QUERY)
        assert engine.answer(FEEDBACK_QUERY) is before
        assert engine.answer_cache_stats.kept == 1  # fingerprint refreshed

    def test_two_threads_answering_one_key_after_a_release(self):
        ontology = posts_ontology(1)
        engine = QueryEngine(ontology)
        query = posts_query(("title", "author", "date"))
        engine.answer(query)
        for index in range(1, 6):
            new_release(ontology, posts_release(ontology, index))
            barrier = threading.Barrier(2)
            answers: list = [None, None]

            def answer(slot: int) -> None:
                barrier.wait()
                answers[slot] = engine.answer(query)

            threads = [threading.Thread(target=answer, args=(slot,))
                       for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            expected = oracle(ontology, query)
            assert answers[0] == expected and answers[1] == expected
        stats = engine.answer_cache_stats
        assert 5 <= stats.extended <= 10
        assert stats.extension_fallbacks == {}


def scan_wrappers(metrics) -> list[str]:
    """The wrappers the scans of one metrics tree read."""
    from repro.relational.metrics import scan_timings
    return sorted(scan_timings(metrics))


class TestAnswerExtensionFallbacks:
    """Each case an extension cannot cover is recomputed, counted by
    reason, and still equals the oracle."""

    @pytest.fixture()
    def primed(self):
        ontology = posts_ontology(2)
        engine = QueryEngine(ontology)
        query = posts_query(("id", "title"))
        engine.answer(query)
        return ontology, engine, query

    def assert_fallback(self, ontology: BDIOntology, engine: QueryEngine,
                        query: str, reason: str) -> None:
        assert engine.answer(query) == oracle(ontology, query)
        stats = engine.answer_cache_stats
        assert stats.extended == 0
        assert stats.extension_fallbacks == {reason: 1}
        assert f"extension fallbacks: {reason} = 1" in \
            describe_answer_cache(engine.answer_cache)

    def test_data_moved_under_an_old_wrapper(self, primed):
        ontology, engine, query = primed
        old = ontology.physical_wrapper("wp_v1")
        old.update_rows(lambda row: True, {"title": "retitled"})
        new_release(ontology, posts_release(ontology, 2))
        self.assert_fallback(ontology, engine, query, "data_moved")
        assert "retitled" in {row["title"] for row in engine.answer(query)}

    def test_re_released_wrapper_name(self, primed):
        ontology, engine, query = primed
        new_release(ontology, posts_release(ontology, 1))  # wp_v2 again
        self.assert_fallback(ontology, engine, query, "not_extended")

    def test_bare_rebind(self, primed):
        ontology, engine, query = primed
        old = ontology.physical_wrapper("wp_v1")
        rebound = StaticWrapper(
            old.name, old.source_name, old.id_attributes,
            old.non_id_attributes,
            rows=[{**row, "title": "rebound"} for row in old._rows])
        assert rebound.data_version() == old.data_version()
        ontology.bind_wrapper(rebound)
        new_release(ontology, posts_release(ontology, 2))
        self.assert_fallback(ontology, engine, query, "rebound")
        assert "rebound" in {row["title"] for row in engine.answer(query)}

    def test_raising_version_probe(self, primed):
        ontology, engine, query = primed
        old = ontology.physical_wrapper("wp_v1")

        def data_version():
            raise RuntimeError("version probe is down")
        old.data_version = data_version
        new_release(ontology, posts_release(ontology, 2))
        self.assert_fallback(ontology, engine, query, "unversioned")
