"""Release-delta rewriting: an additive release extends a cached rewriting.

Algorithm 1 names the wrapper a purely additive release added on its
evolution event, and the rewrite cache then extends a stale
single-concept rewriting by that wrapper's walks instead of recomputing
it. The cold :func:`~repro.query.rewriter.rewrite` is the oracle: the
extended result must equal it walk by walk and in order, and every
non-additive case must fall back to it, counted under its reason.
"""

from __future__ import annotations

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
from repro.mdm.analyst import describe_cache
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


def assert_among_filters_the_select(ontology: BDIOntology) -> None:
    """``wrappers_providing(among=S)`` reads each wrapper's own LAV
    graph; it must equal the catalogued ``GRAPH ?g`` select's answer
    restricted to S, for every concept, feature and subset tried."""
    wrappers = ontology.sources.wrappers()
    subsets = [wrappers, wrappers[-1:], wrappers[::2], [],
               [wrapper_uri("never_released")]]
    subsets += [[wrapper] for wrapper in wrappers]
    for concept in ontology.globals.concepts():
        for feature in ontology.globals.features_of(concept):
            every = ontology.wrappers_providing(concept, feature)
            for among in subsets:
                assert ontology.wrappers_providing(
                    concept, feature, among=among) == \
                    [w for w in every if w in among], (concept, feature)


class TestWrappersProvidingAmong:
    def test_every_wordpress_release(self):
        ontology = posts_ontology(0)
        for index in range(len(WORDPRESS_RELEASES)):
            new_release(ontology, posts_release(ontology, index),
                        absorbed_concepts={WP.Post} if index == 0
                        else None)
            assert_among_filters_the_select(ontology)

    def test_running_example_before_and_after_w4(self):
        scenario = build_supersede()
        assert_among_filters_the_select(scenario.ontology)
        register_w4(scenario)
        assert_among_filters_the_select(scenario.ontology)


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
