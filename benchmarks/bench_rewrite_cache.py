"""Release-aware rewriting cache: cold vs. warm vs. post-release latency.

Not a paper figure — this benchmarks the caching subsystem layered on top
of the reproduction (see ``docs/architecture.md``). Two workloads:

* the SUPERSEDE running example (§2.1): the exemplary OMQ before the w4
  release (cold/warm), across the release (selective invalidation), and
  after (re-warmed);
* the Wordpress GET-Posts release history (§6.4): fifteen releases land
  while an analyst panel keeps re-posing a posts query (extended by the
  new wrapper's walk after every release, which only adds a wrapper)
  and a comments query (never invalidated — its concept is untouched by
  the posts releases).

A third run lands the same fifteen releases through a governed service
while an analyst panel of eight posts queries is answered after each
one: every answer is its cached answer plus the new wrapper's rows.

Asserted invariants: warm rewrites are ≥ 10× faster than cold on the
running example, and a release invalidates exactly the entries whose
concepts it touches, except that a purely additive release extends a
touched single-concept entry into the rewriting a cold rewrite
computes, walk by walk, and extends each cached answer into the bag
the naive evaluator computes.
"""

from __future__ import annotations

import statistics
import time

from repro.api.protocol import ReleaseRequest
from repro.core.ontology import BDIOntology
from repro.core.release import new_release
from repro.datasets import EXEMPLARY_QUERY, build_supersede
from repro.datasets.supersede import register_w4
from repro.evolution.growth import WP, _prepare_global_graph, \
    wordpress_release
from repro.evolution.release_builder import build_release
from repro.evolution.wordpress import WORDPRESS_RELEASES
from repro.mdm import MDM
from repro.query.engine import QueryEngine
from repro.wrappers.base import StaticWrapper

FEEDBACK_QUERY = """
SELECT ?x ?y WHERE {
    VALUES (?x ?y) { (sup:applicationId dct:description) }
    sc:SoftwareApplication G:hasFeature sup:applicationId .
    sc:SoftwareApplication sup:hasFGTool sup:FeedbackGathering .
    sup:FeedbackGathering sup:generatesFeedback duv:UserFeedback .
    duv:UserFeedback G:hasFeature dct:description
}
"""

POSTS_QUERY = """
SELECT ?x ?y WHERE {
    VALUES (?x ?y) { (<urn:wordpress:post/id> <urn:wordpress:post/title>) }
    <urn:wordpress:Post> G:hasFeature <urn:wordpress:post/id> .
    <urn:wordpress:Post> G:hasFeature <urn:wordpress:post/title>
}
"""

COMMENTS_QUERY = """
SELECT ?x ?y WHERE {
    VALUES (?x ?y) { (<urn:wordpress:comment/id>
                      <urn:wordpress:comment/body>) }
    <urn:wordpress:Comment> G:hasFeature <urn:wordpress:comment/id> .
    <urn:wordpress:Comment> G:hasFeature <urn:wordpress:comment/body>
}
"""


def _median_seconds(fn, repeat: int = 25) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _us(seconds: float) -> str:
    return f"{seconds * 1e6:9.1f} µs"


def test_cold_warm_postrelease_running_example(write_result, write_json,
                                               catalog_cold):
    """Cold vs. warm vs. post-release on the §2.1 workload (≥10× warm).

    Cold rewrites run on an ontology of their own and each one misses
    the lookup catalog (``catalog_cold``), so the warm engine's ontology
    sees no edit outside the release machinery.
    """
    scenario = build_supersede()
    cold_ontology = build_supersede().ontology
    cold_engine = QueryEngine(cold_ontology, use_cache=False)
    engine = QueryEngine(scenario.ontology)

    cold_runs = [catalog_cold.time(
        cold_ontology, lambda: cold_engine.rewrite(EXEMPLARY_QUERY))
        for _ in range(25)]
    cold = statistics.median(seconds for seconds, _ in cold_runs)
    cold_selects = {selects for _, selects in cold_runs}
    _, catalog_warm_selects = catalog_cold.time_as_is(
        lambda: cold_engine.rewrite(EXEMPLARY_QUERY))
    engine.rewrite(EXEMPLARY_QUERY)
    engine.rewrite(FEEDBACK_QUERY)
    warm = _median_seconds(lambda: engine.rewrite(EXEMPLARY_QUERY))

    # The w4 release lands on Monitor/InfoMonitor: the exemplary query's
    # entry is invalidated (first rewrite recomputes, now 2 walks), the
    # feedback query's entry survives and stays warm.
    register_w4(scenario)
    start = time.perf_counter()
    recomputed = engine.rewrite(EXEMPLARY_QUERY)
    post_release = time.perf_counter() - start
    rewarmed = _median_seconds(lambda: engine.rewrite(EXEMPLARY_QUERY))
    survivor = _median_seconds(lambda: engine.rewrite(FEEDBACK_QUERY))

    speedup = cold / warm
    stats = engine.cache_stats
    content = "\n".join([
        "Release-aware rewriting cache — SUPERSEDE running example",
        "",
        f"cold rewrite (no cache)         {_us(cold)}   "
        f"{min(cold_selects)} selects (catalog-warm: "
        f"{catalog_warm_selects})",
        f"warm rewrite (cache hit)        {_us(warm)}   "
        f"{speedup:7.1f}× faster",
        f"post-release rewrite (miss)     {_us(post_release)}",
        f"re-warmed rewrite               {_us(rewarmed)}",
        f"survivor query across release   {_us(survivor)}",
        "",
        f"cache stats: {stats.snapshot()}",
    ])
    write_result("bench_rewrite_cache_running_example.txt", content)
    write_json("rewrite_cache_running_example", {
        "cold_seconds": cold,
        "cold_selects": min(cold_selects),
        "catalog_warm_selects": catalog_warm_selects,
        "warm_seconds": warm,
        "post_release_seconds": post_release,
        "rewarmed_seconds": rewarmed,
        "survivor_seconds": survivor,
        "warm_speedup": round(speedup, 1),
        "cache_stats": stats.snapshot(),
    })

    # Every timed cold rewrite issued the full lookup count: none was
    # answered from the catalog, which a plain repeat would have hit.
    assert len(cold_selects) == 1, cold_selects
    assert min(cold_selects) > catalog_warm_selects
    assert speedup >= 10, f"warm speedup only {speedup:.1f}×"
    assert len(recomputed.walks) == 2
    assert stats.invalidated == 1          # only the exemplary entry
    assert stats.survived_releases == 1    # the feedback entry


def test_warm_hit_steady_state(benchmark):
    """Steady-state warm path (parse memo + cache lookup), for the
    pytest-benchmark table."""
    scenario = build_supersede(with_evolution=True)
    engine = QueryEngine(scenario.ontology)
    engine.rewrite(EXEMPLARY_QUERY)
    result = benchmark(engine.rewrite, EXEMPLARY_QUERY)
    assert len(result.walks) == 2
    assert engine.cache_stats.misses == 1


def _wordpress_ontology() -> BDIOntology:
    """The §6.4 posts ontology plus an untouched Comment concept."""
    ontology = BDIOntology()
    _prepare_global_graph(ontology)
    comment = ontology.globals.add_concept(WP.Comment)
    ontology.globals.add_feature(comment, WP["comment/id"], is_id=True)
    ontology.globals.add_feature(comment, WP["comment/body"])
    release = build_release(
        ontology, "wordpress_comments", "wp_comments_v1",
        id_attributes=["id"], non_id_attributes=["body"],
        feature_hints={"id": WP["comment/id"],
                       "body": WP["comment/body"]})
    new_release(ontology, release)
    return ontology


def _land_posts_release(ontology, release_spec) -> None:
    """One Wordpress release through Algorithm 1 (as in growth.py)."""
    new_release(ontology, wordpress_release(ontology, release_spec))


def test_wordpress_release_storm(write_result, write_json):
    """15 releases land; the posts entry is extended every time (a miss
    that equals the uncached rewriting), the comments entry survives
    every time."""
    ontology = _wordpress_ontology()
    engine = QueryEngine(ontology)
    uncached = QueryEngine(ontology, use_cache=False)

    # Land v1 so the posts query is answerable, then prime both entries.
    _land_posts_release(ontology, WORDPRESS_RELEASES[0])
    engine.rewrite(POSTS_QUERY)
    engine.rewrite(COMMENTS_QUERY)

    cached_time = 0.0
    uncached_time = 0.0
    for release_spec in WORDPRESS_RELEASES[1:]:
        _land_posts_release(ontology, release_spec)
        for query in (POSTS_QUERY, COMMENTS_QUERY):
            start = time.perf_counter()
            cached = engine.rewrite(query)
            cached_time += time.perf_counter() - start
            start = time.perf_counter()
            cold = uncached.rewrite(query)
            uncached_time += time.perf_counter() - start
            # The extended (or surviving) rewriting is the one the
            # uncached engine computes, walk by walk and in order.
            assert [w.equivalence_key() for w in cached.walks] == \
                [w.equivalence_key() for w in cold.walks]
            assert cached.report() == cold.report()

    stats = engine.cache_stats
    releases_landed = len(WORDPRESS_RELEASES) - 1
    content = "\n".join([
        "Release-aware rewriting cache — Wordpress release storm (§6.4)",
        "",
        f"releases landed after priming: {releases_landed}",
        f"posts query   : extended on every release "
        f"({stats.extended} misses extended, "
        f"{stats.invalidated} recomputed)",
        f"comments query: survived every release "
        f"({stats.survived_releases} revalidations, "
        f"{stats.hits} warm hits)",
        "",
        f"analyst panel total, cached   : {cached_time * 1e3:8.2f} ms",
        f"analyst panel total, uncached : {uncached_time * 1e3:8.2f} ms",
        "",
        f"cache stats: {stats.snapshot()}",
    ])
    write_result("bench_rewrite_cache_wordpress.txt", content)
    write_json("rewrite_cache_wordpress", {
        "releases_landed": releases_landed,
        "cached_seconds": cached_time,
        "uncached_seconds": uncached_time,
        "cache_stats": stats.snapshot(),
    })

    # Fine-grained invalidation, asserted: every release touches Post
    # only and only adds a wrapper — the posts entry misses each round
    # and is extended, never recomputed; the comments entry hits.
    assert stats.extended == releases_landed
    assert stats.invalidated == 0
    assert stats.survived_releases == releases_landed
    assert stats.hits == releases_landed
    # The final posts rewriting spans every wrapper version so far.
    assert len(engine.rewrite(POSTS_QUERY).walks) == len(
        WORDPRESS_RELEASES)


#: the historical posts panel answered after every release
POSTS_PANEL = (
    ("title",), ("meta",), ("featured_media",), ("status",),
    ("id", "title"), ("title", "author", "date"),
    ("slug", "modified", "meta"),
    ("id", "featured_media", "excerpt", "sticky"),
)

#: inline rows each release's wrapper serves
ROWS_PER_RELEASE = 30


def _posts_panel_query(features) -> str:
    variables = " ".join(f"?v{i}" for i in range(len(features)))
    values = " ".join(f"<{WP[f'post/{f}']}>" for f in features)
    pattern = " .\n".join(
        f"<{WP.Post}> G:hasFeature <{WP[f'post/{f}']}>" for f in features)
    return (f"SELECT {variables} WHERE {{ VALUES ({variables}) "
            f"{{ ({values}) }}\n{pattern} }}")


def test_wordpress_answer_storm(write_result, write_json):
    """15 releases land through a service; after each one the panel's
    answers are extended by the new wrapper's rows (never recomputed)
    and equal the naive evaluator's bags."""
    ontology = BDIOntology()
    _prepare_global_graph(ontology)
    service = MDM(ontology).serving()
    client = service.client()
    naive = QueryEngine(ontology, use_planner=False, use_cache=False,
                        use_answer_cache=False)
    recomputing = QueryEngine(ontology, use_answer_cache=False)
    queries = [_posts_panel_query(q) for q in POSTS_PANEL]

    extended_time = 0.0
    recomputed_time = 0.0
    for index, spec in enumerate(WORDPRESS_RELEASES):
        release = wordpress_release(ontology, spec)
        release.wrapper = StaticWrapper(
            release.wrapper_name, release.source_name,
            release.id_attributes, release.non_id_attributes,
            rows=[{a: f"{release.wrapper_name}-{a}-{j}"
                   for a in release.attributes}
                  for j in range(ROWS_PER_RELEASE)])
        service.endpoint.handle_release(ReleaseRequest(
            release=release,
            absorbed_concepts=(str(WP.Post),) if index == 0 else (),
        )).raise_for_error()
        for query in queries:
            start = time.perf_counter()
            served = client.query(query).relation
            elapsed = time.perf_counter() - start
            start = time.perf_counter()
            recomputed = recomputing.answer(query)
            if index:
                extended_time += elapsed
                recomputed_time += time.perf_counter() - start
            assert served == naive.answer(query), (spec.version, query)
            assert recomputed == served

    stats = service.answer_cache.stats
    releases_landed = len(WORDPRESS_RELEASES) - 1
    content = "\n".join([
        "Release-delta answers — Wordpress release storm (§6.4)",
        "",
        f"releases landed after the first: {releases_landed}, "
        f"{len(queries)} panel queries answered after each",
        f"answers extended               : {stats.extended}",
        f"extension fallbacks            : {stats.extension_fallbacks}",
        "",
        f"panel total, extended answers  : {extended_time * 1e3:8.2f} ms",
        f"panel total, recomputed answers: {recomputed_time * 1e3:8.2f} ms",
        "",
        f"answer cache stats: {stats.snapshot()}",
    ])
    write_result("bench_rewrite_cache_wordpress_answers.txt", content)
    write_json("rewrite_cache_wordpress_answers", {
        "releases_landed": releases_landed,
        "queries_per_release": len(queries),
        "extended_seconds": extended_time,
        "recomputed_seconds": recomputed_time,
        "answer_cache_stats": stats.snapshot(),
    })
    client.close()
    service.close()

    # Release 1 absorbs the modelling of Post, so there is nothing to
    # extend yet; each later release only adds a wrapper.
    assert stats.extended == releases_landed * len(queries)
    assert stats.extension_fallbacks == {}
