"""Figure 11 (paper §6.4): ontology growth over Wordpress releases.

Replays the reconstructed GET-Posts release history (v1, v2, 13 minor
v2.x releases) and regenerates the per-release triple-growth chart with
the cumulative series. A second replay gates the metadata path on the
same growth axis: cold rewrite+plan cost per emitted walk must stay
roughly flat while ``T`` grows. Next to it, the same replay records the
first rewrite after each release when the rewrite cache extends the
previous release's rewriting by the new wrapper's walk (informational).
"""

from __future__ import annotations

import statistics
import time

from repro.evolution.growth import ascii_chart, replay_wordpress
from repro.evolution.wordpress import WORDPRESS_RELEASES


def test_figure11_replay(benchmark, write_result):
    ontology, records = benchmark.pedantic(
        replay_wordpress, rounds=3, iterations=1, warmup_rounds=0)

    lines = [
        "Figure 11 — growth in number of triples for S per release "
        "(Wordpress GET Posts)",
        "",
        ascii_chart(records),
        "",
        "release, +S, +M, +LAV, +G, hasAttribute_edges, new_attributes, "
        "cumulative_S",
    ]
    for r in records:
        lines.append(
            f"{r.version}, {r.added_s}, {r.added_m}, {r.added_lav}, "
            f"{r.added_g}, {r.has_attribute_edges}, {r.new_attributes}, "
            f"{r.cumulative_s}")
    write_result("figure11_wordpress_growth.txt", "\n".join(lines))

    # Shape assertions mirroring the paper's §6.4 findings:
    assert len(records) == len(WORDPRESS_RELEASES)
    # (1) v1 carries the big overhead;
    assert records[0].added_s == max(r.added_s for r in records)
    # (2) minor releases show steady, linear growth dominated by
    #     S:hasAttribute edges;
    minors = records[2:]
    assert max(r.added_s for r in minors) - min(
        r.added_s for r in minors) <= 8
    assert all(r.has_attribute_edges >= r.new_attributes for r in minors)
    # (3) G does not grow;
    assert all(r.added_g == 0 for r in records)
    # (4) cumulative S growth is monotone (historical preservation).
    cumulative = [r.cumulative_s for r in records]
    assert cumulative == sorted(cumulative)
    assert ontology.validate() == []


def test_figure11_single_release_cost(benchmark):
    """Cost of Algorithm 1 for one minor release (the steady state)."""
    from repro.core.release import new_release
    from repro.evolution.growth import _prepare_global_graph, WP
    from repro.evolution.release_builder import build_release
    from repro.core.ontology import BDIOntology
    from repro.evolution.wordpress import WORDPRESS_RELEASES

    spec = WORDPRESS_RELEASES[5]  # a representative minor release

    def setup():
        ontology = BDIOntology()
        _prepare_global_graph(ontology)
        return (ontology,), {}

    def apply_release(ontology):
        from repro.evolution.growth import _canonical_feature
        hints = {name: WP[f"post/{_canonical_feature(name)}"]
                 for name in spec.fields}
        hints["id"] = WP["post/id"]
        release = build_release(
            ontology, "wordpress_posts", "wp_bench",
            id_attributes=["id"],
            non_id_attributes=[f for f in spec.fields if f != "id"],
            feature_hints=hints)
        return new_release(ontology, release)

    delta = benchmark.pedantic(apply_release, setup=setup, rounds=10,
                               iterations=1)
    assert delta["S"] > 0


#: the historical posts query: after release k it unions k walks
POSTS_QUERY = """
SELECT ?x ?y WHERE {
    VALUES (?x ?y) { (<urn:wordpress:post/id> <urn:wordpress:post/title>) }
    <urn:wordpress:Post> G:hasFeature <urn:wordpress:post/id> .
    <urn:wordpress:Post> G:hasFeature <urn:wordpress:post/title>
}
"""

#: the last release's ms/walk may be at most this multiple of the early
#: releases' median (releases 2-5)
GROWTH_LIMIT = 1.5

#: interleaved rounds of one cold rewrite+plan per release state; the
#: median per state is recorded
ROUNDS = 7


def _extended_rewrite_ms() -> list[float]:
    """Median ms of the first posts rewrite after releases 2..N when a
    cached engine extends the rewriting it held before the release
    (release 1 has nothing to extend)."""
    from repro.core.release import new_release
    from repro.evolution.growth import wordpress_release
    from repro.query.engine import QueryEngine

    samples: list[list[float]] = [[] for _ in WORDPRESS_RELEASES[1:]]
    for _ in range(ROUNDS):
        ontology, _records = replay_wordpress(WORDPRESS_RELEASES[:1])
        engine = QueryEngine(ontology)
        engine.rewrite(POSTS_QUERY)
        for spec, timings in zip(WORDPRESS_RELEASES[1:], samples):
            new_release(ontology, wordpress_release(ontology, spec))
            start = time.perf_counter()
            engine.rewrite(POSTS_QUERY)
            timings.append(time.perf_counter() - start)
        assert engine.cache_stats.extended == len(samples)
    return [statistics.median(t) * 1e3 for t in samples]


def test_figure11_rewrite_plan_flat(write_result, write_json, catalog_cold):
    """Cold rewrite+plan ms per walk stays flat across the release history.

    Raw per-query time legitimately grows — the historical query unions
    one more walk per release — so the flat quantity is the cost per
    emitted walk. Metadata work that scales with |T| (copying the
    ontology per lookup) shows up here as a rising series.

    The ontology after each release is kept, and every round times one
    cold query against each of them in turn, so a drift in machine speed
    lands on all releases alike instead of on the late ones. "Cold"
    means catalog-cold too: each timed query misses the ontology's
    lookup catalog and issues the same selects every round.
    """
    from repro.query.engine import QueryEngine

    states = [replay_wordpress(WORDPRESS_RELEASES[:count])[0]
              for count in range(1, len(WORDPRESS_RELEASES) + 1)]
    walks = [len(QueryEngine(t, use_cache=False).rewrite(POSTS_QUERY).walks)
             for t in states]
    samples: list[list[float]] = [[] for _ in states]
    selects: list[set[int]] = [set() for _ in states]
    for _ in range(ROUNDS):
        for ontology, timings, counts in zip(states, samples, selects):
            engine = QueryEngine(ontology, use_cache=False)
            seconds, issued = catalog_cold.time(
                ontology, lambda: engine.plan(POSTS_QUERY))
            timings.append(seconds)
            counts.add(issued)
    query_ms = [statistics.median(t) * 1e3 for t in samples]
    per_walk_ms = [ms / n for ms, n in zip(query_ms, walks)]
    extended_ms = _extended_rewrite_ms()

    early = statistics.median(per_walk_ms[1:5])
    ratio = per_walk_ms[-1] / early
    lines = ["Cold rewrite+plan per emitted walk over the Wordpress "
             "release history", "",
             "release, walks, triples, rewrite+plan ms, ms per walk, "
             "extended rewrite ms"]
    for spec, ontology, n, ms, extended in zip(
            WORDPRESS_RELEASES, states, walks, query_ms,
            [None, *extended_ms]):
        lines.append(f"{spec.version}, {n}, "
                     f"{ontology.dataset.quad_count()}, {ms:.2f}, "
                     f"{ms / n:.3f}, "
                     + ("-" if extended is None else f"{extended:.2f}"))
    lines += ["", f"last / median(releases 2-5) = {ratio:.2f} "
                  f"(limit {GROWTH_LIMIT})"]
    write_result("figure11_rewrite_plan.txt", "\n".join(lines))
    write_json("figure11_rewrite", {
        "releases": len(WORDPRESS_RELEASES),
        "ms_per_walk": [round(v, 4) for v in per_walk_ms],
        "early_median_ms_per_walk": round(early, 4),
        "last_ms_per_walk": round(per_walk_ms[-1], 4),
        "last_over_early": round(ratio, 3),
        "cold_selects": [min(counts) for counts in selects],
        # informational: the first rewrite after releases 2..N when
        # the cached rewriting is extended rather than recomputed
        "extended_rewrite_ms": [round(v, 4) for v in extended_ms],
        "growth_limit": GROWTH_LIMIT,
    })
    assert walks == list(range(1, len(WORDPRESS_RELEASES) + 1))
    # Every round of a state issued its full cold select count, and a
    # repeat at the same T (answered from the catalog) issues fewer.
    assert all(len(counts) == 1 for counts in selects), selects
    # One providing-attributes select per feature serves every wrapper,
    # so the cold count does not grow with the history.
    assert len({min(counts) for counts in selects}) == 1, selects
    _, repeat_selects = catalog_cold.time_as_is(
        lambda: QueryEngine(states[-1], use_cache=False).plan(POSTS_QUERY))
    assert repeat_selects < min(selects[-1])
    assert ratio <= GROWTH_LIMIT, (
        f"rewrite+plan per walk grew {ratio:.2f}x over the release "
        f"history (limit {GROWTH_LIMIT}x)")
