"""RewriteCache under concurrency: consistent stats, no stale servings.

Satellite coverage for the serving layer: threaded tests hammer one
shared cache from many engines/threads and assert the counters never
tear, plus release-ordering tests proving that once a release has
landed, ``answer_many`` never serves a pre-release rewriting. A
hypothesis test pins the canonical-key property the whole dedupe path
rests on (surface syntax does not split cache entries).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings, strategies as st

import repro.query.cache as cache_module
from repro.query.cache import RewriteCache, canonical_omq_key
from repro.query.engine import QueryEngine
from repro.service import (
    analyst_panel, build_industrial_service, next_version_release,
)

THREADS = 8
ROUNDS = 40


class TestThreadedCacheConsistency:
    def test_stats_stay_consistent_under_contention(self, monkeypatch):
        scenario = build_industrial_service()
        # force LRU churn too
        monkeypatch.setattr(cache_module, "REWRITE_CACHE_ENTRIES", 3)
        cache = RewriteCache()
        queries = scenario.query_texts()
        barrier = threading.Barrier(THREADS)

        def hammer(seed: int) -> None:
            engine = QueryEngine(scenario.ontology)
            engine.cache = cache
            barrier.wait()
            for i in range(ROUNDS):
                engine.rewrite(queries[(seed + i) % len(queries)])

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(hammer, range(THREADS)))

        stats = cache.stats
        assert stats.lookups == THREADS * ROUNDS
        assert stats.hits + stats.misses == stats.lookups
        assert len(cache) <= 3
        # Every entry is accounted for: each miss stored once, and a
        # stored entry either is still live, was replaced by a racing
        # duplicate miss, was taken to be extended, or was evicted by
        # exactly one counter.
        assert stats.stores == stats.misses
        assert stats.stores == (
            len(cache) + stats.replacements + stats.lru_evictions
            + stats.invalidated + stats.structure_evictions
            + stats.lineage_evictions + stats.extended)

    def test_concurrent_invalidation_never_tears_counters(self):
        scenario = build_industrial_service()
        engine = scenario.mdm.engine
        cache = scenario.mdm.cache
        panel = analyst_panel(scenario, analysts=4)
        stop = threading.Event()

        def invalidator() -> None:
            concepts = [entry.concepts for entry in cache.entries()]
            while not stop.is_set():
                for concept_set in concepts:
                    cache.invalidate_concepts(concept_set)
                cache.clear()
        engine.answer_many(panel)  # prime entries for the invalidator

        thread = threading.Thread(target=invalidator)
        thread.start()
        try:
            for _ in range(10):
                relations = engine.answer_many(panel, workers=4)
                assert all(len(r.rows) == 24 for r in relations)
        finally:
            stop.set()
            thread.join(timeout=10)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.lookups


class TestInvalidationOrdering:
    def test_answer_many_never_serves_pre_release_rewritings(self):
        """After a release lands, batches must reflect it immediately."""
        scenario = build_industrial_service()
        engine = scenario.mdm.engine
        query = scenario.queries["twitter_api"]
        panel = analyst_panel(scenario, analysts=4)

        engine.answer_many(panel, workers=4)  # warm every entry
        before = {len(r.rows) for q, r in zip(
            panel, engine.answer_many(panel, workers=4)) if q == query}
        assert before == {24}

        scenario.mdm.register_release(
            next_version_release(scenario, "twitter_api"))

        for _ in range(3):
            relations = engine.answer_many(panel, workers=4)
            for q, relation in zip(panel, relations):
                expected = 48 if q == query else 24
                assert len(relation.rows) == expected, \
                    "stale pre-release rewriting served after release"
        # The release only added a wrapper, so the touched concept's
        # entry was extended by its walks rather than invalidated.
        assert scenario.mdm.cache.stats.extended == 1
        assert scenario.mdm.cache.stats.invalidated == 0

    def test_interleaved_batches_and_releases(self):
        scenario = build_industrial_service()
        engine = scenario.mdm.engine
        query = scenario.queries["amazon_mws"]
        engine.answer_many(analyst_panel(scenario, analysts=2))
        for version in (2, 3, 4):
            scenario.mdm.register_release(next_version_release(
                scenario, "amazon_mws", version=version))
            relations = engine.answer_many([query] * 6, workers=4)
            # v1 ∪ ... ∪ vN over disjoint 24-row id ranges.
            assert {len(r.rows) for r in relations} == {24 * version}


class TestCanonicalKeyProperty:
    _WS = st.sampled_from([" ", "  ", "\n", "\n    "])

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_surface_syntax_never_splits_keys(self, data):
        """Shuffled triple order + arbitrary whitespace → one key."""
        from repro.query.omq import parse_omq
        triples = [
            "sc:SoftwareApplication G:hasFeature sup:applicationId",
            "sc:SoftwareApplication sup:hasMonitor sup:Monitor",
            "sup:Monitor sup:generatesQoS sup:InfoMonitor",
            "sup:InfoMonitor G:hasFeature sup:lagRatio",
        ]
        shuffled = data.draw(st.permutations(triples))
        ws = data.draw(self._WS)
        query = (
            "SELECT ?x ?y WHERE {" + ws
            + "VALUES (?x ?y) { (sup:applicationId sup:lagRatio) }" + ws
            + (" ." + ws).join(shuffled) + ws + "}")
        reference = parse_omq(
            "SELECT ?x ?y WHERE {\n"
            "VALUES (?x ?y) { (sup:applicationId sup:lagRatio) }\n"
            + " .\n".join(triples) + "\n}")
        assert canonical_omq_key(parse_omq(query)) == \
            canonical_omq_key(reference)
