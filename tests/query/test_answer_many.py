"""QueryEngine.answer_many: dedupe, fan-out, ordering, parse-memo LRU."""

from __future__ import annotations

import pytest

from repro.datasets import EXEMPLARY_QUERY
from repro.errors import UnanswerableQueryError
from repro.query import engine as engine_module
from repro.query.engine import QueryEngine

#: the same OMQ as EXEMPLARY_QUERY under different SPARQL surface syntax
#: (reordered WHERE triples, different whitespace) — one canonical key
VARIANT_QUERY = """
SELECT ?x ?y
FROM <http://www.essi.upc.edu/~snadal/BDIOntology/Global>
WHERE {
    VALUES (?x ?y) { (sup:applicationId sup:lagRatio) }
    sup:InfoMonitor G:hasFeature sup:lagRatio .
    sup:Monitor sup:generatesQoS sup:InfoMonitor .
    sc:SoftwareApplication sup:hasMonitor sup:Monitor .
    sc:SoftwareApplication   G:hasFeature   sup:applicationId
}
"""


#: a second OMQ over the same walk: the projection order differs, so
#: its canonical key does too
REORDERED_QUERY = """
SELECT ?y ?x WHERE {
    VALUES (?y ?x) { (sup:lagRatio sup:applicationId) }
    sc:SoftwareApplication G:hasFeature sup:applicationId .
    sc:SoftwareApplication sup:hasMonitor sup:Monitor .
    sup:Monitor sup:generatesQoS sup:InfoMonitor .
    sup:InfoMonitor G:hasFeature sup:lagRatio
}
"""


def _canon(relation) -> list[tuple]:
    return sorted(tuple(sorted(row.items())) for row in relation.rows)


class TestBatchAnswering:
    def test_results_align_with_input_order(self, engine):
        single = engine.answer(EXEMPLARY_QUERY)
        batch = engine.answer_many(
            [EXEMPLARY_QUERY, VARIANT_QUERY, EXEMPLARY_QUERY])
        assert len(batch) == 3
        for relation in batch:
            assert _canon(relation) == _canon(single)

    def test_textual_variants_rewrite_once_and_share_result(
            self, ontology):
        engine = QueryEngine(ontology)
        batch = engine.answer_many(
            [EXEMPLARY_QUERY, VARIANT_QUERY, EXEMPLARY_QUERY],
            workers=4)
        # One canonical key → one cache miss, results share the object.
        assert engine.cache_stats.misses == 1
        assert engine.cache_stats.hits == 0
        assert batch[0] is batch[1]
        assert batch[1] is batch[2]

    def test_threaded_equals_sequential(self, ontology):
        sequential = QueryEngine(ontology).answer_many(
            [EXEMPLARY_QUERY, VARIANT_QUERY])
        threaded = QueryEngine(ontology).answer_many(
            [EXEMPLARY_QUERY, VARIANT_QUERY], workers=8)
        assert [_canon(r) for r in sequential] == \
            [_canon(r) for r in threaded]

    def test_empty_batch(self, engine):
        assert engine.answer_many([]) == []

    def test_uncached_engine_still_batches(self, ontology):
        engine = QueryEngine(ontology, use_cache=False)
        batch = engine.answer_many([EXEMPLARY_QUERY, VARIANT_QUERY],
                                   workers=2)
        assert _canon(batch[0]) == _canon(batch[1])


class TestCachedAnswersInline:
    """Cached answers are served on the calling thread; a pool starts
    only for two or more answers that need computing."""

    @pytest.fixture()
    def pools(self, monkeypatch):
        started: list[int] = []
        real = engine_module.ThreadPoolExecutor

        def counted(*args, **kwargs):
            started.append(kwargs.get("max_workers", 0))
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "ThreadPoolExecutor", counted)
        return started

    def test_all_cached_batch_starts_no_thread(self, ontology, pools):
        engine = QueryEngine(ontology)
        cold = engine.answer_many([EXEMPLARY_QUERY, REORDERED_QUERY],
                                  workers=4)
        assert pools == [2]
        warm = engine.answer_many(
            [EXEMPLARY_QUERY, REORDERED_QUERY, VARIANT_QUERY], workers=4)
        assert pools == [2]  # no pool for cached answers
        assert warm[0] is cold[0] and warm[1] is cold[1]
        assert warm[2] is warm[0]

    def test_one_pending_answer_runs_inline(self, ontology, pools):
        engine = QueryEngine(ontology)
        engine.answer(EXEMPLARY_QUERY)
        batch = engine.answer_many([EXEMPLARY_QUERY, REORDERED_QUERY],
                                   workers=4)
        assert pools == []
        assert _canon(batch[1]) == _canon(engine.answer(REORDERED_QUERY))

    def test_stats_count_once_per_unique_query(self, ontology):
        engine = QueryEngine(ontology)
        batch = [EXEMPLARY_QUERY, REORDERED_QUERY, VARIANT_QUERY]
        engine.answer_many(batch, workers=4)
        rewrites, answers = engine.cache_stats, engine.answer_cache_stats
        assert (rewrites.misses, rewrites.hits) == (2, 0)
        assert (answers.misses, answers.hits, answers.stores) == (2, 0, 2)
        engine.answer_many(batch, workers=4)
        assert (rewrites.misses, rewrites.hits) == (2, 2)
        assert (answers.misses, answers.hits, answers.stores) == (2, 2, 2)


class TestBatchFailures:
    # bitrate exists in G but no wrapper provides it.
    UNANSWERABLE = """
    SELECT ?x WHERE {
        VALUES (?x) { (sup:bitrate) }
        sup:InfoMonitor G:hasFeature sup:bitrate
    }
    """

    def test_default_raises_after_settling(self, engine):
        with pytest.raises(UnanswerableQueryError):
            engine.answer_many([EXEMPLARY_QUERY, self.UNANSWERABLE],
                               workers=2)

    def test_return_exceptions_keeps_slots(self, engine):
        batch = engine.answer_many(
            [EXEMPLARY_QUERY, self.UNANSWERABLE, EXEMPLARY_QUERY],
            workers=2, return_exceptions=True)
        assert isinstance(batch[1], UnanswerableQueryError)
        assert _canon(batch[0]) == _canon(batch[2])


class TestParseMemo:
    def test_memo_is_lru_bounded(self, ontology, monkeypatch):
        monkeypatch.setattr(engine_module, "PARSE_MEMO_MAX", 2)
        engine = QueryEngine(ontology)
        spacings = [EXEMPLARY_QUERY + "\n" * i for i in range(5)]
        for query in spacings:
            engine.rewrite(query)
        assert engine.parse_memo_size() == 2
        # All five texts canonicalize onto one cached rewriting.
        assert engine.cache_stats.misses == 1
        assert engine.cache_stats.hits == 4

    def test_memo_keeps_recently_used_entries(self, ontology,
                                              monkeypatch):
        monkeypatch.setattr(engine_module, "PARSE_MEMO_MAX", 2)
        engine = QueryEngine(ontology)
        a, b, c = (EXEMPLARY_QUERY, EXEMPLARY_QUERY + "\n",
                   EXEMPLARY_QUERY + "\n\n")
        engine.rewrite(a)
        engine.rewrite(b)
        engine.rewrite(a)  # refresh a; b is now the LRU victim
        engine.rewrite(c)  # evicts b
        size_before = engine.parse_memo_size()
        engine.rewrite(a)  # must still be memoized — no growth
        assert engine.parse_memo_size() == size_before == 2

    def test_prefix_change_clears_memo(self, ontology):
        engine = QueryEngine(ontology)
        engine.rewrite(EXEMPLARY_QUERY)
        engine.rewrite(EXEMPLARY_QUERY + "\n")
        assert engine.parse_memo_size() == 2
        engine.prefixes["extra"] = "urn:extra:"
        engine.rewrite(EXEMPLARY_QUERY)
        # The stale memo (built under the old bindings) was dropped.
        assert engine.parse_memo_size() == 1

    def test_canonical_key_computed_once_per_text(self, ontology,
                                                  monkeypatch):
        calls: list[str] = []
        real = engine_module.canonical_omq_key

        def counted(omq):
            calls.append("key")
            return real(omq)

        monkeypatch.setattr(engine_module, "canonical_omq_key", counted)
        engine = QueryEngine(ontology)
        engine.answer(EXEMPLARY_QUERY)
        assert len(calls) == 1
        engine.answer(EXEMPLARY_QUERY)
        engine.answer_many([EXEMPLARY_QUERY, EXEMPLARY_QUERY], workers=2)
        assert len(calls) == 1  # carried in the parse memo
        engine.answer_many([VARIANT_QUERY])
        assert len(calls) == 2
