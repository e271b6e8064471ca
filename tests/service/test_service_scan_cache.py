"""Serving-layer scan-cache tests: cross-query sharing, scans that
outlive releases, rebinds, observability."""

import pytest

import repro.relational.physical as physical_module
from repro.api.protocol import QueryRequest, ReleaseRequest
from repro.query import QueryEngine
from repro.service.workload import (
    _API_FIELDS, LatencyWrapper, _api_query, analyst_panel,
    build_industrial_service, next_version_release,
)


def count_fetches(scenario, counts=None, wrappers=None):
    """Instrument *wrappers* (default: every bound wrapper); returns the
    live counter dict, name → fetches."""
    counts = {} if counts is None else counts
    if wrappers is None:
        wrappers = scenario.ontology._physical.values()
    for wrapper in wrappers:
        original = wrapper.fetch_rows

        def counted(columns=None, _o=original,
                    _n=wrapper.name):
            counts[_n] = counts.get(_n, 0) + 1
            return _o(columns=columns)

        wrapper.fetch_rows = counted
    return counts


def governed_answer(service, query):
    """One governed read through the service's client session."""
    return service.client().query(query).relation


def oracle(ontology, query):
    """The naive reference answer at the current T."""
    return QueryEngine(ontology, use_planner=False, use_cache=False,
                       use_answer_cache=False).answer(query)


class TestServingScanCache:
    def test_repeated_queries_fetch_each_wrapper_once(self):
        scenario = build_industrial_service(rows_per_wrapper=8)
        counts = count_fetches(scenario)
        service = scenario.mdm.serving()
        query = scenario.query_texts()[0]
        for _ in range(5):
            assert len(governed_answer(service, query)) == 8
        assert sum(counts.values()) == 1  # one wrapper, one fetch
        # warm repeats are served above the scan cache entirely
        assert service.answer_cache.stats.hits >= 4

    def test_scan_cache_shares_fetches_when_answers_not_cached(self):
        scenario = build_industrial_service(rows_per_wrapper=8)
        counts = count_fetches(scenario)
        service = scenario.mdm.serving()
        query = scenario.query_texts()[0]
        for _ in range(5):
            service.answer_cache.clear()  # force re-execution
            assert len(governed_answer(service, query)) == 8
        assert sum(counts.values()) == 1  # scans still shared
        assert service.scan_cache.stats.hits >= 4

    def test_batch_shares_scans_across_analysts(self):
        scenario = build_industrial_service(rows_per_wrapper=6)
        counts = count_fetches(scenario)
        service = scenario.mdm.serving()
        panel = analyst_panel(scenario, analysts=6)  # 30 queries, 5 keys
        answers = service.endpoint.handle_query_batch(
            [QueryRequest(query=query) for query in panel])
        assert len(answers) == len(panel)
        assert all(a.ok for a in answers)
        # five unique queries over five wrappers: exactly one fetch each
        assert sum(counts.values()) == 5

    def test_release_refetches_only_the_new_wrapper(self, monkeypatch):
        # Without answers to extend, the answer after the release reads
        # the old wrappers again, from scans that outlived it.
        monkeypatch.setenv("REPRO_ANSWER_CACHE", "0")
        scenario = build_industrial_service(rows_per_wrapper=4)
        service = scenario.mdm.serving()
        query = scenario.queries["twitter_api"]
        before = {r["id"] for r in governed_answer(service, query)}
        cached = len(service.scan_cache)
        assert cached > 0
        hits = service.scan_cache.stats.hits
        release = next_version_release(scenario, rows_per_wrapper=4)
        counts = count_fetches(scenario)
        count_fetches(scenario, counts, [release.wrapper])
        service.endpoint.handle_release(
            ReleaseRequest(release=release)).raise_for_error()
        assert len(service.scan_cache) == cached  # scans outlive it
        answer = governed_answer(service, query)
        after = {r["id"] for r in answer}
        assert after != before  # the new wrapper's rows are in
        assert counts == {release.wrapper.name: 1}
        assert service.scan_cache.stats.hits > hits  # old scans reused
        assert answer == oracle(scenario.ontology, query)
        assert service.scan_cache.stats.invalidations == 0

    def test_rebound_wrapper_is_fetched_again(self):
        scenario = build_industrial_service(rows_per_wrapper=4)
        service = scenario.mdm.serving()
        query = scenario.queries["twitter_api"]
        governed_answer(service, query)
        old = scenario.ontology.physical_wrapper("twitter_api_v1")
        rows = [{**row, "id": row["id"] + 100} for row in old._rows]
        rebound = LatencyWrapper(old.name, old.source_name,
                                 id_attributes=list(old.id_attributes),
                                 non_id_attributes=list(
                                     old.non_id_attributes),
                                 rows=rows)
        assert rebound.data_version() == old.data_version()
        scenario.ontology.bind_wrapper(rebound)
        answer = governed_answer(service, query)
        assert {r["id"] for r in answer} == {100, 101, 102, 103}
        assert answer == oracle(scenario.ontology, query)
        stats = service.scan_cache.stats
        assert stats.rebind_evictions >= 1
        assert stats.version_evictions == 0

    def test_describe_reports_scan_cache(self):
        scenario = build_industrial_service(rows_per_wrapper=2)
        service = scenario.mdm.serving()
        governed_answer(service, scenario.query_texts()[0])
        text = service.describe()
        assert "scan cache" in text
        assert "misses = 1" in text
        assert "evictions: data version = 0, rebind = 0" in text


class TestScanCacheBudget:
    """The serving scan cache is an LRU bounded in scans and in rows:
    distinct column sets past the budget evict the least-recent scans,
    and every answer stays equal to the naive oracle."""

    @pytest.mark.parametrize("bound,value", [
        ("SCAN_CACHE_ENTRIES", 2),
        ("SCAN_CACHE_ROWS", 16),  # two 8-row scans
    ])
    def test_distinct_column_sets_past_the_budget(self, monkeypatch,
                                                  bound, value):
        monkeypatch.setattr(physical_module, bound, value)
        scenario = build_industrial_service(rows_per_wrapper=8)
        fields = _API_FIELDS["google_calendar"]
        # one column set per query: id plus one field, then id plus two
        queries = ([_api_query("google_calendar", [f]) for f in fields]
                   + [_api_query("google_calendar", fields[:2])])
        expected = [oracle(scenario.ontology, q) for q in queries]
        counts = count_fetches(scenario)
        service = scenario.mdm.serving()
        for query, answer in zip(queries, expected):
            assert governed_answer(service, query) == answer
        stats = service.scan_cache.stats
        assert stats.misses == len(queries) == sum(counts.values())
        assert stats.lru_evictions == len(queries) - 2 > 0
        assert len(service.scan_cache) == 2
        assert "LRU = 2" in service.describe()
        # the oldest scan was evicted: re-requesting it fetches again
        service.answer_cache.clear()
        assert governed_answer(service, queries[0]) == expected[0]
        assert sum(counts.values()) == len(queries) + 1
        # the newest scan is still cached
        service.answer_cache.clear()
        assert governed_answer(service, queries[-1]) == expected[-1]
        assert sum(counts.values()) == len(queries) + 1
        assert stats.hits == 1
