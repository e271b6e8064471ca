"""Full answer cache: unit semantics, engine integration, evidence-based
invalidation (ontology fingerprint + wrapper data_versions)."""

import json

import pytest

from repro.datasets import EXEMPLARY_QUERY, build_supersede
from repro.datasets.supersede import register_w4
import repro.query.answer_cache as answer_cache_module
from repro.query import AnswerCache, QueryEngine
from repro.relational import Relation
from repro.relational.schema import RelationSchema


def relation_of(n):
    schema = RelationSchema.of("r", ids=["id"], non_ids=[], source=None)
    return Relation(schema, [{"id": i} for i in range(n)])


VERSIONS = (("w1", 0), ("w3", 2))


class TestAnswerCacheUnit:
    def test_store_then_hit(self):
        cache = AnswerCache()
        answer = relation_of(2)
        cache.store("q", True, "fp", VERSIONS, answer)
        assert cache.lookup("q", True, "fp", VERSIONS) is answer
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert "q" in cache

    def test_distinct_keys_separately(self):
        cache = AnswerCache()
        bag, dedup = relation_of(3), relation_of(2)
        cache.store("q", False, "fp", VERSIONS, bag)
        cache.store("q", True, "fp", VERSIONS, dedup)
        assert len(cache) == 2
        assert cache.lookup("q", False, "fp", VERSIONS) is bag
        assert cache.lookup("q", True, "fp", VERSIONS) is dedup

    def test_fingerprint_mismatch_evicts(self):
        cache = AnswerCache()
        cache.store("q", True, "fp1", VERSIONS, relation_of(1))
        assert cache.lookup("q", True, "fp2", VERSIONS) is None
        assert cache.stats.evictions == 1
        assert cache.stats.misses == 1
        assert len(cache) == 0  # gone, not retried

    def test_data_version_mismatch_keeps_entry(self):
        cache = AnswerCache()
        cache.store("q", True, "fp", VERSIONS, relation_of(1))
        moved = (("w1", 0), ("w3", 3))
        action = []
        assert cache.lookup("q", True, "fp", moved, action=action) is None
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 0
        # only the data moved: the entry waits for the patch path
        (verdict, entry), = action
        assert verdict == "patch"
        assert entry is not None and entry.data_versions == VERSIONS

    def test_rebind_evicts_even_when_patchable(self):
        class Bound:
            """Two objects that compare equal but are not the same."""

            def __eq__(self, other):
                return isinstance(other, Bound)

            __hash__ = None

        cache = AnswerCache()
        old, new = Bound(), Bound()
        cache.store("q", True, "fp", VERSIONS, relation_of(1),
                    bound=(old,))
        assert cache.lookup("q", True, "fp", VERSIONS, bound=(old,))
        action = []
        assert cache.lookup("q", True, "fp", VERSIONS,
                            bound=(new,), action=action) is None
        assert cache.stats.evictions == 1
        assert action == [("compute", None)]
        assert "q" not in cache

    def test_lru_eviction_past_cap(self, monkeypatch):
        monkeypatch.setattr(answer_cache_module, "ANSWER_CACHE_ENTRIES", 2)
        cache = AnswerCache()
        for key in ("a", "b", "c"):
            cache.store(key, True, "fp", VERSIONS, relation_of(1))
        assert len(cache) == 2
        assert "a" not in cache  # oldest dropped
        # a hit refreshes recency
        cache.lookup("b", True, "fp", VERSIONS)
        cache.store("d", True, "fp", VERSIONS, relation_of(1))
        assert "b" in cache and "c" not in cache

    def test_patch_re_weighs_the_entry(self, monkeypatch):
        monkeypatch.setattr(answer_cache_module, "ANSWER_CACHE_ROWS", 3)
        cache = AnswerCache()
        entry = cache.store("a", True, "fp", VERSIONS, relation_of(1))
        cache.install_patch(entry, relation_of(3), VERSIONS,
                            standing=None, kind="patch")
        # the patched answer now weighs 3 rows, so one more row
        # pushes it out
        cache.store("b", True, "fp", VERSIONS, relation_of(1))
        assert "a" not in cache and "b" in cache
        assert cache.stats.lru_evictions == 1
        assert cache.stats.snapshot()["lru_evictions"] == 1

    def test_clear_counts_invalidations(self):
        cache = AnswerCache()
        cache.store("q", True, "fp", VERSIONS, relation_of(1))
        assert cache.clear() == 1
        assert cache.clear() == 0  # empty clears are not events
        assert cache.stats.invalidations == 1
        snapshot = cache.stats.snapshot()
        assert snapshot["stores"] == 1
        assert snapshot["hit_rate"] == 0.0


@pytest.fixture()
def scenario():
    return build_supersede(with_evolution=True)


def count_fetches(scenario):
    counts: dict[str, int] = {}
    for name, wrapper in scenario.wrappers.items():
        original = wrapper.fetch_rows

        def counted(columns=None, _o=original, _n=name):
            counts[_n] = counts.get(_n, 0) + 1
            return _o(columns=columns)

        wrapper.fetch_rows = counted
    return counts


class TestEngineIntegration:
    def test_warm_repeat_skips_execution_entirely(self, scenario):
        counts = count_fetches(scenario)
        engine = QueryEngine(scenario.ontology)
        first = engine.answer(EXEMPLARY_QUERY)
        fetched = sum(counts.values())
        assert fetched > 0
        second = engine.answer(EXEMPLARY_QUERY)
        assert second is first  # the materialized answer itself
        assert sum(counts.values()) == fetched  # zero new fetches
        assert engine.answer_cache_stats.hits == 1

    def test_data_version_bump_invalidates(self, scenario):
        # the stale answer is never served as a hit; it is brought
        # current (the patch path is covered in tests/streaming/)
        engine = QueryEngine(scenario.ontology)
        before = engine.answer(EXEMPLARY_QUERY)
        w3 = scenario.wrappers["w3"]
        w3.replace_rows(w3._rows)  # same data, new data_version
        after = engine.answer(EXEMPLARY_QUERY)
        assert after is not before
        assert after == before  # maintained, same content
        stats = engine.answer_cache.stats
        assert (stats.hits, stats.misses) == (0, 2)

    def test_data_version_bump_patches_incrementally(self, scenario):
        engine = QueryEngine(scenario.ontology)
        before = engine.answer(EXEMPLARY_QUERY)
        w3 = scenario.wrappers["w3"]
        w3.replace_rows(w3._rows)  # same data, new data_version
        after = engine.answer(EXEMPLARY_QUERY)
        assert after == before  # maintained, same content
        stats = engine.answer_cache.stats
        assert stats.evictions == 0  # kept, not evicted
        assert stats.seeds == 1  # standing query attached lazily
        # further churn rides the now-seeded standing query as exact
        # deltas (replace_rows truncates the log, so it would reseed)
        w3.append_rows([{"appId": "app-x", "monitorTool": 9999,
                         "feedbackTool": 1}])
        w3.remove_rows(lambda row: row["appId"] == "app-x")
        again = engine.answer(EXEMPLARY_QUERY)
        assert again == before
        assert engine.answer_cache.stats.patches >= 1

    def test_release_invalidates_via_fingerprint(self):
        scenario = build_supersede()  # pre-evolution
        engine = QueryEngine(scenario.ontology)
        before = engine.answer(EXEMPLARY_QUERY)
        register_w4(scenario)  # release: w4 branch appears
        after = engine.answer(EXEMPLARY_QUERY)
        assert after is not before
        assert len(after) >= len(before)
        assert engine.answer_cache.stats.hits == 0

    def test_distinct_flag_keys_separately(self, scenario):
        engine = QueryEngine(scenario.ontology)
        engine.answer(EXEMPLARY_QUERY, distinct=True)
        engine.answer(EXEMPLARY_QUERY, distinct=False)
        assert len(engine.answer_cache) == 2
        assert engine.answer_cache.stats.hits == 0

    def test_disabled_cache(self, scenario):
        engine = QueryEngine(scenario.ontology, use_answer_cache=False)
        engine.answer(EXEMPLARY_QUERY)
        engine.answer(EXEMPLARY_QUERY)
        assert engine.answer_cache is None
        assert engine.answer_cache_stats is None
        assert engine.clear_answer_cache() == 0

    def test_env_kill_switch(self, scenario, monkeypatch):
        monkeypatch.setenv("REPRO_ANSWER_CACHE", "0")
        assert QueryEngine(scenario.ontology).answer_cache is None
        # the serving layer keeps a detached (empty) cache for its
        # observability surfaces but the engine never populates it
        from repro.mdm import MDM
        service = MDM(scenario.ontology).serving()
        client = service.client()
        client.query(EXEMPLARY_QUERY)
        client.query(EXEMPLARY_QUERY)
        assert service.answer_cache.stats.lookups == 0
        assert len(service.answer_cache) == 0

    def test_shared_cache_across_engines(self, scenario):
        shared = AnswerCache()
        one = QueryEngine(scenario.ontology)
        two = QueryEngine(scenario.ontology)
        one.answer_cache = two.answer_cache = shared
        one.answer(EXEMPLARY_QUERY)
        two.answer(EXEMPLARY_QUERY)
        assert shared.stats.hits == 1

    def test_clear_answer_cache(self, scenario):
        engine = QueryEngine(scenario.ontology)
        engine.answer(EXEMPLARY_QUERY)
        assert engine.clear_answer_cache() == 1
        assert len(engine.answer_cache) == 0


class TestServiceIntegration:
    def test_release_serves_no_stale_answer(self):
        """The service keeps the cache across a release; the entry's
        own evidence keeps the pre-release answer from being served
        after it."""
        from repro.mdm import MDM
        scenario = build_supersede()  # pre-evolution
        mdm = MDM(scenario.ontology)
        service = mdm.serving()
        before = service.client().query(EXEMPLARY_QUERY).relation
        assert len(service.answer_cache) == 1
        register_w4(scenario)
        after = service.client().query(EXEMPLARY_QUERY).relation
        assert service.answer_cache.stats.hits == 0
        assert after != before  # the w4 rows are in
        assert after == QueryEngine(
            scenario.ontology, use_planner=False, use_cache=False,
            use_answer_cache=False).answer(EXEMPLARY_QUERY)
        assert service.answer_cache.stats.invalidations == 0

    def test_describe_reports_answer_cache(self, scenario):
        from repro.mdm import MDM
        service = MDM(scenario.ontology).serving()
        client = service.client()
        client.query(EXEMPLARY_QUERY)
        client.query(EXEMPLARY_QUERY)
        assert "answer cache" in service.describe()

    def test_mdm_statistics_expose_answer_cache(self, scenario):
        from repro.mdm import MDM
        mdm = MDM(scenario.ontology)
        mdm.query(EXEMPLARY_QUERY)
        mdm.query(EXEMPLARY_QUERY)
        stats = mdm.statistics()
        assert stats["cached_answers"] == 1
        assert stats["answer_cache_hits"] == 1


class TestReusedAnswerEncoding:
    def test_fresh_answer_keeps_no_bytes_and_a_hit_keeps_them(
            self, scenario):
        engine = QueryEngine(scenario.ontology)
        fresh = engine.answer(EXEMPLARY_QUERY)
        assert fresh.rows_json() == json.dumps(
            fresh.rows, sort_keys=True).encode("utf-8")
        assert fresh._rows_json is None
        hit = engine.answer(EXEMPLARY_QUERY)
        assert hit is fresh
        assert hit.rows_json() is hit.rows_json()

    def test_patched_answer_keeps_its_bytes(self, scenario):
        engine = QueryEngine(scenario.ontology)
        before = engine.answer(EXEMPLARY_QUERY)
        scenario.wrappers["w3"].update_rows(
            lambda row: row["appId"] == 2, {"appId": 3})
        patched = engine.answer(EXEMPLARY_QUERY)
        assert engine.answer_cache.stats.seeds == 1
        assert patched is not before
        assert patched.rows_json() is patched.rows_json()


class TestFailClosedFreshness:
    """A wrapper whose data_version probe raises is never read as
    unchanged: no cached, scan-cached or patched answer goes stale."""

    @staticmethod
    def oracle(scenario):
        return QueryEngine(scenario.ontology, use_planner=False,
                           use_cache=False, use_answer_cache=False
                           ).answer(EXEMPLARY_QUERY)

    @staticmethod
    def break_probe(wrapper):
        def data_version():
            raise RuntimeError("version probe is down")
        wrapper.data_version = data_version

    @staticmethod
    def change(wrapper, old, new):
        assert wrapper.update_rows(lambda row: row["appId"] == old,
                                   {"appId": new}) > 0

    def test_cached_answer_is_not_served_stale(self, scenario):
        engine = QueryEngine(scenario.ontology)
        w3 = scenario.wrappers["w3"]
        engine.answer(EXEMPLARY_QUERY)
        self.change(w3, 2, 3)
        self.break_probe(w3)
        assert engine.answer(EXEMPLARY_QUERY) == self.oracle(scenario)
        self.change(w3, 3, 4)
        assert engine.answer(EXEMPLARY_QUERY) == self.oracle(scenario)
        stats = engine.answer_cache.stats
        # uncacheable and unpatchable: only the first answer was stored
        assert (stats.hits, stats.stores, stats.seeds) == (0, 1, 0)

    def test_scan_cached_answer_is_not_served_stale(self, scenario):
        from repro.relational.physical import ScanCache
        engine = QueryEngine(scenario.ontology, use_answer_cache=False)
        scans = ScanCache()
        w3 = scenario.wrappers["w3"]
        self.break_probe(w3)
        first = engine.answer(EXEMPLARY_QUERY, scan_cache=scans)
        assert first == self.oracle(scenario)
        self.change(w3, 2, 3)
        second = engine.answer(EXEMPLARY_QUERY, scan_cache=scans)
        assert second == self.oracle(scenario)
        assert second != first
        probes = scans.stats.unversioned
        assert list(probes) == ["w3: RuntimeError"]
        assert probes["w3: RuntimeError"] >= 2
        assert scans.stats.snapshot()["unversioned"] == probes

    def test_patched_answer_is_not_served_stale(self, scenario):
        engine = QueryEngine(scenario.ontology)
        w3 = scenario.wrappers["w3"]
        w3.fetch_deltas = lambda since: None  # patches reseed
        engine.answer(EXEMPLARY_QUERY)
        self.change(w3, 2, 3)
        assert engine.answer(EXEMPLARY_QUERY) == self.oracle(scenario)
        assert engine.answer_cache.stats.seeds == 1
        self.break_probe(w3)
        for old, new in ((3, 4), (4, 5)):
            self.change(w3, old, new)
            assert engine.answer(EXEMPLARY_QUERY) == self.oracle(scenario)

    @staticmethod
    def rest_scenario():
        """One governed REST endpoint and a query over its wrapper:
        ``(ontology, endpoint, wrapper name, query, oracle)``."""
        from repro.evolution.apply import GovernedApi
        from repro.sources.rest_api import (
            ApiVersion, Endpoint, FieldSpec, RestApi,
        )
        api = RestApi("Svc")
        endpoint = Endpoint("GET /items")
        endpoint.add_version(ApiVersion("1", [
            FieldSpec("id", "int"), FieldSpec("val", "string")]))
        api.add_endpoint(endpoint)
        gov = GovernedApi(api)
        wrapper = gov.model_endpoint("GET /items",
                                     id_field="id").current_wrapper
        query = """
        SELECT ?x WHERE {
            VALUES (?x) { (<urn:api:Svc:GET_items/val>) }
            <urn:api:Svc:GET_items> G:hasFeature
                <urn:api:Svc:GET_items/val>
        }
        """

        def oracle():
            return QueryEngine(gov.ontology, use_planner=False,
                               use_cache=False, use_answer_cache=False
                               ).answer(query)
        return gov.ontology, endpoint, wrapper, query, oracle

    def test_failing_rest_probe_is_served_from_no_cache(self):
        """A REST wrapper whose probe raises never reads as unchanged:
        two failing probes used to mint equal tokens."""
        from repro.relational.physical import ScanCache
        ontology, endpoint, wrapper, query, oracle = self.rest_scenario()

        def live_seq(version):
            raise RuntimeError("endpoint is down")
        endpoint.live_seq = live_seq
        engine = QueryEngine(ontology)
        scans = ScanCache()
        expected = oracle()
        for _ in range(2):
            assert engine.answer(query, scan_cache=scans) == expected
        answers = engine.answer_cache.stats
        assert (answers.hits, answers.stores) == (0, 0)
        assert scans.stats.hits == 0 and scans.stats.misses == 2
        assert list(scans.stats.unversioned) == [f"{wrapper}: RuntimeError"]

    def test_failing_delta_probe_is_counted_not_reseeded(self):
        """A REST delta cursor whose probe raises during a seed fails
        the patch: the entry is discarded and the exception's class
        counted. Swallowed, the failure would leave a ``None`` cursor,
        and every later refresh would reseed with no error counted."""
        ontology, endpoint, wrapper, query, oracle = self.rest_scenario()
        engine = QueryEngine(ontology)
        assert engine.answer(query) == oracle()
        endpoint.push_documents("1", [{"id": 100, "val": "pushed"}])

        physical = ontology.physical_wrapper(wrapper)
        real_cursor, real_seq = physical.delta_cursor, endpoint.live_seq
        armed, in_cursor = [True], []

        def live_seq(version):
            if armed and in_cursor:  # once, and only inside the cursor
                armed.clear()
                raise RuntimeError("change log is down")
            return real_seq(version)

        def delta_cursor():
            in_cursor.append(True)
            try:
                return real_cursor()
            finally:
                in_cursor.pop()
        endpoint.live_seq = live_seq
        physical.delta_cursor = delta_cursor
        answer = engine.answer(query)
        assert not armed  # the probe raised once, inside delta_cursor
        assert answer == oracle()
        assert {"val": "pushed"} in answer.rows
        stats = engine.answer_cache.stats
        assert stats.fallback_errors == {"RuntimeError": 1}
        assert stats.seeds == 0

    def test_bare_wrapper_is_never_served_stale(self, scenario):
        """A wrapper that keeps the base ``data_version`` is not taken
        for immutable: rows emptied in place are not served from a
        cache."""
        from repro.wrappers.base import Wrapper

        class Bare(Wrapper):
            def __init__(self, like):
                super().__init__(like.name, like.source_name,
                                 like.id_attributes,
                                 like.non_id_attributes)
                self.rows = like.fetch_rows()

            def fetch_rows(self, columns=None):
                return [dict(row) for row in self.rows]

        bare = Bare(scenario.wrappers["w3"])
        scenario.ontology.bind_wrapper(bare)
        engine = QueryEngine(scenario.ontology)
        assert len(engine.answer(EXEMPLARY_QUERY)) == 5
        bare.rows.clear()
        assert engine.answer(EXEMPLARY_QUERY) == self.oracle(scenario)
        assert len(self.oracle(scenario)) == 0
        assert engine.answer_cache.stats.hits == 0
