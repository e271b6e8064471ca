"""QueryEngine + answer cache on the incremental path: the patch
lifecycle, incremental maintenance by default, and the recompute
fallback valve."""

import pytest

from repro.datasets import EXEMPLARY_QUERY, build_supersede
from repro.query import QueryEngine


@pytest.fixture()
def scenario():
    return build_supersede(with_evolution=True)


def churn(scenario, n=1):
    vod = scenario.store.get_collection("vod")
    for i in range(n):
        vod.insert_one({"monitorId": 5000 + i, "waitTime": 1.0,
                        "watchTime": 4.0})


def oracle_answer(scenario):
    return QueryEngine(scenario.ontology, use_planner=False,
                       use_cache=False, use_answer_cache=False
                       ).answer(EXEMPLARY_QUERY)


class TestKillSwitch:
    def test_incremental_on_by_default(self, scenario):
        engine = QueryEngine(scenario.ontology)
        engine.answer(EXEMPLARY_QUERY)
        churn(scenario)
        assert engine.answer(EXEMPLARY_QUERY) == oracle_answer(scenario)
        stats = engine.answer_cache.stats
        assert stats.seeds == 1 and stats.evictions == 0


class TestPatchLifecycle:
    def test_patch_serves_correct_answer(self, scenario):
        engine = QueryEngine(scenario.ontology)
        cold = QueryEngine(scenario.ontology, use_answer_cache=False)
        engine.answer(EXEMPLARY_QUERY)
        for tick in range(3):
            churn(scenario, n=2)
            assert engine.answer(EXEMPLARY_QUERY) == \
                cold.answer(EXEMPLARY_QUERY), f"diverged at {tick}"
        stats = engine.answer_cache.stats
        assert stats.seeds == 1
        assert stats.patches == 2  # first stale miss seeds, rest patch
        assert stats.evictions == 0

    def test_unchanged_data_is_a_plain_hit(self, scenario):
        engine = QueryEngine(scenario.ontology)
        first = engine.answer(EXEMPLARY_QUERY)
        assert engine.answer(EXEMPLARY_QUERY) is first
        stats = engine.answer_cache.stats
        assert stats.hits == 1
        assert stats.seeds == 0  # no churn → standing query never built

    def test_fingerprint_change_still_evicts(self, scenario):
        from repro.datasets.supersede import register_w4
        pre = build_supersede()  # no w4 yet
        engine = QueryEngine(pre.ontology)
        before = engine.answer(EXEMPLARY_QUERY)
        register_w4(pre)  # ontology release → fingerprint rotates
        after = engine.answer(EXEMPLARY_QUERY)
        assert len(after) >= len(before)
        assert engine.answer_cache.stats.evictions == 1
        assert engine.answer_cache.stats.patches == 0

    def test_patch_failure_falls_back_to_recompute(self, scenario,
                                                   monkeypatch):
        engine = QueryEngine(scenario.ontology)
        cold = QueryEngine(scenario.ontology, use_answer_cache=False)
        engine.answer(EXEMPLARY_QUERY)
        churn(scenario)
        from repro.streaming.standing import StandingQuery

        def boom(self, provider):
            raise RuntimeError("synthetic standing-query failure")

        monkeypatch.setattr(StandingQuery, "seed", boom)
        answer = engine.answer(EXEMPLARY_QUERY)
        assert answer == cold.answer(EXEMPLARY_QUERY)
        stats = engine.answer_cache.stats
        assert stats.fallbacks == 1
        assert stats.evictions == 1  # the broken entry was discarded

    def test_seed_type_error_is_counted_under_its_class(self, scenario,
                                                        monkeypatch):
        """A programming error in the patch path still recomputes the
        oracle's bag, but shows under its own class, not as an
        ordinary fallback."""
        from repro.mdm import MDM
        from repro.streaming.standing import StandingQuery
        mdm = MDM(scenario.ontology)
        engine = mdm.engine
        engine.answer(EXEMPLARY_QUERY)
        churn(scenario)

        def stale_call(self, provider):
            raise TypeError("scan() takes 3 positional arguments")

        monkeypatch.setattr(StandingQuery, "seed", stale_call)
        assert engine.answer(EXEMPLARY_QUERY) == oracle_answer(scenario)
        stats = engine.answer_cache.stats
        assert stats.fallbacks == 1
        assert stats.fallback_errors == {"TypeError": 1}
        assert stats.snapshot()["fallback_errors"] == {"TypeError": 1}
        assert "fallbacks = 1 (errors: TypeError = 1)" in \
            mdm.serving().describe()

    def test_valve_reseed_counts_as_fallback(self, scenario,
                                             monkeypatch):
        import repro.streaming.standing as standing_mod
        engine = QueryEngine(scenario.ontology)
        engine.answer(EXEMPLARY_QUERY)
        churn(scenario)  # attach + seed the standing query
        engine.answer(EXEMPLARY_QUERY)
        # shrink the valve so the next delta trips it
        monkeypatch.setattr(standing_mod, "FALLBACK_MIN_DELTA_ROWS", 0)
        monkeypatch.setattr(standing_mod, "FALLBACK_DELTA_FRACTION", 0.0)
        churn(scenario, n=3)
        cold = QueryEngine(scenario.ontology, use_answer_cache=False)
        assert engine.answer(EXEMPLARY_QUERY) == \
            cold.answer(EXEMPLARY_QUERY)
        assert engine.answer_cache.stats.fallbacks >= 1


class TestTornSeed:
    def test_seed_over_a_moving_wrapper_is_never_installed(self, star):
        """A writer appends to a satellite between the seed's cursor
        read and each of its scans, so no seed attempt reads a stable
        version. Installing such a seed would apply the appends a
        second time on the next refresh; the seed fails instead, and
        the answer is recomputed."""
        ontology, query, wrappers = star(2)
        engine = QueryEngine(ontology)
        oracle = QueryEngine(ontology, use_planner=False,
                             use_cache=False, use_answer_cache=False)
        engine.answer(query, distinct=False)
        satellite = wrappers["wSat0"]
        fetch_rows = satellite.fetch_rows
        racing = [True]
        races: list[str] = []

        def racing_fetch_rows(columns=None):
            if racing[0]:
                races.append(f"race-{len(races)}")
                satellite.append_rows([{"hid": "h0", "m": races[-1]}])
            return fetch_rows(columns=columns)

        satellite.fetch_rows = racing_fetch_rows
        wrappers["wSat1"].append_rows([{"hid": "h1", "m": "fresh"}])
        engine.answer(query, distinct=False)  # the seed races
        racing[0] = False
        assert len(races) >= 3
        wrappers["wSat1"].append_rows([{"hid": "h2", "m": "later"}])
        assert engine.answer(query, distinct=False) == \
            oracle.answer(query, distinct=False)
        assert engine.answer_cache.stats.fallbacks == 1


class TestSetSemanticsPatches:
    """Scan dedup is not mirrored in the standing state: the scan
    states keep the full bag, so deleting one of two duplicate rows
    leaves the answer tuple supported, and deleting the last removes
    it."""

    def test_duplicate_deletes_patch_exactly(self, star):
        rows = [{"hid": "h0", "m": "a"}, {"hid": "h0", "m": "a"},
                {"hid": "h1", "m": "b"}]
        ontology, query, wrappers = star(
            2, satellite_rows=[rows, [{"hid": "h0", "m": "x"},
                                      {"hid": "h1", "m": "y"}]])
        engine = QueryEngine(ontology)
        oracle = QueryEngine(ontology, use_planner=False,
                             use_cache=False, use_answer_cache=False)

        def tuples():
            answer = engine.answer(query)
            assert answer == oracle.answer(query)
            names = answer.schema.attribute_names
            return {tuple(row[n] for n in names) for row in answer}

        # The standing query mirrors a plan whose scans deduplicate.
        assert all(scan.dedup for scan in engine.plan(query).scans())
        assert ("lag-0", "a", "x") in tuples()
        wrappers["wSat1"].append_rows([{"hid": "h9", "m": "z"}])
        tuples()  # first stale miss seeds the standing query
        satellite = wrappers["wSat0"]
        removed = []

        def first_copy(row):
            if row["m"] == "a" and not removed:
                removed.append(row)
                return True
            return False

        satellite.remove_rows(first_copy)
        assert ("lag-0", "a", "x") in tuples()  # one copy still there
        satellite.remove_rows(lambda row: row["m"] == "a")
        assert ("lag-0", "a", "x") not in tuples()  # last copy gone
        stats = engine.answer_cache.stats
        assert stats.seeds == 1 and stats.patches == 2
        assert stats.fallbacks == 0


class TestServingPanels:
    def test_read_after_churn_is_patched(self, scenario):
        from repro.mdm import MDM
        service = MDM(scenario.ontology).serving()
        client = service.client()
        client.query(EXEMPLARY_QUERY)
        stats = service.answer_cache.stats
        for tick in range(2):
            churn(scenario)
            served = client.query(EXEMPLARY_QUERY).relation
            assert served == oracle_answer(scenario), f"tick {tick}"
        # the first stale read seeds the standing query, the next one
        # patches it; neither recomputes
        assert (stats.seeds, stats.patches, stats.fallbacks) == (1, 1, 0)
        assert stats.stores == 1
        assert "incremental maintenance: patches = 1" in \
            service.describe()


class TestFallbackCauses:
    """Each cause of a patch fallback is tallied under its own stable
    key, in the stats, the describe text and ``/v1/describe``."""

    @pytest.fixture()
    def seeded(self, scenario):
        from repro.mdm import MDM
        mdm = MDM(scenario.ontology)
        mdm.engine.answer(EXEMPLARY_QUERY)
        churn(scenario)  # attach + seed the standing query
        mdm.engine.answer(EXEMPLARY_QUERY)
        assert mdm.engine.answer_cache.stats.seeds == 1
        yield mdm
        mdm.serving().close()

    def assert_cause(self, scenario, mdm, cause: str) -> None:
        from repro.mdm.analyst import describe_answer_cache
        churn(scenario, n=3)
        assert mdm.engine.answer(EXEMPLARY_QUERY) == \
            oracle_answer(scenario)
        stats = mdm.engine.answer_cache.stats
        assert stats.fallbacks == 1
        assert stats.fallback_reasons == {cause: 1}
        assert f"fallback causes: {cause} = 1" in \
            describe_answer_cache(mdm.engine.answer_cache)
        with mdm.serving().client() as client:
            described = client.describe().service["answer_cache"]
        assert described["fallback_reasons"] == {cause: 1}

    def test_valve_trip(self, scenario, seeded, monkeypatch):
        import repro.streaming.standing as standing_mod
        monkeypatch.setattr(standing_mod, "FALLBACK_MIN_DELTA_ROWS", 0)
        monkeypatch.setattr(standing_mod, "FALLBACK_DELTA_FRACTION", 0.0)
        self.assert_cause(scenario, seeded, "delta_volume")

    def test_wrapper_without_deltas(self, scenario, seeded, monkeypatch):
        for wrapper in scenario.wrappers.values():
            monkeypatch.setattr(wrapper, "fetch_deltas",
                                lambda since: None)
        self.assert_cause(scenario, seeded, "no_deltas")

    def test_raising_refresh(self, scenario, seeded, monkeypatch):
        from repro.streaming.standing import StandingQuery

        def boom(self, provider):
            raise RuntimeError("synthetic refresh failure")

        monkeypatch.setattr(StandingQuery, "refresh", boom)
        self.assert_cause(scenario, seeded, "error")
        assert seeded.engine.answer_cache.stats.fallback_errors == \
            {"RuntimeError": 1}
