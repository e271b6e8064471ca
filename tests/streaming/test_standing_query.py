"""StandingQuery: O(delta) maintenance of a materialized UCQ answer.

The invariant under test everywhere: after any churn + refresh, the
standing relation is bag-equal to a cold execution of the same plan.
"""

from repro.datasets import EXEMPLARY_QUERY, build_supersede
from repro.query.planner import plan_ucq
from repro.query.rewriter import rewrite
from repro.relational.physical import (
    CachingScanProvider, ScanCache, as_scan_provider,
)
from repro.streaming import DeltaBatch, StandingQuery, build_states


def make_plan(scenario, distinct=True):
    result = rewrite(scenario.ontology, EXEMPLARY_QUERY)
    scans = CachingScanProvider(provider_of(scenario), ScanCache())
    return plan_ucq(scenario.ontology, result.ucq, scans,
                    distinct=distinct)


def provider_of(scenario):
    return as_scan_provider(None, scenario.ontology.physical_wrapper)


def cold_answer(scenario, plan):
    return plan.execute(provider_of(scenario))


def standing(scenario, plan, **kwargs):
    sq = StandingQuery(plan, scenario.ontology.physical_wrapper,
                       **kwargs)
    sq.seed(provider_of(scenario))
    return sq


def bag(relation):
    counts: dict[tuple, int] = {}
    names = relation.schema.attribute_names
    for row in relation:
        key = tuple(row[n] for n in names)
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestSeed:
    def test_seed_matches_cold_execution(self):
        scenario = build_supersede(with_evolution=True)
        plan = make_plan(scenario)
        sq = standing(scenario, plan)
        assert len(sq.relation) > 0
        assert bag(sq.relation) == bag(cold_answer(scenario, plan))
        assert sq.seeded
        assert sq.reseeds == 1

    def test_data_versions_match_engine_evidence(self):
        scenario = build_supersede(with_evolution=True)
        plan = make_plan(scenario)
        sq = standing(scenario, plan)
        scans = provider_of(scenario)
        expected = tuple(sorted(
            (name, scans.data_version(name))
            for name in plan.wrappers()))
        assert sq.data_versions() == expected

    def test_refresh_before_seed_seeds(self):
        scenario = build_supersede(with_evolution=True)
        plan = make_plan(scenario)
        sq = StandingQuery(plan, scenario.ontology.physical_wrapper)
        outcome = sq.refresh(provider_of(scenario))
        assert outcome.reseeded
        assert outcome.reason == "initial seed"
        assert bag(outcome.relation) == \
            bag(cold_answer(scenario, plan))


class TestRefresh:
    def churn(self, scenario):
        vod = scenario.store.get_collection("vod")
        vod.insert_one({"monitorId": 3001, "waitTime": 1.0,
                        "watchTime": 4.0})
        vod.update_many({"monitorId": 3001},
                        {"$set": {"waitTime": 2.0}})
        w3 = scenario.wrappers["w3"]
        w3.append_rows([{"appId": "app-3001", "monitorTool": 3001,
                         "feedbackTool": 42}])

    def test_exact_delta_patch(self):
        scenario = build_supersede(with_evolution=True)
        plan = make_plan(scenario)
        sq = standing(scenario, plan)
        self.churn(scenario)
        outcome = sq.refresh(provider_of(scenario))
        assert outcome.patched and not outcome.reseeded
        assert outcome.delta_rows > 0
        assert bag(outcome.relation) == \
            bag(cold_answer(scenario, plan))
        assert sq.patches == 1

    def test_noop_refresh_short_circuits(self):
        scenario = build_supersede(with_evolution=True)
        sq = standing(scenario, make_plan(scenario))
        outcome = sq.refresh(provider_of(scenario))
        assert outcome.patched and not outcome.reseeded
        assert outcome.reason == "no changes"
        assert outcome.delta_rows == 0

    def test_deletions_retract_join_results(self):
        scenario = build_supersede(with_evolution=True)
        plan = make_plan(scenario)
        sq = standing(scenario, plan)
        before = len(sq.relation)
        assert before > 0
        vod = scenario.store.get_collection("vod")
        victim = vod.find()[0]["monitorId"]
        vod.delete_many({"monitorId": victim})
        outcome = sq.refresh(provider_of(scenario))
        assert outcome.patched
        assert len(outcome.relation) < before
        assert bag(outcome.relation) == \
            bag(cold_answer(scenario, plan))

    def test_union_distinct_across_branches(self):
        # with_evolution=True already carries the w4 union branch
        scenario = build_supersede(with_evolution=True)
        plan = make_plan(scenario, distinct=True)
        sq = standing(scenario, plan)
        self.churn(scenario)
        scenario.store.get_collection("vod_v2").insert_one(
            {"monitorId": 3002, "waitTime": 1, "watchTime": 4})
        outcome = sq.refresh(provider_of(scenario))
        cold = cold_answer(scenario, plan)
        assert bag(outcome.relation) == bag(cold)
        assert max(bag(outcome.relation).values()) == 1  # distinct held

    def test_repeated_refreshes_stay_equivalent(self):
        scenario = build_supersede(with_evolution=True)
        plan = make_plan(scenario)
        sq = standing(scenario, plan)
        for tick in range(4):
            self.churn(scenario)
            outcome = sq.refresh(provider_of(scenario))
            assert bag(outcome.relation) == \
                bag(cold_answer(scenario, plan)), f"diverged at {tick}"

    def test_valve_reseeds_on_large_deltas(self):
        scenario = build_supersede(with_evolution=True)
        plan = make_plan(scenario)
        sq = standing(scenario, plan, min_delta_rows=1,
                      max_delta_fraction=0.0)
        self.churn(scenario)
        outcome = sq.refresh(provider_of(scenario))
        assert outcome.reseeded and not outcome.patched
        assert "exceeds threshold" in outcome.reason
        assert bag(outcome.relation) == \
            bag(cold_answer(scenario, plan))
        assert sq.reseeds == 2  # seed + valve

    def test_snapshot_diff_fallback_when_log_truncated(self):
        scenario = build_supersede(with_evolution=True)
        plan = make_plan(scenario)
        sq = standing(scenario, plan)
        vod = scenario.store.get_collection("vod")
        vod._change_log_limit = 1  # every multi-record interval dies
        vod.insert_one({"monitorId": 3001, "waitTime": 1.0,
                        "watchTime": 4.0})
        vod.insert_one({"monitorId": 3002, "waitTime": 2.0,
                        "watchTime": 4.0})
        outcome = sq.refresh(provider_of(scenario))
        assert outcome.patched  # still a patch, via snapshot diff
        assert bag(outcome.relation) == \
            bag(cold_answer(scenario, plan))

    def test_snapshot_reports_counters(self):
        scenario = build_supersede(with_evolution=True)
        sq = standing(scenario, make_plan(scenario))
        snap = sq.snapshot()
        assert snap["reseeds"] == 1 and snap["refreshes"] == 1
        assert snap["state_rows"] > 0
        assert snap["result_rows"] == len(sq.relation)


class TestStateFactory:
    def test_every_plan_leaf_gets_a_state(self):
        scenario = build_supersede(with_evolution=True)
        root, scans = build_states(make_plan(scenario).root)
        assert len(scans) >= 3  # w1, w3 and the w4 branch
        names = {s.wrapper_name for s in scans}
        assert {"w1", "w3", "w4"} <= names

    def test_empty_delta_batch_is_a_noop(self):
        scenario = build_supersede(with_evolution=True)
        root, scans = build_states(make_plan(scenario).root)
        empty = {s: DeltaBatch.empty(s.schema) for s in scans}
        out = root.apply(empty)
        assert len(out) == 0


def test_snapshot_is_atomic_with_refresh(monkeypatch):
    # Regression: snapshot() read the counters and the relation without
    # the lock, so a monitor polling during a refresh could see the new
    # relation paired with the old counters (or vice versa). Holding
    # the query's RLock inside refresh() must not deadlock snapshot().
    import threading

    scenario = build_supersede(with_evolution=True)
    sq = standing(scenario, make_plan(scenario))
    seen: list[dict] = []

    def monitor() -> None:
        for _ in range(50):
            seen.append(sq.snapshot())

    with sq.lock:  # snapshot must block until maintenance releases
        t = threading.Thread(target=monitor)
        t.start()
        sq.refreshes += 1
        sq.refreshes -= 1
    t.join(timeout=30)
    assert not t.is_alive()
    assert all(s["result_rows"] == len(sq.relation) for s in seen)
