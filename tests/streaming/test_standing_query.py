"""StandingQuery: O(delta) maintenance of a materialized UCQ answer.

The invariant under test everywhere: after any churn + refresh, the
standing relation is bag-equal to a cold execution of the same plan.
"""

from collections import Counter

import repro.streaming.standing as standing_mod
from repro.datasets import EXEMPLARY_QUERY, build_supersede
from repro.query.planner import plan_ucq
from repro.query.rewriter import rewrite
from repro.relational.physical import (
    CachingScanProvider, ScanCache, as_scan_provider,
)
from repro.streaming import StandingQuery, build_states


def make_plan(scenario, distinct=True):
    result = rewrite(scenario.ontology, EXEMPLARY_QUERY)
    scans = CachingScanProvider(provider_of(scenario), ScanCache())
    return plan_ucq(scenario.ontology, result.ucq, scans,
                    distinct=distinct)


def provider_of(scenario):
    return as_scan_provider(None, scenario.ontology.physical_wrapper)


def cold_answer(scenario, plan):
    return plan.execute(provider_of(scenario))


def standing(scenario, plan):
    sq = StandingQuery(plan, scenario.ontology.physical_wrapper)
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
        assert not outcome.reseeded
        assert outcome.reason == "patched"
        assert bag(outcome.relation) == \
            bag(cold_answer(scenario, plan))

    def test_noop_refresh_short_circuits(self):
        scenario = build_supersede(with_evolution=True)
        sq = standing(scenario, make_plan(scenario))
        outcome = sq.refresh(provider_of(scenario))
        assert not outcome.reseeded
        assert outcome.reason == "no changes"

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
        assert not outcome.reseeded
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

    def test_valve_reseeds_on_large_deltas(self, monkeypatch):
        scenario = build_supersede(with_evolution=True)
        plan = make_plan(scenario)
        sq = standing(scenario, plan)
        monkeypatch.setattr(standing_mod, "FALLBACK_MIN_DELTA_ROWS", 1)
        monkeypatch.setattr(standing_mod, "FALLBACK_DELTA_FRACTION", 0.0)
        self.churn(scenario)
        outcome = sq.refresh(provider_of(scenario))
        assert outcome.reseeded
        assert "exceeds threshold" in outcome.reason
        assert bag(outcome.relation) == \
            bag(cold_answer(scenario, plan))

    def test_truncated_log_reseeds_naming_the_wrapper(self):
        scenario = build_supersede(with_evolution=True)
        plan = make_plan(scenario)
        sq = standing(scenario, plan)
        w3 = scenario.wrappers["w3"]
        w3.CHANGE_LOG_LIMIT = 1  # every multi-record interval dies
        cursor = w3.delta_cursor()
        w3.append_rows([{"appId": "app-3001", "monitorTool": 3001,
                         "feedbackTool": 42}])
        w3.append_rows([{"appId": "app-3002", "monitorTool": 3002,
                         "feedbackTool": 43}])
        assert w3.fetch_deltas(cursor) is None
        outcome = sq.refresh(provider_of(scenario))
        assert outcome.reseeded
        assert "w3" in outcome.reason
        assert bag(outcome.relation) == \
            bag(cold_answer(scenario, plan))


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
        out = root.apply({s: Counter() for s in scans})
        assert out == Counter()
        assert root.state_rows() == 0

