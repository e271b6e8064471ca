"""Randomized equivalence: incremental maintenance vs recompute.

Seeded churn scripts drive inserts, updates and deletes across every
source of the SUPERSEDE scenario; after each tick the incremental
engine's answer must be bag-equal to a cold recompute. This is the
property the whole streaming layer exists to preserve — run under many
interleavings, including ones that trip the fallback valve and ones
whose truncated change logs serve no deltas.
"""

import random

import pytest

from repro.datasets import EXEMPLARY_QUERY, build_supersede
from repro.query import QueryEngine


def bag(relation):
    names = relation.schema.attribute_names
    counts: dict[tuple, int] = {}
    for row in relation:
        key = tuple(row[n] for n in names)
        counts[key] = counts.get(key, 0) + 1
    return counts


def random_tick(rng, scenario, serial):
    """Apply 1-4 random mutations across the scenario's sources."""
    vod = scenario.store.get_collection("vod")
    w3 = scenario.wrappers["w3"]
    for _ in range(rng.randint(1, 4)):
        dice = rng.random()
        if dice < 0.45:
            monitor_id = 9000 + serial + rng.randint(0, 2)
            vod.insert_one({
                "monitorId": monitor_id,
                "waitTime": float(rng.randint(1, 9)),
                "watchTime": float(rng.randint(10, 90))})
            # sometimes the new monitor also gets an application row,
            # so the join actually produces output for it
            if rng.random() < 0.7:
                w3.append_rows([{
                    "appId": f"app{monitor_id}",
                    "monitorTool": monitor_id,
                    "feedbackTool": rng.randint(1, 5)}])
        elif dice < 0.65:
            docs = vod.find()
            if docs:
                victim = rng.choice(docs)["monitorId"]
                vod.update_many(
                    {"monitorId": victim},
                    {"$set": {"waitTime": float(rng.randint(1, 9))}})
        elif dice < 0.85:
            docs = vod.find()
            if docs:
                victim = rng.choice(docs)["monitorId"]
                vod.delete_many({"monitorId": victim})
        else:
            rows = w3.fetch_rows()
            if rows:
                victim = rng.choice(rows)["MonitorId"]
                w3.remove_rows(lambda r: r["monitorTool"] == victim)


@pytest.mark.parametrize("seed", range(5))
def test_incremental_equals_recompute_under_random_churn(seed):
    scenario = build_supersede(with_evolution=True, event_count=30,
                               seed=seed)
    incremental = QueryEngine(scenario.ontology)
    cold = QueryEngine(scenario.ontology, use_answer_cache=False)
    rng = random.Random(seed)
    incremental.answer(EXEMPLARY_QUERY)  # warm the cache
    for tick in range(8):
        random_tick(rng, scenario, serial=tick * 10)
        got = incremental.answer(EXEMPLARY_QUERY)
        want = cold.answer(EXEMPLARY_QUERY)
        assert bag(got) == bag(want), \
            f"seed {seed}: diverged from recompute at tick {tick}"
    stats = incremental.answer_cache.stats
    # the suite must actually exercise the maintenance path
    assert stats.seeds >= 1
    assert stats.patches + stats.fallbacks >= 1


@pytest.mark.parametrize("seed", [0, 1])
def test_equivalence_with_tiny_valve(seed, monkeypatch):
    """Every tick trips the valve: reseeds must stay correct too."""
    import repro.streaming.standing as standing_mod
    scenario = build_supersede(with_evolution=True, event_count=20,
                               seed=seed)
    incremental = QueryEngine(scenario.ontology)
    cold = QueryEngine(scenario.ontology, use_answer_cache=False)
    rng = random.Random(seed)
    incremental.answer(EXEMPLARY_QUERY)
    monkeypatch.setattr(standing_mod, "FALLBACK_MIN_DELTA_ROWS", 0)
    monkeypatch.setattr(standing_mod, "FALLBACK_DELTA_FRACTION", 0.0)
    for tick in range(4):
        random_tick(rng, scenario, serial=tick * 10)
        got = incremental.answer(EXEMPLARY_QUERY)
        want = cold.answer(EXEMPLARY_QUERY)
        assert bag(got) == bag(want), \
            f"seed {seed}: diverged at tick {tick}"


@pytest.mark.parametrize("seed", [0, 1])
def test_equivalence_with_truncated_logs(seed):
    """A one-record change log serves no deltas on a multi-mutation
    tick, so the standing query reseeds; answers must not notice."""
    scenario = build_supersede(with_evolution=True, event_count=20,
                               seed=seed)
    scenario.store.get_collection("vod")._change_log_limit = 1
    scenario.wrappers["w3"].CHANGE_LOG_LIMIT = 1
    incremental = QueryEngine(scenario.ontology)
    cold = QueryEngine(scenario.ontology, use_answer_cache=False)
    rng = random.Random(seed)
    incremental.answer(EXEMPLARY_QUERY)
    for tick in range(5):
        random_tick(rng, scenario, serial=tick * 10)
        got = incremental.answer(EXEMPLARY_QUERY)
        want = cold.answer(EXEMPLARY_QUERY)
        assert bag(got) == bag(want), \
            f"seed {seed}: diverged at tick {tick}"
