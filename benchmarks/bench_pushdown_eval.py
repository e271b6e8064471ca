"""Physical execution layer: naive vs. planned (pushdown) evaluation.

Not a paper figure — this benchmarks the query-execution layer grown on
top of the reproduction (``src/repro/relational/physical.py`` +
``src/repro/query/planner.py``, see ``docs/architecture.md``). Two
asserted workloads:

* **wide-wrapper projection** — a 60-attribute wrapper queried for two
  features. Naive evaluation materializes every column through the
  Π̃/π chain; the planner's projection pushdown fetches exactly the two
  needed columns plus the ID. Must be **≥5×** faster.
* **shared-scan batch** — a panel of distinct queries that all join the
  same wide hub wrapper against a per-query satellite wrapper. Naive
  evaluation re-fetches the hub for every query; the planned batch
  shares one narrow hub scan through the ``ScanCache``. Must be
  **≥2×** faster.

Both workloads assert bag-equality of the naive and planned answers —
the same guarantee the randomized equivalence suite
(``tests/query/test_planner.py``) checks structurally.
"""

from __future__ import annotations

import random
import time

from repro.core.ontology import BDIOntology
from repro.core.release import new_release
from repro.evolution.release_builder import build_release
from repro.query.engine import QueryEngine
from repro.rdf.namespace import Namespace
from repro.relational.physical import ScanCache
from repro.wrappers.base import StaticWrapper

B = Namespace("urn:pushdown:")

HUB_ROWS = 2500
PAD_ATTRIBUTES = 58  # hub width = hid + hub_metric + pads = 60
SATELLITES = 8
SATELLITE_ROWS = 2500
ID_SPACE = 3 * HUB_ROWS  # ~1/3 of satellite rows join the hub


def _canon(relation) -> list[tuple]:
    return sorted(tuple(sorted(row.items())) for row in relation.rows)


def _best_of(fn, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def build_scenario():
    """Hub concept (wide wrapper) linked to satellite concepts whose
    wrappers provide the hub's ID plus one metric each — every satellite
    query rewrites to ``wHub ⋈ wSat_i`` on the hub ID."""
    rng = random.Random(20260728)
    ontology = BDIOntology()
    g = ontology.globals

    hub = g.add_concept(B.Hub)
    g.add_feature(hub, B.hid, is_id=True)
    g.add_feature(hub, B.hubMetric)
    pads = [B[f"pad{j}"] for j in range(PAD_ATTRIBUTES)]
    for pad in pads:
        g.add_feature(hub, pad)

    hub_attrs = ["hid", "hubMetric"] + [f"pad{j}"
                                        for j in range(PAD_ATTRIBUTES)]
    hub_rows = [
        {"hid": i, "hubMetric": rng.randint(0, 99),
         **{f"pad{j}": f"pad-{i}-{j}" for j in range(PAD_ATTRIBUTES)}}
        for i in range(HUB_ROWS)]
    hub_wrapper = StaticWrapper("wHub", "SH", ["hid"], hub_attrs[1:],
                                hub_rows)
    hints = {"hid": B.hid, "hubMetric": B.hubMetric,
             **{f"pad{j}": pads[j] for j in range(PAD_ATTRIBUTES)}}
    release = build_release(ontology, "SH", "wHub",
                            id_attributes=["hid"],
                            non_id_attributes=hub_attrs[1:],
                            feature_hints=hints)
    release.wrapper = hub_wrapper
    new_release(ontology, release)

    queries: list[str] = []
    for i in range(SATELLITES):
        sat = g.add_concept(B[f"Sat{i}"])
        metric = g.add_feature(sat, B[f"m{i}"])
        g.add_property(hub, B[f"links{i}"], sat)
        rows = [{"hid": rng.randrange(ID_SPACE),
                 "m": rng.randint(0, 999)}
                for _ in range(SATELLITE_ROWS)]
        wrapper = StaticWrapper(f"wSat{i}", f"SS{i}", ["hid"], ["m"],
                                rows)
        release = build_release(
            ontology, f"SS{i}", f"wSat{i}",
            id_attributes=["hid"], non_id_attributes=["m"],
            feature_hints={"hid": B.hid, "m": metric})
        release.wrapper = wrapper
        new_release(ontology, release)
        queries.append(f"""
            SELECT ?x ?y WHERE {{
                VALUES (?x ?y) {{ (<{B.hubMetric}> <{metric}>) }}
                <{hub}> G:hasFeature <{B.hubMetric}> .
                <{hub}> <{B[f"links{i}"]}> <{sat}> .
                <{sat}> G:hasFeature <{metric}>
            }}""")

    wide_query = f"""
        SELECT ?x ?y WHERE {{
            VALUES (?x ?y) {{ (<{B.hid}> <{B.hubMetric}>) }}
            <{hub}> G:hasFeature <{B.hid}> .
            <{hub}> G:hasFeature <{B.hubMetric}>
        }}"""
    return ontology, wide_query, queries


def test_pushdown_evaluation(write_result, write_json):
    ontology, wide_query, sat_queries = build_scenario()
    # The answer cache would serve every repeat from memory and hide
    # exactly the evaluation work this benchmark measures — off here;
    # bench_columnar covers the answer-cache path.
    planned = QueryEngine(ontology, use_answer_cache=False)
    naive = QueryEngine(ontology, use_planner=False)

    # Warm both rewrite caches: PR 1 made rewriting cheap and cached —
    # this benchmark isolates *evaluation*.
    planned_wide = planned.answer(wide_query)
    naive_wide = naive.answer(wide_query)
    assert _canon(planned_wide) == _canon(naive_wide)
    assert len(planned_wide) == HUB_ROWS

    # -- workload 1: wide-wrapper projection pushdown -------------------
    naive_wide_s = _best_of(lambda: naive.answer(wide_query))
    planned_wide_s = _best_of(lambda: planned.answer(wide_query))
    wide_speedup = naive_wide_s / planned_wide_s

    # -- workload 2: shared-scan batch ----------------------------------
    for query in sat_queries:  # warm + equivalence
        assert _canon(planned.answer(query)) == _canon(naive.answer(query))

    cache = ScanCache()
    naive_batch_s = _best_of(lambda: naive.answer_many(sat_queries))
    planned_batch_s = _best_of(
        lambda: planned.answer_many(sat_queries, scan_cache=cache))
    batch_speedup = naive_batch_s / planned_batch_s

    # The hub scan was fetched once and shared across the batch.
    assert cache.stats.hits >= (SATELLITES - 1)

    # The executed plan advertises its pushdowns.
    explain = planned.explain(sat_queries[0])
    assert "physical plan" in explain
    assert "pushed" in explain

    content = "\n".join([
        "Physical execution layer — naive vs. planned evaluation",
        "",
        f"hub wrapper: {HUB_ROWS} rows × {2 + PAD_ATTRIBUTES} columns; "
        f"{SATELLITES} satellite wrappers × {SATELLITE_ROWS} rows",
        "",
        "wide-wrapper projection (2 of 60 columns needed):",
        f"  naive   {naive_wide_s * 1e3:8.2f} ms",
        f"  planned {planned_wide_s * 1e3:8.2f} ms   "
        f"{wide_speedup:5.1f}× (pushdown fetches 2 columns)",
        "",
        f"shared-scan batch ({SATELLITES} distinct hub⋈satellite "
        "queries):",
        f"  naive   {naive_batch_s * 1e3:8.2f} ms",
        f"  planned {planned_batch_s * 1e3:8.2f} ms   "
        f"{batch_speedup:5.1f}× (hub fetched once)",
        "",
        f"scan cache: {cache.stats.snapshot()}",
        "",
        "explain of one batch query:",
        explain.split("physical plan", 1)[0]
        and "physical plan" + explain.split("physical plan", 1)[1],
    ])
    write_result("bench_pushdown_eval.txt", content)
    write_json("pushdown_eval", {
        "hub_rows": HUB_ROWS,
        "hub_columns": 2 + PAD_ATTRIBUTES,
        "satellites": SATELLITES,
        "satellite_rows": SATELLITE_ROWS,
        "wide_naive_seconds": naive_wide_s,
        "wide_planned_seconds": planned_wide_s,
        "wide_speedup": round(wide_speedup, 2),
        "batch_naive_seconds": naive_batch_s,
        "batch_planned_seconds": planned_batch_s,
        "batch_speedup": round(batch_speedup, 2),
        "scan_cache": cache.stats.snapshot(),
    })

    assert wide_speedup >= 5.0, (
        f"projection pushdown only {wide_speedup:.1f}× on the "
        "wide-wrapper workload")
    assert batch_speedup >= 2.0, (
        f"shared-scan batch only {batch_speedup:.1f}× over naive")
