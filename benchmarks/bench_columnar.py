"""The production execution engine vs. the naive reference oracle,
plus the full answer cache.

Not a paper figure — this benchmarks the physical layer
(``src/repro/relational/columnar.py``, ``physical.py``) and the answer
cache (``src/repro/query/answer_cache.py``) grown on top of the
reproduction (see ``docs/architecture.md``). Three asserted checks:

* **fanout walk, production vs. oracle** — a batch of walks joining
  the hub to three satellites (hub ⋈ satA ⋈ satB ⋈ satC); each hub row
  matches ``FANOUT`` rows per satellite, so every query joins
  ~``FANOUT³`` intermediate rows per hub row and DISTINCT collapses the
  duplicate-heavy metrics. The production engine plans with pushdown,
  probes dictionary-encoded join keys as dense int codes, fuses
  scan→join→project into one gather-index pass, folds equivalent
  walks and deduplicates scans under DISTINCT, and computes DISTINCT
  on packed code lanes; the oracle (``use_planner=False``) evaluates
  the logical algebra row at a time. Must be **≥3×** faster (about
  55× in pure Python, above 100× with the optional numpy kernels).
* **answer cache** — the same query answered twice on the production
  path. The warm repeat is served from the
  :class:`~repro.query.answer_cache.AnswerCache` without touching a
  single wrapper or physical operator; it must be **≥50×** faster
  than the cold evaluation (in practice: a dict lookup). The
  regression gate compares the warm hit with the oracle's per-query
  time (``answer_cache_oracle_speedup``): a cold ÷ warm ratio
  (``answer_cache_cold_ratio``, reported only) falls whenever cold
  answers get faster, which says nothing about the cache.
* **intermediate rows** — the operator outputs summed over each
  production plan's metrics tree, a timing-free count. Under DISTINCT
  the plan folds the query's six equivalent walks into one branch and
  deduplicates its scans, so it stays below
  ``INTERMEDIATE_ROWS_LIMIT`` (~2.4M rows without set-semantics
  planning, ~172k with it).

Bag equality of the two engines' answers is asserted per query — the
same guarantee the randomized equivalence suite
(``tests/query/test_planner.py``) checks structurally.

Next to the speedup, the benchmark reports where the production batch
spends its time: each operator kind's self time (scan, join, project,
union: its wall time minus its children's), summed over the last
production run's metrics trees. It also reports each satellite's cold
scan: the wrapper's rows turned into a dictionary-encoded,
deduplicated scan batch, with no scan cache in front. Both are
information only; no check or regression gate reads them.
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

B = Namespace("urn:columnar:")

HUB_ROWS = 2000
SATELLITES = 6
FANOUT = 4        # satellite rows per hub id → FANOUT³ joined rows/id
METRIC_SPACE = 4  # duplicate-heavy metrics: DISTINCT collapses output
#: bound on the batch's summed operator outputs (see the module doc)
INTERMEDIATE_ROWS_LIMIT = 250_000


def _canon(relation) -> list[tuple]:
    return sorted(tuple(sorted(row.items())) for row in relation.rows)


def _best_of(fn, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def stage_self_ms(trees) -> dict[str, float]:
    """Milliseconds of self time per operator kind over *trees*."""
    stages = {"scan": 0.0, "join": 0.0, "project": 0.0, "union": 0.0}
    for tree in trees:
        for node in tree.walk():
            own = node.seconds - sum(c.seconds for c in node.children)
            stages[node.kind] = stages.get(node.kind, 0.0) + own * 1e3
    return {kind: round(ms, 3) for kind, ms in stages.items()}


def cold_scan_ms(wrapper, repeat: int = 15) -> float:
    """Median milliseconds from *wrapper*'s rows to an encoded,
    deduplicated batch of its qualified relation (a scan-cache miss)."""
    def scan():
        batch = wrapper.relation(qualified=True).columnar()
        for index in range(len(batch.columns)):
            batch.encoded_at(index)
        batch.distinct_keep()

    runs = []
    for _ in range(repeat):
        start = time.perf_counter()
        scan()
        runs.append(time.perf_counter() - start)
    return sorted(runs)[len(runs) // 2] * 1e3


def build_scenario():
    """A hub concept joined to ``SATELLITES`` satellite concepts; each
    query walks hub → satA → satB → satC, joining ``FANOUT³`` rows per
    hub id before DISTINCT collapses the metric combinations."""
    rng = random.Random(20260807)
    ontology = BDIOntology()
    g = ontology.globals

    hub = g.add_concept(B.Hub)
    g.add_feature(hub, B.hid, is_id=True)
    g.add_feature(hub, B.hubMetric)
    # String-typed IDs and metrics — the shape wrapper data actually
    # has (API identifiers, QoS labels) and the dictionary encoder's
    # home turf: the oracle re-hashes these strings at every join and
    # dedup, the production engine hashes each distinct value once and
    # runs on int codes.
    hub_rows = [{"hid": f"app-{i:05d}",
                 "hubMetric": f"lag-{rng.randint(0, 99):02d}"}
                for i in range(HUB_ROWS)]
    hub_wrapper = StaticWrapper("wHub", "SH", ["hid"], ["hubMetric"],
                                hub_rows)
    release = build_release(
        ontology, "SH", "wHub", id_attributes=["hid"],
        non_id_attributes=["hubMetric"],
        feature_hints={"hid": B.hid, "hubMetric": B.hubMetric})
    release.wrapper = hub_wrapper
    new_release(ontology, release)

    satellites = []
    for i in range(SATELLITES):
        sat = g.add_concept(B[f"Sat{i}"])
        metric = g.add_feature(sat, B[f"m{i}"])
        g.add_property(hub, B[f"links{i}"], sat)
        rows = [{"hid": f"app-{h:05d}",
                 "m": f"qos-{rng.randrange(METRIC_SPACE)}"}
                for h in range(HUB_ROWS) for _ in range(FANOUT)]
        wrapper = StaticWrapper(f"wSat{i}", f"SS{i}", ["hid"], ["m"],
                                rows)
        release = build_release(
            ontology, f"SS{i}", f"wSat{i}",
            id_attributes=["hid"], non_id_attributes=["m"],
            feature_hints={"hid": B.hid, "m": metric})
        release.wrapper = wrapper
        new_release(ontology, release)
        satellites.append((i, sat, metric))

    queries = []
    for i, sat_a, metric_a in satellites[:SATELLITES // 3]:
        j, sat_b, metric_b = satellites[i + SATELLITES // 3]
        k, sat_c, metric_c = satellites[i + 2 * (SATELLITES // 3)]
        queries.append(f"""
            SELECT ?x ?y ?z ?w WHERE {{
                VALUES (?x ?y ?z ?w)
                    {{ (<{B.hubMetric}> <{metric_a}> <{metric_b}>
                        <{metric_c}>) }}
                <{B.Hub}> G:hasFeature <{B.hubMetric}> .
                <{B.Hub}> <{B[f"links{i}"]}> <{sat_a}> .
                <{sat_a}> G:hasFeature <{metric_a}> .
                <{B.Hub}> <{B[f"links{j}"]}> <{sat_b}> .
                <{sat_b}> G:hasFeature <{metric_b}> .
                <{B.Hub}> <{B[f"links{k}"]}> <{sat_c}> .
                <{sat_c}> G:hasFeature <{metric_c}>
            }}""")
    return ontology, queries


def test_columnar_execution(write_result, write_json):
    ontology, queries = build_scenario()

    # The engine comparison disables the answer cache (it would serve
    # every repeat from memory and measure nothing). Rewriting is
    # cached on both sides, so the delta is evaluation alone; the
    # production engine also shares one scan cache across repeats.
    prod = QueryEngine(ontology, use_answer_cache=False)
    oracle = QueryEngine(ontology, use_planner=False,
                         use_answer_cache=False)
    scans = ScanCache()

    # Warm rewrite caches + assert bag equality with the oracle.
    out_rows = 0
    intermediate_rows = 0
    for query in queries:
        planned = prod.answer(query, scan_cache=scans)
        assert _canon(planned) == _canon(oracle.answer(query))
        out_rows += len(planned)
        metrics = prod.plan(query).last_metrics
        intermediate_rows += sum(node.rows_out for node in metrics.walk()
                                 if node is not metrics)

    # -- workload 1: fanout walk batch, production vs. oracle -----------
    # Interleaved, alternating which side runs first, so a noisy
    # stretch on a shared machine hits both sides instead of one.
    oracle_runs: list[float] = []
    prod_runs: list[float] = []
    sides = [(oracle_runs, lambda: oracle.answer_many(queries)),
             (prod_runs, lambda: prod.answer_many(queries,
                                                  scan_cache=scans))]
    for rep in range(3):
        for runs, fn in (sides if rep % 2 == 0 else sides[::-1]):
            runs.append(_best_of(fn, repeat=1))
    oracle_s, prod_s = min(oracle_runs), min(prod_runs)
    oracle_speedup = oracle_s / prod_s
    stages = stage_self_ms(prod.plan(query).last_metrics
                           for query in queries)
    # information only: each satellite's cold scan, median across them
    scan_ms = sorted(cold_scan_ms(ontology.physical_wrapper(f"wSat{i}"))
                     for i in range(SATELLITES))
    scan_ms_median = scan_ms[len(scan_ms) // 2]

    # -- workload 2: full answer cache ----------------------------------
    served = QueryEngine(ontology)  # answer cache on (the default)
    cache = ScanCache()

    def cold_answer():
        served.clear_answer_cache()
        served.answer(queries[0], scan_cache=cache)

    cold_s = _best_of(cold_answer, repeat=3)
    served.clear_answer_cache()
    served.answer(queries[0], scan_cache=cache)  # warm the cache

    fetches = []
    for name in ("wHub", *(f"wSat{i}" for i in range(SATELLITES))):
        wrapper = ontology.physical_wrapper(name)
        original = wrapper.fetch_rows

        def counted(columns=None, _o=original, _n=name):
            fetches.append(_n)
            return _o(columns=columns)

        wrapper.fetch_rows = counted

    warm_s = _best_of(lambda: served.answer(queries[0],
                                            scan_cache=cache),
                      repeat=5)
    cache_speedup = cold_s / warm_s
    oracle_per_query_s = oracle_s / len(queries)
    oracle_cache_speedup = oracle_per_query_s / warm_s
    assert fetches == []  # a warm hit never touches a wrapper
    assert served.answer_cache.stats.hits >= 5

    joined = HUB_ROWS * FANOUT * FANOUT * len(queries)
    content = "\n".join([
        "Production engine vs. oracle & full answer cache",
        "",
        f"hub: {HUB_ROWS} rows; {SATELLITES} satellites × "
        f"{HUB_ROWS * FANOUT} rows (fanout {FANOUT}); "
        f"{len(queries)} hub + 3-satellite walk queries joining "
        f"~{joined} rows, DISTINCT → {out_rows} answers",
        "",
        "fanout walk batch (same rewritings):",
        f"  oracle      {oracle_s * 1e3:8.2f} ms",
        f"  production  {prod_s * 1e3:8.2f} ms   {oracle_speedup:5.2f}× "
        "vs oracle",
        "  production stages (self time, last run): " + ", ".join(
            f"{kind} {ms:.2f} ms" for kind, ms in stages.items()),
        "",
        f"cold satellite scan (rows → encoded, deduplicated batch; "
        f"{HUB_ROWS * FANOUT} rows × 2 columns): median "
        f"{scan_ms_median:.2f} ms",
        "",
        f"intermediate rows (summed operator outputs): "
        f"{intermediate_rows} (limit {INTERMEDIATE_ROWS_LIMIT})",
        "",
        "full answer cache (production path):",
        f"  oracle/query  {oracle_per_query_s * 1e3:10.3f} ms",
        f"  cold evaluate {cold_s * 1e3:10.3f} ms",
        f"  warm hit      {warm_s * 1e3:10.3f} ms   "
        f"{oracle_cache_speedup:7.0f}× vs oracle, "
        f"{cache_speedup:7.0f}× vs cold (zero wrapper fetches)",
        "",
        f"answer cache: {served.answer_cache.stats.snapshot()}",
    ])
    write_result("bench_columnar.txt", content)
    write_json("columnar", {
        "hub_rows": HUB_ROWS,
        "satellites": SATELLITES,
        "fanout": FANOUT,
        "queries": len(queries),
        "joined_rows": joined,
        "output_rows": out_rows,
        "oracle_seconds": oracle_s,
        "production_seconds": prod_s,
        "oracle_speedup": round(oracle_speedup, 2),
        "production_stage_self_ms": stages,
        "cold_scan_ms_median": round(scan_ms_median, 3),
        "intermediate_rows": intermediate_rows,
        "intermediate_rows_limit": INTERMEDIATE_ROWS_LIMIT,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "answer_cache_oracle_speedup": round(oracle_cache_speedup, 2),
        "answer_cache_cold_ratio": round(cache_speedup, 2),
        "answer_cache": served.answer_cache.stats.snapshot(),
    })

    assert oracle_speedup >= 3.0, (
        f"production engine only {oracle_speedup:.2f}× over the naive "
        "oracle on the fanout walk batch")
    assert intermediate_rows <= INTERMEDIATE_ROWS_LIMIT, (
        f"{intermediate_rows} intermediate rows over the batch; set "
        "semantics should keep them under "
        f"{INTERMEDIATE_ROWS_LIMIT}")
    assert cache_speedup >= 50.0, (
        f"warm answer-cache hit only {cache_speedup:.0f}× over cold "
        "evaluation")
