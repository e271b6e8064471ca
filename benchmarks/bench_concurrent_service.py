"""Concurrent governed serving: batch throughput + release-under-load.

Not a paper figure — this benchmarks the serving layer grown on top of
the reproduction (``src/repro/service/``, see ``docs/architecture.md``).
Workload: the five §6.3 industrial APIs served by wrappers with a small
simulated fetch latency, queried by an analyst panel with heavy
duplication (each analyst poses every API's query).

Two experiments, both asserted (CI runs this file as its thread-stress
smoke step):

* **batch throughput** — `answer_many` at 1/4/16 worker threads versus
  sequential `answer` calls; the batch dedupes by canonical OMQ key and
  overlaps wrapper fetches, and must be ≥2× faster at 4 workers;
* **release under load** — reader threads keep answering while a v2
  release lands through the service's write lock; every answer must
  match the reference answer of the exact release it observed (no torn
  reads), and post-release answers must match a fresh, uncached engine
  (no staleness).
"""

from __future__ import annotations

import threading
import time

from repro.api.protocol import QueryRequest, ReleaseRequest
from repro.query.engine import QueryEngine
from repro.service import (
    GovernedService, analyst_panel, build_industrial_service,
    next_version_release,
)

ANALYSTS = 8
LATENCY = 0.002  # simulated per-fetch wrapper latency (seconds)


def _canon(relation) -> list[tuple]:
    """Order-insensitive canonical form of a relation's rows."""
    return sorted(tuple(sorted(row.items())) for row in relation.rows)


def _best_of(fn, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batch_throughput_scaling(write_result, write_json):
    """`answer_many` vs sequential answering on the industrial panel."""
    scenario = build_industrial_service(latency=LATENCY)
    mdm = scenario.mdm
    panel = analyst_panel(scenario, analysts=ANALYSTS)
    unique = len(scenario.queries)

    # Warm the rewrite cache and parse memo once; the serving regime is
    # steady-state (PR 1 made rewrites cheap — evaluation dominates).
    sequential_answers = [mdm.query(query) for query in panel]

    sequential = _best_of(
        lambda: [mdm.query(query) for query in panel])
    batch_times: dict[int, float] = {}
    for workers in (1, 4, 16):
        batch_times[workers] = _best_of(
            lambda w=workers: mdm.engine.answer_many(panel, workers=w))

    # Identical answers regardless of the execution strategy.
    batch_answers = mdm.engine.answer_many(panel, workers=4)
    for seq_rel, batch_rel in zip(sequential_answers, batch_answers):
        assert _canon(seq_rel) == _canon(batch_rel)

    throughput = {w: len(panel) / t for w, t in batch_times.items()}
    seq_throughput = len(panel) / sequential
    speedup = {w: sequential / t for w, t in batch_times.items()}

    content = "\n".join([
        "Concurrent governed serving — batch throughput (industrial "
        "panel)",
        "",
        f"panel: {len(panel)} queries from {ANALYSTS} analysts, "
        f"{unique} unique OMQs, {LATENCY * 1e3:.0f} ms simulated "
        "wrapper latency",
        "",
        f"sequential answer() loop   {sequential * 1e3:8.2f} ms   "
        f"{seq_throughput:8.0f} q/s",
        *(f"answer_many workers={w:<2}    {batch_times[w] * 1e3:8.2f} "
          f"ms   {throughput[w]:8.0f} q/s   {speedup[w]:5.1f}× vs "
          "sequential" for w in sorted(batch_times)),
    ])
    write_result("bench_concurrent_service_throughput.txt", content)
    write_json("concurrent_service_throughput", {
        "panel_queries": len(panel),
        "unique_queries": unique,
        "latency_seconds": LATENCY,
        "sequential_seconds": sequential,
        "batch_seconds": {str(w): t for w, t in batch_times.items()},
        "throughput_qps": {str(w): round(v, 1)
                           for w, v in throughput.items()},
        "sequential_qps": round(seq_throughput, 1),
        "speedup_vs_sequential": {str(w): round(v, 2)
                                  for w, v in speedup.items()},
    })

    assert speedup[4] >= 2.0, (
        f"batch at 4 workers only {speedup[4]:.2f}× over sequential")


def test_release_under_load(write_result, write_json):
    """A release landing mid-batch never yields a stale or torn answer."""
    scenario = build_industrial_service(latency=0.001)
    service = GovernedService(scenario.mdm, max_workers=4)
    query = scenario.queries["twitter_api"]
    release = next_version_release(scenario, "twitter_api",
                                   latency=0.001)

    pre_reference = _canon(QueryEngine(
        scenario.ontology, use_cache=False).answer(query))

    observed: list[tuple[int, list[tuple]]] = []
    observed_lock = threading.Lock()
    released = threading.Event()
    torn_or_failed: list[str] = []

    def reader() -> None:
        post_seen = 0
        for _ in range(200):
            try:
                served = service.endpoint.handle_query(
                    QueryRequest(query=query)).raise_for_error()
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                torn_or_failed.append(repr(exc))
                return
            with observed_lock:
                observed.append((served.epoch, _canon(served.relation)))
            if released.is_set() and served.epoch >= 1:
                post_seen += 1
                if post_seen >= 3:
                    return

    threads = [threading.Thread(target=reader, name=f"analyst-{i}")
               for i in range(4)]
    for thread in threads:
        thread.start()
    time.sleep(0.02)  # let readers reach steady state
    service.endpoint.handle_release(
        ReleaseRequest(release=release)).raise_for_error()
    released.set()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert not torn_or_failed, torn_or_failed

    post_reference = _canon(QueryEngine(
        scenario.ontology, use_cache=False).answer(query))
    assert pre_reference != post_reference  # the release is observable

    pre_count = post_count = 0
    for epoch, rows in observed:
        if epoch == 0:
            assert rows == pre_reference, "torn/stale pre-release answer"
            pre_count += 1
        else:
            assert epoch == 1
            assert rows == post_reference, "torn/stale post-release answer"
            post_count += 1
    assert post_count >= 3  # the release landed while readers were live

    # Post-release answers served through the warm cache match a fresh
    # engine over the evolved ontology (the CI smoke staleness check).
    assert _canon(service.endpoint.handle_query(QueryRequest(
        query=query)).raise_for_error().relation) == post_reference
    assert service.lock.stats.writes == 1

    # Cache counters stayed consistent under the concurrent hammering.
    stats = scenario.mdm.cache.stats
    assert stats.lookups == stats.hits + stats.misses

    lock_stats = service.lock.stats
    content = "\n".join([
        "Concurrent governed serving — release under load",
        "",
        f"answers observed: {len(observed)} "
        f"({pre_count} @ epoch 0, {post_count} @ epoch 1)",
        "every answer matched its epoch's reference (no torn or stale "
        "reads)",
        f"writer drained {lock_stats.max_drained_readers} in-flight "
        f"reader(s) in {lock_stats.drain_seconds * 1e3:.2f} ms",
        "",
        service.describe(),
    ])
    write_result("bench_concurrent_service_release.txt", content)
    write_json("concurrent_service_release", {
        "answers_observed": len(observed),
        "pre_release_answers": pre_count,
        "post_release_answers": post_count,
        "drained_readers_max": lock_stats.max_drained_readers,
        "drain_seconds": round(lock_stats.drain_seconds, 6),
        "reads_blocked": lock_stats.reads_blocked,
        "cache_stats": stats.snapshot(),
    })
