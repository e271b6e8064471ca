"""Protocol overhead + first-page streaming latency (CI-gated).

Two asserted properties of the protocol redesign (ISSUE 4):

* **protocol overhead** — answering a warm query through a
  :class:`~repro.api.client.GovernedClient` (in-process transport:
  envelope construction, endpoint dispatch, response assembly) must
  stay **< 15%** over a direct :meth:`ProtocolEndpoint.handle_query
  <repro.api.endpoint.ProtocolEndpoint.handle_query>` call on the same
  10k-row workload. The raw ``QueryEngine.answer`` time is reported
  alongside as the no-governance baseline.
* **first-page streaming** — through the HTTP gateway, requesting the
  first 50-row page of a 10k-row answer must be **≥2×** faster
  (client-observed, including JSON decode) than transferring the fully
  materialized answer, because the snapshot stays server-side and only
  the page crosses the wire.

It also reports ``reused_answer_speedup``: the gateway encoding the
reply of a 10k-row answer the cache serves again (its rows encoded once
and kept) against the same reply for a fresh answer (rows encoded every
time). It must stay **≥5×**, and it collapses to ~1× if the answer
cache stops marking the answers it reuses.

And ``fresh_answer_encode_speedup``: the reply of a fresh 10k-row plan
answer whose columns dictionary-encode, encoded from its columns,
against the reply of a dict-backed twin of the same rows, including
the ``to_rows`` pivot that builds the twin's row dicts. It must stay
**≥2×**, and it collapses to ~1× if a plan answer is pivoted to row
dicts or encoded row by row again.

It also reports ``gateway_hit_ms``, informational and not gated: the
median client-observed round trip of a warm answer-cache hit on a
small (``HIT_ROWS``-row) answer through the HTTP gateway. Such a hit
costs the server a few tens of µs, so the figure is the per-request
cost of the hop itself: client framing, the server's loop and worker
hand-off, and JSON decode.

Emits ``BENCH_gateway.json`` with the measured latencies.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

from repro.api import GovernedClient, HttpGateway
from repro.api.http_gateway import query_reply
from repro.api.protocol import QueryRequest
from repro.core.release import new_release
from repro.evolution.release_builder import build_release
from repro.mdm.system import MDM
from repro.rdf.namespace import Namespace
from repro.relational.rows import Relation
from repro.wrappers.base import StaticWrapper

B = Namespace("urn:gateway:")

ROWS = 10_000
FIELDS = ["device", "region", "status", "payload"]
PAGE_SIZE = 50
HIT_ROWS = 20
HIT_REPEAT = 300
OVERHEAD_LIMIT = 0.15
FIRST_PAGE_SPEEDUP_FLOOR = 2.0
REUSED_ANSWER_SPEEDUP_FLOOR = 5.0
FRESH_ANSWER_ENCODE_SPEEDUP_FLOOR = 2.0


def unique_rows():
    """Near-unique strings: no column dictionary-encodes."""
    return [{"id": i,
             **{name: f"{name}-{i:05d}-{'x' * 24}" for name in FIELDS}}
            for i in range(ROWS)]


def coded_rows():
    """Unique rows over low-cardinality columns (≤ 50 values each):
    every column of the answer dictionary-encodes."""
    statuses = ["ok", "warn", "fail", "unknown"]
    return [{"id": i % 50, "device": f"device-{i // 50 % 10}",
             "region": f"region-{i // 500 % 20}",
             "status": statuses[i % 4], "payload": f"payload-{i % 7}"}
            for i in range(ROWS)]


def build_service(rows=None):
    """One concept, one 10k-row five-column wrapper, one OMQ."""
    mdm = MDM()
    ontology = mdm.ontology
    concept = ontology.globals.add_concept(B.Reading)
    ontology.globals.add_feature(concept, B["reading/id"], is_id=True)
    for name in FIELDS:
        ontology.globals.add_feature(concept, B[f"reading/{name}"])
    rows = unique_rows() if rows is None else rows
    wrapper = StaticWrapper("readings_v1", "readings",
                            id_attributes=["id"],
                            non_id_attributes=FIELDS, rows=rows)
    hints = {"id": B["reading/id"],
             **{name: B[f"reading/{name}"] for name in FIELDS}}
    release = build_release(ontology, "readings", wrapper.name,
                            id_attributes=["id"],
                            non_id_attributes=FIELDS,
                            feature_hints=hints)
    release.wrapper = wrapper
    new_release(ontology, release)

    features = [B["reading/id"]] + [B[f"reading/{f}"] for f in FIELDS]
    variables = " ".join(f"?v{i}" for i in range(1, len(features) + 1))
    values = " ".join(f"<{f}>" for f in features)
    triples = " .\n    ".join(
        f"<{B.Reading}> G:hasFeature <{f}>" for f in features)
    query = (f"SELECT {variables} WHERE {{\n"
             f"    VALUES ({variables}) {{ ({values}) }}\n"
             f"    {triples}\n}}")
    return mdm, query


def _best_of(fn, repeat: int) -> float:
    """Best-of-N latency — the low-noise estimator the other gated
    benches use; scheduler blips inflate means, never minima."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _best_of_pair(first, second, repeat: int) -> tuple[float, float]:
    """Best-of-N latency of two calls timed alternately, so a drift of
    the machine's speed during the run moves both minima alike. The
    protocol-overhead ratio needs it: its two sides differ by a few µs
    on ~0.1 ms, while timing them in two separate blocks swung the
    ratio by tens of percent from run to run."""
    best = [float("inf"), float("inf")]
    for _ in range(repeat):
        for side, fn in enumerate((first, second)):
            start = time.perf_counter()
            fn()
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1]


def _encode_reply(response, relation: Relation) -> bytes:
    """The body the gateway sends for *response* with *relation* as its
    full answer."""
    return query_reply(replace(response, rows=None,
                               relation=relation)).body


def measure_fresh_answer_encode(repeat: int) -> dict[str, float]:
    """Reply encode of a fresh plan answer vs. its dict-backed twin."""
    mdm, query = build_service(coded_rows())
    service = mdm.serving()
    try:
        response = service.endpoint.handle_query(
            QueryRequest(query=query), materialize=False)
        batch = response.relation.columnar()
        assert len(batch) == ROWS
        assert all(batch.known_encoding(i) is not None
                   for i in range(len(batch.columns)))
        schema = response.relation.schema

        def from_columns() -> bytes:
            return _encode_reply(response, Relation.from_batch(batch))

        def from_rows() -> bytes:
            return _encode_reply(response, Relation.from_trusted(
                schema, batch.to_rows()))

        assert from_columns() == from_rows()
        columns_s = _best_of(from_columns, repeat)
        rows_s = _best_of(from_rows, repeat)
    finally:
        service.close()
    return {"columns_s": columns_s, "rows_s": rows_s,
            "speedup": rows_s / columns_s}


def measure_gateway_hit(repeat: int) -> float:
    """Median round trip of a warm small answer-cache hit over HTTP."""
    mdm, query = build_service(unique_rows()[:HIT_ROWS])
    service = mdm.serving(max_workers=4)
    try:
        with HttpGateway(service) as gateway:
            remote = GovernedClient(gateway.url)
            for _ in range(20):  # connection, caches, encoded rows
                assert len(remote.query(query).rows) == HIT_ROWS
            samples = []
            for _ in range(repeat):
                start = time.perf_counter()
                remote.query(query)
                samples.append(time.perf_counter() - start)
            remote.close()
    finally:
        service.close()
    return statistics.median(samples)


def test_protocol_overhead_and_first_page_latency(write_result,
                                                  write_json):
    mdm, query = build_service()
    service = mdm.serving(max_workers=4)
    client = GovernedClient(service)

    # Warm every layer (parse memo, rewrite cache, plan memo, scan
    # cache) so the comparison isolates the per-request protocol cost.
    direct_answer = service.endpoint.handle_query(QueryRequest(query=query))
    client_answer = client.query(query)
    assert len(client_answer.rows) == ROWS
    assert client_answer.rows == direct_answer.relation.rows

    repeat = 25
    engine_s = _best_of(
        lambda: mdm.engine.answer(query, scan_cache=service.scan_cache),
        repeat)
    direct_s, client_s = _best_of_pair(
        lambda: service.endpoint.handle_query(QueryRequest(query=query)),
        lambda: client.query(query), repeat)
    overhead = client_s / direct_s - 1.0

    with HttpGateway(service) as gateway:
        remote = GovernedClient(gateway.url)

        def full_answer():
            response = remote.query(query)
            assert len(response.rows) == ROWS

        def first_page():
            response = remote.query(query, page_size=PAGE_SIZE)
            assert len(response.rows) == PAGE_SIZE
            assert response.has_more and response.cursor

        full_answer()  # connection + cache warm-up
        first_page()
        wire_repeat = 15
        full_s = _best_of(full_answer, wire_repeat)
        page_s = _best_of(first_page, wire_repeat)
    speedup = full_s / page_s

    # A hit: the answer cache has served this relation before, so it
    # keeps its encoded rows. The fresh twin holds the same rows but was
    # never reused, so every reply encodes them again.
    response = service.endpoint.handle_query(QueryRequest(query=query))
    reused = response.relation
    fresh = Relation.from_trusted(reused.schema, reused.rows)
    assert _encode_reply(response, reused) == _encode_reply(response, fresh)
    reused_s = _best_of(lambda: _encode_reply(response, reused), repeat)
    fresh_s = _best_of(lambda: _encode_reply(response, fresh), repeat)
    reused_speedup = fresh_s / reused_s
    fresh_answer = measure_fresh_answer_encode(repeat)
    hit_s = measure_gateway_hit(HIT_REPEAT)

    report = "\n".join([
        "protocol overhead + gateway first-page latency "
        f"({ROWS} rows, page={PAGE_SIZE})",
        "",
        f"  raw engine.answer            {engine_s * 1e3:9.3f} ms",
        f"  endpoint.handle_query        {direct_s * 1e3:9.3f} ms",
        f"  GovernedClient (in-process)  {client_s * 1e3:9.3f} ms"
        f"   overhead vs endpoint: {overhead * 100:+.2f}%"
        f"  (limit +{OVERHEAD_LIMIT * 100:.0f}%)",
        "",
        f"  gateway full answer          {full_s * 1e3:9.3f} ms",
        f"  gateway first page           {page_s * 1e3:9.3f} ms"
        f"   speedup: {speedup:.2f}x"
        f"  (floor {FIRST_PAGE_SPEEDUP_FLOOR:.1f}x)",
        "",
        f"  encode fresh answer          {fresh_s * 1e3:9.3f} ms",
        f"  encode reused answer         {reused_s * 1e3:9.3f} ms"
        f"   speedup: {reused_speedup:.2f}x"
        f"  (floor {REUSED_ANSWER_SPEEDUP_FLOOR:.1f}x)",
        "",
        f"  encode plan answer as rows   "
        f"{fresh_answer['rows_s'] * 1e3:9.3f} ms",
        f"  encode plan answer columns   "
        f"{fresh_answer['columns_s'] * 1e3:9.3f} ms"
        f"   speedup: {fresh_answer['speedup']:.2f}x"
        f"  (floor {FRESH_ANSWER_ENCODE_SPEEDUP_FLOOR:.1f}x)",
        "",
        f"  gateway {HIT_ROWS}-row cache hit     {hit_s * 1e3:9.3f} ms"
        f"   median of {HIT_REPEAT} (informational)",
    ])
    write_result("gateway_protocol.txt", report)
    write_json("gateway", {
        "rows": ROWS,
        "page_size": PAGE_SIZE,
        "engine_ms": round(engine_s * 1e3, 3),
        "serve_ms": round(direct_s * 1e3, 3),
        "client_ms": round(client_s * 1e3, 3),
        "client_overhead_vs_serve": round(overhead, 4),
        "gateway_full_ms": round(full_s * 1e3, 3),
        "gateway_first_page_ms": round(page_s * 1e3, 3),
        "first_page_speedup": round(speedup, 2),
        "encode_fresh_ms": round(fresh_s * 1e3, 3),
        "encode_reused_ms": round(reused_s * 1e3, 3),
        "reused_answer_speedup": round(reused_speedup, 2),
        "encode_plan_answer_rows_ms": round(
            fresh_answer["rows_s"] * 1e3, 3),
        "encode_plan_answer_columns_ms": round(
            fresh_answer["columns_s"] * 1e3, 3),
        "fresh_answer_encode_speedup": round(fresh_answer["speedup"], 2),
        "gateway_hit_ms": round(hit_s * 1e3, 3),
    })

    assert overhead < OVERHEAD_LIMIT, (
        f"protocol overhead {overhead:.1%} breaches the "
        f"{OVERHEAD_LIMIT:.0%} gate")
    assert speedup >= FIRST_PAGE_SPEEDUP_FLOOR, (
        f"first page only {speedup:.2f}x faster than full "
        f"materialization (floor {FIRST_PAGE_SPEEDUP_FLOOR}x)")
    assert reused_speedup >= REUSED_ANSWER_SPEEDUP_FLOOR, (
        f"a reused answer encodes only {reused_speedup:.2f}x faster than "
        f"a fresh one (floor {REUSED_ANSWER_SPEEDUP_FLOOR}x)")
    assert fresh_answer["speedup"] >= FRESH_ANSWER_ENCODE_SPEEDUP_FLOOR, (
        f"a fresh plan answer encodes only {fresh_answer['speedup']:.2f}x "
        f"faster from its columns than as row dicts (floor "
        f"{FRESH_ANSWER_ENCODE_SPEEDUP_FLOOR}x)")
