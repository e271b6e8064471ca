"""Which layer entry points the traced run times, and the per-layer
metrics computed from the spans.

Each span name is ``<package>.<entry point>``; the package names are the
``repro`` subpackages, so a metric name says which layer moved.
Per-request values are summed within a request and reported as the
median over the run's queries (or releases); ``*_per_query`` values are
run totals divided by the number of queries; ``*_ratio`` values are
useful outcomes over attempts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable

from benchkit.spans import Instrumentation, Span, SpanRecorder, self_time
from benchkit.stats import median

#: every per-layer metric the traced run reports, in output order
PER_LAYER = (
    ("api.handle_self_ms", "ms"), ("api.encode_ms", "ms"),
    ("api.wire_ms", "ms"), ("api.response_kb", "KiB"),
    ("api.release_self_ms", "ms"), ("api.shed", "count"),
    ("service.read_wait_ms", "ms"), ("service.write_drain_ms", "ms"),
    ("query.parse_ms", "ms"), ("query.rewrite_ms", "ms"),
    ("query.rewrite_hit_ratio", "ratio"), ("query.plan_ms", "ms"),
    ("query.plans_per_query", "count"),
    ("query.answer_hit_ratio", "ratio"), ("query.patch_ratio", "ratio"),
    ("query.rewrite_plan_share_pct", "%"),
    ("rdf.selects_per_query", "count"), ("rdf.select_ms", "ms"),
    ("rdf.union_copies_per_query", "count"),
    ("rdf.union_triples_per_query", "count"), ("rdf.union_ms", "ms"),
    ("rdf.union_share_pct", "%"),
    ("core.new_release_ms", "ms"),
    ("core.fingerprint_calls_per_query", "count"),
    ("core.fingerprint_ms", "ms"), ("core.triples_end", "count"),
    ("evolution.build_release_ms", "ms"),
    ("storage.append_ms", "ms"), ("storage.bytes_per_release", "B"),
    ("relational.execute_self_ms", "ms"),
    ("relational.intermediate_rows", "count"),
    ("relational.rows_out", "count"),
    ("relational.scan_hit_ratio", "ratio"),
    ("wrappers.fetch_ms", "ms"), ("wrappers.fetches_per_query", "count"),
    ("wrappers.rows_fetched", "count"), ("wrappers.delta_rows", "count"),
    ("streaming.seed_ms", "ms"), ("streaming.refresh_ms", "ms"),
    ("streaming.reseed_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
)


def _request_of(_self: Any, request: Any, *_: Any, **__: Any) -> Any:
    return request.request_id


def _own_request(self: Any, *_: Any, **__: Any) -> Any:
    return self.request_id


def _payload_request(_cls: Any, _status: Any, payload: Any, *_: Any,
                     **__: Any) -> Any:
    return payload.get("request_id") if isinstance(payload, dict) \
        else None


def _hit(span: Span, result: Any, _args: tuple) -> None:
    span.attrs["hit"] = result is not None


def _body_bytes(span: Span, result: Any, _args: tuple) -> None:
    span.attrs["bytes"] = len(result.body)


def _triples(span: Span, result: Any, _args: tuple) -> None:
    span.attrs["triples"] = len(result)


def _rows(span: Span, result: Any, _args: tuple) -> None:
    span.attrs["rows"] = len(result)


def _delta_rows(span: Span, result: Any, _args: tuple) -> None:
    span.attrs["rows"] = len(result.changes) if result is not None else 0


def _reseeded(span: Span, result: Any, _args: tuple) -> None:
    span.attrs["reseeded"] = bool(result.reseeded)


def _plan_rows(span: Span, result: Any, args: tuple) -> None:
    metrics = args[0].last_metrics
    span.attrs["rows"] = len(result)
    span.attrs["intermediate"] = 0 if metrics is None else sum(
        node.rows_out for node in metrics.walk() if node is not metrics)


def instrument(recorder: SpanRecorder) -> Instrumentation:
    """Wrap every timed entry point where the serving path calls it."""
    import repro.core.ontology as ontology_mod
    import repro.core.release as release_mod
    import repro.evolution.release_builder as builder_mod
    import repro.query.engine as engine_mod
    import repro.query.intra_concept as intra_mod
    import repro.storage.journal as journal_mod
    from repro.api.client import HttpTransport
    from repro.api.endpoint import ProtocolEndpoint
    from repro.api.httpd import HttpResponse
    from repro.api.protocol import QueryResponse
    from repro.core.ontology import BDIOntology
    from repro.query.answer_cache import AnswerCache
    from repro.query.cache import RewriteCache
    from repro.query.planner import PhysicalPlan
    from repro.rdf.dataset import Dataset
    from repro.service.epoch_lock import EpochLock
    from repro.streaming.standing import StandingQuery
    from repro.wrappers.base import StaticWrapper

    inst = Instrumentation(recorder)
    wrap = inst.wrap
    # api: client span, server handling, response encoding
    wrap(HttpTransport, "query", "api.client_query",
         request_id=_request_of)
    wrap(HttpTransport, "release", "api.client_release",
         request_id=_request_of)
    wrap(ProtocolEndpoint, "handle_query", "api.handle_query",
         request_id=_request_of)
    wrap(ProtocolEndpoint, "handle_release", "api.handle_release",
         request_id=_request_of)
    wrap(QueryResponse, "to_dict", "api.to_dict", request_id=_own_request)
    wrap(HttpResponse, "json", "api.json", request_id=_payload_request,
         annotate=_body_bytes)
    # service: waiting for the epoch lock
    wrap(EpochLock, "acquire_read", "service.acquire_read")
    wrap(EpochLock, "acquire_write", "service.acquire_write")
    # query: the engine's module globals are what QueryEngine calls
    wrap(engine_mod, "parse_omq", "query.parse")
    wrap(engine_mod, "rewrite", "query.rewrite")
    wrap(engine_mod, "plan_ucq", "query.plan")
    wrap(RewriteCache, "lookup", "query.rewrite_lookup", annotate=_hit)
    wrap(AnswerCache, "lookup", "query.answer_lookup", annotate=_hit)
    wrap(engine_mod.QueryEngine, "answer", "query.answer")
    # rdf: every module that imported sparql.select by name
    for module in (intra_mod, release_mod, ontology_mod):
        wrap(module, "select", "rdf.select")
    wrap(Dataset, "union_graph", "rdf.union_graph", annotate=_triples)
    # core, evolution, storage: the release path
    wrap(journal_mod, "new_release", "core.new_release")
    wrap(BDIOntology, "fingerprint", "core.fingerprint")
    wrap(BDIOntology, "triple_counts", "core.triple_counts")
    wrap(builder_mod, "build_release", "evolution.build_release")
    wrap(journal_mod.Journal, "append", "storage.append")
    # relational, wrappers, streaming: execution
    wrap(PhysicalPlan, "execute", "relational.execute",
         annotate=_plan_rows)
    wrap(StaticWrapper, "fetch_rows", "wrappers.fetch", annotate=_rows)
    wrap(StaticWrapper, "fetch_deltas", "wrappers.deltas",
         annotate=_delta_rows)
    wrap(StandingQuery, "seed", "streaming.seed")
    wrap(StandingQuery, "refresh", "streaming.refresh",
         annotate=_reseeded)
    return inst


@dataclass
class _Request:
    """The spans of one request, with per-name sums."""

    spans: list[Span] = field(default_factory=list)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_ms(self, name: str) -> float:
        return sum(s.duration for s in self.named(name)) * 1e3

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in self.named(name))


def _self_ms(spans: Iterable[Span], children: dict[int, list[Span]]
             ) -> float:
    return sum(self_time(s, children.get(s.sid, ())) for s in spans) * 1e3


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span], counters: dict[str, int],
                  release_bytes: list[int],
                  query_p50_ms: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but the overhead).

    *counters* are the deployment's end-of-run ``shed``,
    ``triples_end``, ``scan_hits`` and ``scan_lookups``.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    by_request: dict[str, _Request] = defaultdict(_Request)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
        if span.request_id is not None:
            by_request[span.request_id].spans.append(span)
    queries = [r for r in by_request.values() if r.count("api.client_query")]
    releases = [r for r in by_request.values()
                if r.count("api.client_release")]
    n = len(queries)

    def per_query(value: Any) -> float:
        return median([value(r) for r in queries])

    def per_release(value: Any) -> float:
        return median([value(r) for r in releases])

    def total(name: str, attr: str | None = None) -> float:
        return sum(r.attr_sum(name, attr) if attr else r.count(name)
                   for r in queries)

    def encode_ms(r: _Request) -> float:
        return r.total_ms("api.to_dict") + r.total_ms("api.json")

    def run_ratio(name: str, attr: str) -> float:
        named = [s for s in spans if s.name == name]
        return _ratio(sum(1 for s in named if s.attrs.get(attr)),
                      len(named))

    lookups = [s for s in spans if s.name == "query.answer_lookup"]
    patched = sum(1 for s in spans
                  if s.name in ("streaming.seed", "streaming.refresh"))
    rewrite_ms = per_query(lambda r: r.total_ms("query.rewrite"))
    plan_ms = per_query(lambda r: r.total_ms("query.plan"))
    union_ms = per_query(lambda r: r.total_ms("rdf.union_graph"))
    return {
        "api.handle_self_ms": per_query(lambda r: _self_ms(
            r.named("api.handle_query"), children)),
        "api.encode_ms": per_query(encode_ms),
        "api.wire_ms": per_query(
            lambda r: r.total_ms("api.client_query")
            - r.total_ms("api.handle_query") - encode_ms(r)),
        "api.response_kb": per_query(
            lambda r: r.attr_sum("api.json", "bytes") / 1024),
        "api.release_self_ms": per_release(lambda r: _self_ms(
            r.named("api.handle_release"), children)),
        "api.shed": float(counters["shed"]),
        "service.read_wait_ms": per_query(
            lambda r: r.total_ms("service.acquire_read")),
        "service.write_drain_ms": per_release(
            lambda r: r.total_ms("service.acquire_write")),
        "query.parse_ms": per_query(lambda r: r.total_ms("query.parse")),
        "query.rewrite_ms": rewrite_ms,
        "query.rewrite_hit_ratio": run_ratio("query.rewrite_lookup",
                                             "hit"),
        "query.plan_ms": plan_ms,
        "query.plans_per_query": _ratio(total("query.plan"), n),
        "query.answer_hit_ratio": run_ratio("query.answer_lookup", "hit"),
        "query.patch_ratio": _ratio(patched, len(lookups)),
        "query.rewrite_plan_share_pct": 100 * _ratio(rewrite_ms + plan_ms,
                                                     query_p50_ms),
        "rdf.selects_per_query": _ratio(total("rdf.select"), n),
        "rdf.select_ms": per_query(lambda r: r.total_ms("rdf.select")),
        "rdf.union_copies_per_query": _ratio(total("rdf.union_graph"), n),
        "rdf.union_triples_per_query": _ratio(
            total("rdf.union_graph", "triples"), n),
        "rdf.union_ms": union_ms,
        "rdf.union_share_pct": 100 * _ratio(union_ms, query_p50_ms),
        "core.new_release_ms": per_release(
            lambda r: r.total_ms("core.new_release")),
        "core.fingerprint_calls_per_query": _ratio(
            total("core.fingerprint"), n),
        "core.fingerprint_ms": per_query(
            lambda r: r.total_ms("core.fingerprint")),
        "core.triples_end": float(counters["triples_end"]),
        "evolution.build_release_ms": per_release(
            lambda r: r.total_ms("evolution.build_release")),
        "storage.append_ms": per_release(
            lambda r: r.total_ms("storage.append")),
        "storage.bytes_per_release": median(release_bytes),
        "relational.execute_self_ms": per_query(lambda r: _self_ms(
            r.named("relational.execute"), children)),
        "relational.intermediate_rows": per_query(
            lambda r: r.attr_sum("relational.execute", "intermediate")),
        "relational.rows_out": per_query(
            lambda r: r.attr_sum("relational.execute", "rows")),
        "relational.scan_hit_ratio": _ratio(counters["scan_hits"],
                                            counters["scan_lookups"]),
        "wrappers.fetch_ms": per_query(
            lambda r: r.total_ms("wrappers.fetch")),
        "wrappers.fetches_per_query": _ratio(total("wrappers.fetch"), n),
        "wrappers.rows_fetched": _ratio(total("wrappers.fetch", "rows"), n),
        "wrappers.delta_rows": _ratio(total("wrappers.deltas", "rows"), n),
        "streaming.seed_ms": median(
            [s.duration * 1e3 for s in spans if s.name == "streaming.seed"]),
        "streaming.refresh_ms": median(
            [s.duration * 1e3 for s in spans
             if s.name == "streaming.refresh"]),
        "streaming.reseed_ratio": run_ratio("streaming.refresh",
                                            "reseeded"),
    }
