"""The HTTP gateway: routes, error mapping, and in-process parity.

The acceptance property of the protocol redesign: the same
:class:`~repro.api.protocol.QueryRequest` served in-process and over
the wire returns byte-identical response payloads (modulo the
``elapsed_ms`` timing field), because both transports call one
:class:`~repro.api.endpoint.ProtocolEndpoint`.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.api import GovernedClient, HttpGateway
from repro.errors import (
    EpochSuperseded, GatewayError, UnanswerableQueryError,
)
from repro.service import build_industrial_service


#: an OMQ over a concept with no mapped wrapper → UnanswerableQueryError
BAD_QUERY = """SELECT ?v1 WHERE {
    VALUES (?v1) { (<urn:industrial:orphan/id>) }
    <urn:industrial:Orphan> G:hasFeature <urn:industrial:orphan/id>
}"""


@pytest.fixture(scope="module")
def serving_scenario():
    from repro.rdf.term import IRI

    scenario = build_industrial_service()
    orphan = scenario.ontology.globals.add_concept(
        IRI("urn:industrial:Orphan"))
    scenario.ontology.globals.add_feature(
        orphan, IRI("urn:industrial:orphan/id"), is_id=True)
    return scenario


@pytest.fixture(scope="module")
def gateway(serving_scenario):
    service = serving_scenario.mdm.serving(max_workers=4)
    with HttpGateway(service) as gw:
        yield gw
    service.close()


@pytest.fixture()
def remote(gateway):
    return GovernedClient(gateway.url)


@pytest.fixture()
def local(serving_scenario):
    return GovernedClient(serving_scenario.mdm.serving(max_workers=4))


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as reply:
        return reply.status, json.load(reply)


def _post(url: str, payload) -> tuple[int, dict]:
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status, json.load(reply)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestRoutes:
    def test_healthz(self, gateway):
        status, payload = _get(gateway.url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert isinstance(payload["epoch"], int)

    def test_describe(self, gateway):
        status, payload = _get(gateway.url + "/v1/describe")
        assert status == 200
        assert payload["ok"]
        assert payload["statistics"]["wrappers"] == 5

    def test_unknown_route_is_404_json(self, gateway):
        status, payload = _post(gateway.url + "/v1/nope", {})
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_method_not_allowed(self, gateway):
        request = urllib.request.Request(
            gateway.url + "/v1/query", method="DELETE")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 405

    def test_bad_json_is_400(self, gateway):
        request = urllib.request.Request(
            gateway.url + "/v1/query", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read().decode())
        assert payload["error"]["code"] == "malformed_request"

    def test_query_error_maps_to_http_status(self, gateway,
                                             serving_scenario):
        status, payload = _post(gateway.url + "/v1/query", {
            "query": serving_scenario.queries["twitter_api"],
            "epoch": 99,
        })
        assert status == 409
        assert payload["error"]["code"] == "epoch_superseded"
        assert payload["error"]["retryable"] is True
        # The structured epochs survive the wire for deterministic
        # client-side re-pinning.
        assert payload["error"]["details"]["requested"] == 99
        assert isinstance(payload["error"]["details"]["serving"], int)

    def test_describe_timeout_param(self, gateway):
        status, payload = _get(gateway.url + "/v1/describe?timeout=5")
        assert status == 200 and payload["ok"]
        request = urllib.request.Request(
            gateway.url + "/v1/describe?timeout=soon")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_batch_route(self, gateway, serving_scenario):
        queries = serving_scenario.query_texts()
        status, payload = _post(gateway.url + "/v1/query", {
            "batch": [{"query": q} for q in queries]})
        assert status == 200
        responses = payload["responses"]
        assert len(responses) == len(queries)
        assert all(r["ok"] for r in responses)
        assert len({r["epoch"] for r in responses}) == 1


class TestRemoteClient:
    def test_typed_errors_cross_the_wire(self, remote):
        with pytest.raises(UnanswerableQueryError):
            remote.query(BAD_QUERY)

    def test_pagination_over_the_wire(self, remote, serving_scenario):
        query = serving_scenario.queries["google_calendar"]
        pages = list(remote.stream(query, page_size=9))
        assert [len(p.rows) for p in pages] == [9, 9, 6]
        assert {p.epoch for p in pages} == {pages[0].epoch}

    def test_gateway_error_when_unreachable(self):
        client = GovernedClient("http://127.0.0.1:9")
        with pytest.raises(GatewayError):
            client.describe()


class TestParity:
    """Same request, both transports, identical payloads."""

    @staticmethod
    def _payloads(local, remote, **kwargs):
        lhs = local.query(**kwargs).to_dict()
        rhs = remote.query(**kwargs).to_dict()
        for payload in (lhs, rhs):
            payload.pop("elapsed_ms")
        return (json.dumps(lhs, sort_keys=True),
                json.dumps(rhs, sort_keys=True))

    def test_full_answer_parity(self, local, remote, serving_scenario):
        for slug, query in serving_scenario.queries.items():
            lhs, rhs = self._payloads(local, remote, query=query,
                                      request_id=f"parity-{slug}")
            assert lhs == rhs, slug

    def test_error_parity(self, local, remote):
        lhs = local.transport.query(
            _request(BAD_QUERY, request_id="parity-err")).to_dict()
        rhs = remote.transport.query(
            _request(BAD_QUERY, request_id="parity-err")).to_dict()
        for payload in (lhs, rhs):
            payload.pop("elapsed_ms")
        assert json.dumps(lhs, sort_keys=True) == \
            json.dumps(rhs, sort_keys=True)

    def test_paginated_parity_modulo_cursor(self, local, remote,
                                            serving_scenario):
        query = serving_scenario.queries["amazon_mws"]
        lhs = local.query(query, page_size=10).to_dict()
        rhs = remote.query(query, page_size=10).to_dict()
        # Cursor tokens are freshly minted per request; everything else
        # — including the page rows — must match bytewise.
        for payload in (lhs, rhs):
            payload.pop("elapsed_ms")
            assert payload.pop("cursor")
        assert json.dumps(lhs, sort_keys=True) == \
            json.dumps(rhs, sort_keys=True)

    def test_shared_state_across_transports(self, local, remote,
                                            serving_scenario):
        """One endpoint: a cursor opened in-process continues over the
        wire, and a release submitted over the wire supersedes an
        in-process pin — the 'same epoch lock and scan cache' claim."""
        query = serving_scenario.queries["sina_weibo"]
        first = local.query(query, page_size=10)
        second = remote.fetch_page(first.cursor)
        assert second.page == 1 and second.epoch == first.epoch

        local.pin()
        # A wire-safe declarative release: same shape as
        # next_version_release, but inline rows instead of a typed
        # wrapper object (those cannot cross the wire).
        remote.submit_release(
            source="sina_weibo", wrapper="sina_weibo_v2",
            id_attributes=["id"],
            non_id_attributes=["body", "reposts"],
            feature_hints={
                "id": "urn:industrial:sina_weibo/id",
                "body": "urn:industrial:sina_weibo/body",
                "reposts": "urn:industrial:sina_weibo/reposts"},
            rows=[{"id": 24 + i, "body": f"b{i}", "reposts": i}
                  for i in range(24)])
        with pytest.raises(EpochSuperseded):
            local.query(query)


def _request(query: str, request_id: str):
    from repro.api.protocol import QueryRequest

    return QueryRequest(query=query, request_id=request_id)


class TestEncodedBodies:
    """Every ``/v1/query`` body is byte-identical to encoding the
    in-process response's ``to_dict()``, whether its rows were encoded
    from a fresh answer's columns, taken from a reused answer's stored
    bytes, or paged."""

    @pytest.fixture()
    def served(self):
        from repro.api.http_gateway import _GatewayRoutes
        from repro.api.httpd import HttpRequest
        from repro.datasets import EXEMPLARY_QUERY, build_supersede
        from repro.mdm.system import MDM

        scenario = build_supersede(with_evolution=True)
        service = MDM(scenario.ontology).serving()
        endpoint = service.endpoint
        routes = _GatewayRoutes(endpoint)
        seen = []
        handle_query = endpoint.handle_query

        def capture(request, **options):
            seen.append(handle_query(request, **options))
            return seen[-1]

        endpoint.handle_query = capture

        def send(method, query="", payload=None):
            body = json.dumps(payload).encode() if payload else b""
            return routes.handle(HttpRequest(
                method=method, path="/v1/query", query=query, headers={},
                body=body, content_length=len(body), keep_alive=True))

        def call(method, query="", payload=None):
            reply = send(method, query, payload)
            response = seen[-1]
            if response.rows is None:
                # A full answer the gateway encoded from its relation;
                # the in-process transport carries the same rows.
                response = replace(response, rows=response.relation.rows)
            assert reply.body == json.dumps(
                response.to_dict(), sort_keys=True).encode("utf-8")
            assert response.ok
            return response

        def post(**payload):
            return call("POST", payload={"query": EXEMPLARY_QUERY,
                                         **payload})

        yield SimpleNamespace(scenario=scenario, service=service,
                              post=post, call=call, send=send)
        service.close()

    def test_first_serve_then_hits(self, served):
        post = served.post
        fresh = post(request_id="r1")
        relation = fresh.relation
        assert relation._columnar is not None  # a plan answer's batch
        assert relation._rows_json is None  # fresh answers keep no bytes
        hit = post(request_id="r2")
        assert hit.relation is relation
        stored = relation._rows_json
        assert stored is not None
        assert post(request_id="r3").relation._rows_json is stored
        assert served.service.answer_cache.stats.hits == 2

    def test_after_a_patch(self, served):
        post = served.post
        before = post().rows
        served.scenario.wrappers["w3"].update_rows(
            lambda row: row["appId"] == 2, {"appId": 3})
        patched = post()
        assert patched.rows != before
        assert patched.relation._rows_json is not None
        assert served.service.answer_cache.stats.seeds == 1

    def test_paged_first_page_and_continuation(self, served):
        post, call = served.post, served.call
        post()
        post()  # a hit: the relation now keeps its bytes
        first = post(page_size=2)
        assert first.cursor is not None and len(first.rows) == 2
        second = call("POST", payload={"cursor": first.cursor})
        assert second.page == 1 and len(second.rows) == 2

    def test_get(self, served):
        import urllib.parse

        from repro.datasets import EXEMPLARY_QUERY
        post, call = served.post, served.call
        post()
        query = urllib.parse.urlencode({"query": EXEMPLARY_QUERY,
                                        "request_id": "g1"})
        first = call("GET", query=query)
        again = call("GET", query=query)
        assert again.relation is first.relation
        assert first.relation._rows_json is not None
        assert again.request_id == "g1"

    def test_concurrent_hits_encode_consistently(self, served):
        import sys
        import threading

        from repro.datasets import EXEMPLARY_QUERY
        send = served.send
        expected = served.post().rows
        bad: list[str] = []

        def reader(i):
            for j in range(20):
                rid = f"t{i}-{j}"
                body = json.loads(send("POST", payload={
                    "query": EXEMPLARY_QUERY, "request_id": rid}).body)
                if body["rows"] != expected or body["request_id"] != rid:
                    bad.append(rid)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert bad == []


class TestFreshAnswerOverHttp:
    """A fresh full answer crosses the gateway straight from its
    columns; the in-process transport still gets its row dicts."""

    #: the evolved exemplary query's rows, in the order the row-based
    #: plan boundary produced them
    ROWS = [{"applicationId": 1, "lagRatio": 0.75},
            {"applicationId": 1, "lagRatio": 0.9},
            {"applicationId": 2, "lagRatio": 0.1},
            {"applicationId": 1, "lagRatio": 0.25},
            {"applicationId": 2, "lagRatio": 0.25}]

    def test_no_row_dicts_over_http(self, monkeypatch):
        from repro.datasets import EXEMPLARY_QUERY, build_supersede
        from repro.mdm.system import MDM
        from repro.relational.columnar import ColumnBatch

        service = MDM(build_supersede(with_evolution=True).ontology
                      ).serving()
        pivots = []
        to_rows = ColumnBatch.to_rows

        def counting_to_rows(batch):
            pivots.append(len(batch))
            return to_rows(batch)

        monkeypatch.setattr(ColumnBatch, "to_rows", counting_to_rows)
        try:
            with HttpGateway(service) as gw:
                remote = GovernedClient(gw.url).query(EXEMPLARY_QUERY)
            assert pivots == []
            assert service.answer_cache.stats.hits == 0
            assert remote.rows == self.ROWS
            local = GovernedClient(service).query(EXEMPLARY_QUERY)
            assert local.rows == self.ROWS
            assert pivots == [len(self.ROWS)]
        finally:
            service.close()
