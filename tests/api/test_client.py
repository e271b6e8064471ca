"""GovernedClient sessions: pinning, streaming, idempotent releases."""

from __future__ import annotations

import pytest

from repro.api import GovernedClient, InProcessTransport, as_transport
from repro.api import endpoint as endpoint_module
from repro.errors import (
    EpochSuperseded, InvalidCursorError, MalformedRequestError,
    UnanswerableQueryError,
)
from repro.service import build_industrial_service, next_version_release

#: an OMQ over a concept with no mapped wrapper → UnanswerableQueryError
BAD_QUERY = """SELECT ?v1 WHERE {
    VALUES (?v1) { (<urn:industrial:orphan/id>) }
    <urn:industrial:Orphan> G:hasFeature <urn:industrial:orphan/id>
}"""


def _add_orphan_concept(ontology) -> None:
    from repro.rdf.term import IRI

    orphan = ontology.globals.add_concept(IRI("urn:industrial:Orphan"))
    ontology.globals.add_feature(
        orphan, IRI("urn:industrial:orphan/id"), is_id=True)


@pytest.fixture()
def serving_scenario():
    scenario = build_industrial_service()
    _add_orphan_concept(scenario.ontology)
    return scenario


@pytest.fixture()
def service(serving_scenario):
    svc = serving_scenario.mdm.serving(max_workers=4)
    yield svc
    svc.close()


@pytest.fixture()
def client(service):
    with service.client() as session:
        yield session


class TestQuerying:
    def test_query_carries_consistency_evidence(
            self, serving_scenario, client):
        response = client.query(
            serving_scenario.queries["twitter_api"])
        assert response.ok and response.epoch == 0
        assert response.total_rows == len(response.rows) == 24
        assert response.cursor is None and not response.has_more
        ontology = serving_scenario.ontology
        assert response.fingerprint == (
            ontology.fingerprint().epoch,
            ontology.fingerprint().structure)

    def test_rows_convenience(self, serving_scenario, client):
        rows = client.rows(serving_scenario.queries["amazon_mws"])
        assert len(rows) == 24 and "id" in rows[0] and "sku" in rows[0]

    def test_typed_errors_raise(self, client):
        with pytest.raises(MalformedRequestError):
            client.fetch_page("")  # cursor="" fails validation
        with pytest.raises(UnanswerableQueryError):
            client.query(BAD_QUERY)

    def test_coercion_targets(self, serving_scenario, service):
        for target in (service, service.endpoint,
                       serving_scenario.mdm):
            session = GovernedClient(target)
            assert isinstance(session.transport, InProcessTransport)
        with pytest.raises(ValueError):
            as_transport("ftp://nope")
        with pytest.raises(TypeError):
            as_transport(42)

    def test_client_accessors_reuse_the_live_service(
            self, serving_scenario):
        """A convenience accessor never closes and replaces a
        configured (non-default) service, which would orphan its
        cursors and detach its evolution listener."""
        mdm = serving_scenario.mdm
        service = mdm.serving(max_workers=7)
        try:
            session = mdm.client()
            assert session.transport.endpoint is service.endpoint
            assert mdm._serving is service  # untouched by defaults
            assert GovernedClient(mdm).transport.endpoint \
                is service.endpoint
        finally:
            service.close()


class TestPagination:
    def test_stream_pages_one_snapshot(self, serving_scenario, client):
        query = serving_scenario.queries["google_calendar"]
        pages = list(client.stream(query, page_size=10))
        assert [len(p.rows) for p in pages] == [10, 10, 4]
        assert [p.page for p in pages] == [0, 1, 2]
        assert {p.epoch for p in pages} == {0}
        assert {p.total_rows for p in pages} == {24}
        assert pages[-1].cursor is None
        flat = [r["id"] for p in pages for r in p.rows]
        assert sorted(flat) == sorted(
            r["id"] for r in client.rows(query))

    def test_exhausted_cursor_is_invalid(self, serving_scenario,
                                         client):
        query = serving_scenario.queries["google_gadgets"]
        first = client.query(query, page_size=20)
        second = client.fetch_page(first.cursor)
        assert not second.has_more
        with pytest.raises(InvalidCursorError):
            client.fetch_page(first.cursor)

    def test_unknown_cursor_is_invalid(self, client):
        with pytest.raises(InvalidCursorError):
            client.fetch_page("c999.no-such-token")

    def test_cursor_capacity_evicts_lru(self, serving_scenario,
                                        service, monkeypatch):
        # the endpoint is built lazily, so it reads the patched bound
        monkeypatch.setattr(endpoint_module, "CURSOR_CAPACITY", 2)
        client = service.client()
        query = serving_scenario.queries["sina_weibo"]
        oldest = client.query(query, page_size=5)
        client.query(query, page_size=5)
        client.query(query, page_size=5)
        assert service.endpoint.open_cursors == 2
        with pytest.raises(InvalidCursorError):
            client.fetch_page(oldest.cursor)

    def test_stream_rows_flattens(self, serving_scenario, client):
        query = serving_scenario.queries["twitter_api"]
        rows = list(client.stream_rows(query, page_size=7))
        assert len(rows) == 24


class TestEpochPinning:
    def test_pinned_session_fails_typed_after_release(
            self, serving_scenario, client):
        query = serving_scenario.queries["twitter_api"]
        assert client.pinned_epoch is None
        client.pin()
        assert client.pinned_epoch == 0
        assert client.check_pin() == 0
        client.query(query)  # pinned epoch still served

        client.submit_release(
            release=next_version_release(serving_scenario,
                                         "twitter_api"))
        # The session's own release re-pins it (read-your-writes)...
        assert client.pinned_epoch == 1
        client.query(query)

        # ...but a *foreign* release supersedes the pin.
        other = serving_scenario.mdm.serving().client()
        other.submit_release(
            release=next_version_release(serving_scenario,
                                         "amazon_mws"))
        with pytest.raises(EpochSuperseded) as excinfo:
            client.query(query)
        assert excinfo.value.requested == 1
        assert excinfo.value.serving == 2
        with pytest.raises(EpochSuperseded):
            client.check_pin()
        assert client.refresh() == 2
        client.query(query)
        client.unpin()
        assert client.pinned_epoch is None

    def test_unpinned_session_always_reads_current(
            self, serving_scenario, client):
        query = serving_scenario.queries["twitter_api"]
        before = client.query(query)
        client.submit_release(
            release=next_version_release(serving_scenario,
                                         "twitter_api"))
        after = client.query(query)
        assert before.epoch == 0 and after.epoch == 1
        assert {r["id"] for r in after.rows} != \
            {r["id"] for r in before.rows}


class TestReleases:
    def test_declarative_release_is_queryable(self, client):
        response = client.submit_release(
            source="metrics", wrapper="metrics_v1",
            id_attributes=["id"], non_id_attributes=["value"],
            feature_hints={"id": "urn:industrial:google_gadgets/id",
                           "value":
                           "urn:industrial:google_gadgets/title"},
            rows=[{"id": 900, "value": "fresh"}])
        assert response.ok and response.epoch == 1
        assert response.triples_added["S"] > 0

    def test_idempotency_key_replays(self, serving_scenario, client):
        kwargs = dict(
            release=next_version_release(serving_scenario,
                                         "sina_weibo"),
            idempotency_key="release-77")
        first = client.submit_release(**kwargs)
        again = client.submit_release(
            release=next_version_release(serving_scenario,
                                         "sina_weibo"),
            idempotency_key="release-77", request_id="second-try")
        assert not first.replayed
        assert again.replayed
        assert again.epoch == first.epoch == 1
        assert again.triples_added == first.triples_added
        assert again.request_id == "second-try"
        # Only one release actually landed.
        assert client.describe().statistics["releases"] == 1


class TestDescribe:
    def test_describe_reports_serving_state(self, serving_scenario,
                                            client):
        client.query(serving_scenario.queries["twitter_api"],
                     page_size=4)
        description = client.describe()
        assert description.ok and description.epoch == 0
        assert description.statistics["wrappers"] == 5
        assert description.service["stats"]["queries"] == 1
        assert description.service["open_cursors"] == 1
        assert description.service["max_workers"] == 4

    def test_describe_reports_cache_maintenance_stats(
            self, serving_scenario, client):
        client.query(serving_scenario.queries["twitter_api"],
                     page_size=4)
        description = client.describe()
        answer_cache = description.service["answer_cache"]
        for field in ("hit_rate", "patches", "seeds", "fallbacks"):
            assert field in answer_cache
        assert "hit_rate" in description.service["scan_cache"]


class TestBatchEndpoint:
    def test_batch_shares_one_epoch(self, serving_scenario, service):
        from repro.api.protocol import QueryRequest

        requests = [QueryRequest(query=q)
                    for q in serving_scenario.query_texts()]
        responses = service.endpoint.handle_query_batch(requests)
        assert len(responses) == 5
        assert {r.epoch for r in responses} == {0}
        assert all(r.ok for r in responses)
        # One batch, five queries, one read section.
        assert service.stats.batches == 1
        assert service.lock.stats.reads == 1

    def test_batch_rejects_cursors_and_mixed_distinct(
            self, serving_scenario, service):
        from repro.api.protocol import QueryRequest

        query = serving_scenario.queries["twitter_api"]
        responses = service.endpoint.handle_query_batch(
            [QueryRequest(query=query),
             QueryRequest(cursor="c1.abc")])
        assert all(not r.ok for r in responses)
        assert {r.error.code for r in responses} == \
            {"malformed_request"}
        responses = service.endpoint.handle_query_batch(
            [QueryRequest(query=query, distinct=True),
             QueryRequest(query=query, distinct=False)])
        assert {r.error.code for r in responses} == \
            {"malformed_request"}

    def test_batch_pinned_slot_fails_alone(self, serving_scenario,
                                           service):
        from repro.api.protocol import QueryRequest

        query = serving_scenario.queries["twitter_api"]
        responses = service.endpoint.handle_query_batch(
            [QueryRequest(query=query),
             QueryRequest(query=query, epoch=7)])
        assert responses[0].ok
        assert responses[1].error.code == "epoch_superseded"
        assert responses[1].epoch == 0  # the epoch the batch observed
