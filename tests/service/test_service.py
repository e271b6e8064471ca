"""GovernedService: epoch-consistent answers across concurrent releases."""

from __future__ import annotations

import threading

import pytest

from repro.api.protocol import QueryRequest, ReleaseRequest
from repro.errors import UnanswerableQueryError
from repro.query.engine import QueryEngine
from repro.rdf.term import IRI
from repro.service import (
    GovernedService, analyst_panel, build_industrial_service,
    next_version_release,
)


def _canon(relation) -> list[tuple]:
    return sorted(tuple(sorted(row.items())) for row in relation.rows)


def _query(service, query):
    """One governed read through the endpoint; raises typed failures."""
    return service.endpoint.handle_query(
        QueryRequest(query=query)).raise_for_error()


def _release(service, release):
    """Land *release* through the endpoint; returns Algorithm 1's
    triples-added delta."""
    return service.endpoint.handle_release(
        ReleaseRequest(release=release)).raise_for_error().triples_added


@pytest.fixture()
def serving_scenario():
    return build_industrial_service()


@pytest.fixture()
def service(serving_scenario):
    svc = serving_scenario.mdm.serving(max_workers=4)
    yield svc
    svc.close()


class TestServe:
    def test_serve_tags_answers_with_epoch_and_fingerprint(
            self, serving_scenario, service):
        query = serving_scenario.queries["twitter_api"]
        served = _query(service, query)
        assert served.epoch == 0
        fingerprint = serving_scenario.ontology.fingerprint()
        assert served.fingerprint == (fingerprint.epoch,
                                      fingerprint.structure)
        assert len(served.rows) == 24
        assert service.stats.queries == 1

    def test_serve_many_shares_one_epoch_and_dedupes(
            self, serving_scenario, service):
        panel = analyst_panel(serving_scenario, analysts=6)
        answers = service.endpoint.handle_query_batch(
            [QueryRequest(query=query) for query in panel])
        assert len(answers) == len(panel)
        assert all(answer.ok for answer in answers)
        assert {a.epoch for a in answers} == {0}
        # 5 unique OMQs → 5 rewrites, duplicates share the relation.
        assert serving_scenario.mdm.cache.stats.misses == 5
        by_query = {}
        for query, served in zip(panel, answers):
            by_query.setdefault(query, served.relation)
            assert served.relation is by_query[query]

    def test_answer_matches_plain_engine(self, serving_scenario,
                                         service):
        query = serving_scenario.queries["amazon_mws"]
        fresh = QueryEngine(serving_scenario.ontology, use_cache=False)
        assert _canon(_query(service, query).relation) == _canon(
            fresh.answer(query))

    def test_batch_failure_modes(self, serving_scenario, service):
        ontology = serving_scenario.ontology
        orphan = ontology.globals.add_concept(IRI("urn:industrial:Orphan"))
        ontology.globals.add_feature(
            orphan, IRI("urn:industrial:orphan/id"), is_id=True)
        bad = """SELECT ?v1 WHERE {
            VALUES (?v1) { (<urn:industrial:orphan/id>) }
            <urn:industrial:Orphan> G:hasFeature
                <urn:industrial:orphan/id>
        }"""
        good = serving_scenario.queries["sina_weibo"]
        served = service.endpoint.handle_query_batch(
            [QueryRequest(query=good), QueryRequest(query=bad)])
        assert served[0].ok and len(served[0].rows) == 24
        assert not served[1].ok and served[1].relation is None
        assert served[1].error.code == "unanswerable_query"
        # the failed slot observed the same epoch as its sibling
        assert served[1].epoch == served[0].epoch == 0
        with pytest.raises(UnanswerableQueryError):
            served[1].raise_for_error()

    def test_serving_accessor_is_memoized(self, serving_scenario):
        mdm = serving_scenario.mdm
        first = mdm.serving(max_workers=2)
        assert mdm.serving(max_workers=2) is first
        # Different parameters close and replace the current service.
        second = mdm.serving(max_workers=3)
        assert second is not first
        mdm.register_release(
            next_version_release(serving_scenario, "google_gadgets"))
        # The replaced service was detached — only the live one counts.
        assert first.stats.bypassed_writes == 0
        assert second.stats.bypassed_writes == 1
        second.close()
        assert mdm.serving(max_workers=3) is not second


class TestReleases:
    def test_apply_release_advances_epoch_and_answers(
            self, serving_scenario, service):
        query = serving_scenario.queries["twitter_api"]
        before = _query(service, query)
        release = next_version_release(serving_scenario, "twitter_api")
        delta = _release(service, release)
        assert delta["lav_graphs"] > 0
        after = _query(service, query)
        assert (before.epoch, after.epoch) == (0, 1)
        assert service.epoch == 1
        # Post-release answers match a fresh engine (never stale).
        fresh = QueryEngine(serving_scenario.ontology, use_cache=False)
        assert _canon(after.relation) == _canon(fresh.answer(query))
        assert len(after.rows) == 48  # v1 ∪ v2 rows
        assert service.stats.releases == 1
        assert service.stats.bypassed_writes == 0

    def test_release_drains_inflight_batch(self, serving_scenario,
                                           service):
        query = serving_scenario.queries["google_calendar"]
        in_batch = threading.Event()
        answers = []

        # A slow reader: holds the read side while the release tries to
        # land, via a wrapper-level latency injected for this test.
        wrapper = serving_scenario.ontology.physical_wrapper(
            "google_calendar_v1")
        wrapper.latency = 0.05

        def reader():
            in_batch.set()
            answers.append(_query(service, query))

        t = threading.Thread(target=reader)
        t.start()
        assert in_batch.wait(timeout=10)
        release = next_version_release(serving_scenario, "google_gadgets")
        _release(service, release)
        t.join(timeout=10)
        # The reader either fully preceded the release (epoch 0) or
        # fully followed it (epoch 1) — never a torn observation.
        assert answers[0].epoch in (0, 1)
        assert service.lock.stats.writes == 1

    def test_out_of_band_release_is_counted_as_bypassed(
            self, serving_scenario, service):
        release = next_version_release(serving_scenario, "sina_weibo")
        serving_scenario.mdm.register_release(release)  # behind the back
        assert service.stats.bypassed_writes == 1
        # The epoch lock never saw a write...
        assert service.epoch == 0
        # ...but answers are still fresh: the cache invalidated by
        # concept, exactly as in the single-threaded deployment.
        query = serving_scenario.queries["sina_weibo"]
        fresh = QueryEngine(serving_scenario.ontology, use_cache=False)
        assert _canon(_query(service, query).relation) == _canon(
            fresh.answer(query))

    def test_close_detaches_listener(self, serving_scenario):
        svc = GovernedService(serving_scenario.mdm)
        svc.close()
        release = next_version_release(serving_scenario, "amazon_mws")
        serving_scenario.mdm.register_release(release)
        assert svc.stats.bypassed_writes == 0


class TestIntrospection:
    def test_describe_reports_the_contract(self, serving_scenario,
                                           service):
        service.endpoint.handle_query_batch(
            [QueryRequest(query=query)
             for query in analyst_panel(serving_scenario, analysts=2)])
        _release(service,
                 next_version_release(serving_scenario, "twitter_api"))
        text = service.describe()
        assert "governed service: epoch 1" in text
        assert "1 release(s) served" in text
        assert "bypassed writes (outside the service) = 0" in text
        assert "rewriting cache:" in text

    def test_constructor_validates_workers(self):
        with pytest.raises(ValueError):
            GovernedService(max_workers=0)
