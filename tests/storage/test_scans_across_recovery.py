"""Shared scans across recovery: a service over a replayed or restored
MDM, and a journal-tailing replica whose scan cache lives through
catch-up, answer as the naive oracle and fetch only what changed."""

from __future__ import annotations

from repro.mdm import MDM
from repro.query import QueryEngine
from repro.storage.replica import Replica

from storage_scenarios import (
    APP_QUERY, MONITOR_QUERY, build_durable, register_app,
    register_monitor, seed_schema,
)


def count_fetches(ontology, counts):
    """Count fetches of every wrapper bound now and not yet counted,
    name → fetches."""
    for wrapper in ontology._physical.values():
        if "fetch_rows" in vars(wrapper):
            continue  # already counted
        original = wrapper.fetch_rows

        def counted(columns=None, _o=original,
                    _n=wrapper.name):
            counts[_n] = counts.get(_n, 0) + 1
            return _o(columns=columns)

        wrapper.fetch_rows = counted
    return counts


def served_then_oracle(service, counts):
    """Pose both queries through *service*, then check them against the
    naive oracle; returns the fetch counts of the served pass alone."""
    client = service.client()
    served = [client.query(query).relation
              for query in (APP_QUERY, MONITOR_QUERY)]
    fetched = dict(counts)
    naive = QueryEngine(service.mdm.ontology, use_planner=False,
                        use_cache=False, use_answer_cache=False)
    assert served == [naive.answer(query)
                      for query in (APP_QUERY, MONITOR_QUERY)]
    return fetched


def release_and_repose(mdm):
    """Land w_app_v3 through the service; the historical queries then
    fetch only the new wrapper."""
    service = mdm.serving()
    counts = count_fetches(mdm.ontology, {})
    assert served_then_oracle(service, counts) == {
        "w_app_v1": 1, "w_app_v2": 1, "w_mon_v1": 1}
    counts.clear()
    register_app(mdm, 3)
    count_fetches(mdm.ontology, counts)
    assert served_then_oracle(service, counts) == {"w_app_v3": 1}
    service.close()


class TestScansAcrossRecovery:
    def test_replayed_service_matches_oracle(self, state_dir):
        build_durable(state_dir).close()
        recovered = MDM.open(state_dir)
        assert recovered._snapshot_seq == 0  # pure journal replay
        release_and_repose(recovered)
        recovered.close()

    def test_restored_snapshot_service_matches_oracle(self, state_dir):
        live = build_durable(state_dir)
        live.snapshot()
        live.close()
        restored = MDM.open(state_dir)
        assert restored._snapshot_seq > 0  # restore ran
        release_and_repose(restored)
        restored.close()

    def test_replica_keeps_scans_through_catch_up(self, state_dir):
        leader = MDM.open(state_dir)
        seed_schema(leader)
        register_app(leader, 1)
        register_monitor(leader)
        with Replica.follow_file(state_dir / "journal.jsonl") as replica:
            replica.catch_up()
            service = replica.service
            counts = count_fetches(replica.mdm.ontology, {})
            assert served_then_oracle(service, counts) == {
                "w_app_v1": 1, "w_mon_v1": 1}
            counts.clear()
            register_app(leader, 2)
            assert replica.catch_up() > 0
            count_fetches(replica.mdm.ontology, counts)
            assert served_then_oracle(service, counts) == {"w_app_v2": 1}
        leader.close()
