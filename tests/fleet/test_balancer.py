"""Routing-decision unit tests: no sockets, no processes."""

from __future__ import annotations

import json

import repro.fleet.balancer as balancer_module
from repro.fleet.balancer import Backend, EpochBalancer
from repro.fleet.router import _epoch_of, _pin_of


def backend(key, role="replica", *, epoch=5, healthy=True,
            ready=True) -> Backend:
    b = Backend(key, f"http://127.0.0.1:1/{key}", role)
    b.healthy = healthy
    b.ready = ready
    b.epoch = epoch
    return b


def balancer(*backends: Backend) -> EpochBalancer:
    lb = EpochBalancer()
    for b in backends:
        lb.add_backend(b)
    return lb


class TestCandidates:
    def test_stale_replicas_are_excluded_but_leader_never_is(self):
        lb = balancer(backend("leader", "leader", epoch=7),
                      backend("r0", epoch=7),
                      backend("r1", epoch=3))
        keys = [b.key for b in lb.candidates(floor=5)]
        assert "r1" not in keys  # would time-travel the session
        assert keys[-1] == "leader"  # always the fallback
        assert "r0" in keys

    def test_no_backend_fresh_enough_means_empty_without_leader(self):
        lb = balancer(backend("r0", epoch=3))
        assert lb.candidates(floor=5) == []

    def test_unhealthy_unready_and_evicted_are_excluded(self):
        sick = backend("sick", healthy=False)
        cold = backend("cold", ready=False)
        dead = backend("dead")
        for _ in range(dead.failure_threshold):
            dead.mark_failure()
        ok = backend("ok")
        lb = balancer(sick, cold, dead, ok)
        assert [b.key for b in lb.candidates(floor=0)] == ["ok"]

    def test_recovered_backend_rejoins_after_success(self):
        dead = backend("dead")
        for _ in range(dead.failure_threshold):
            assert dead.mark_failure() or \
                dead.consecutive_failures < dead.failure_threshold
        assert dead.evicted
        dead.mark_success()  # a probe reached it again
        lb = balancer(dead)
        assert [b.key for b in lb.candidates(floor=0)] == ["dead"]
        assert dead.evictions == 1  # the eviction stays counted

    def test_sticky_backend_is_preferred(self):
        lb = balancer(backend("r0"), backend("r1"), backend("r2"))
        for _ in range(8):
            assert lb.candidates(floor=0,
                                 sticky_key="r1")[0].key == "r1"

    def test_least_loaded_first_and_idle_rotation(self):
        r0, r1 = backend("r0"), backend("r1")
        r0.inflight = 4
        lb = balancer(r0, r1)
        assert lb.candidates(floor=0)[0].key == "r1"
        r0.inflight = 0
        seen = {lb.candidates(floor=0)[0].key for _ in range(10)}
        assert seen == {"r0", "r1"}  # equal load rotates


class TestSessions:
    def test_floor_is_monotonic_and_sticky_tracks_reads(self):
        lb = balancer(backend("r0"))
        b = lb.backend("r0")
        state = lb.session("s1")
        assert state.floor == -1
        lb.note_response("s1", b, 4)
        assert lb.session("s1").floor == 4
        lb.note_response("s1", b, 2)  # an older epoch never lowers it
        assert lb.session("s1").floor == 4
        assert lb.session("s1").backend_key == "r0"

    def test_non_sticky_note_raises_floor_only(self):
        lb = balancer(backend("r0"), backend("leader", "leader"))
        lb.session("s1")  # the router tracks a session before routing
        lb.note_response("s1", lb.backend("r0"), 1)
        lb.note_response("s1", lb.backend("leader"), 9, sticky=False)
        state = lb.session("s1")
        assert state.floor == 9
        assert state.backend_key == "r0"

    def test_session_table_is_lru_capped(self, monkeypatch):
        monkeypatch.setattr(balancer_module, "SESSION_CAPACITY", 3)
        lb = EpochBalancer()
        for i in range(5):
            lb.session(f"s{i}")
        assert lb.tracked_sessions == 3
        # the oldest were evicted; the newest survive
        lb.add_backend(backend("r0"))
        lb.note_response("s4", lb.backend("r0"), 7)
        assert lb.session("s4").floor == 7
        assert lb.session("s0").floor == -1  # forgotten, fresh state


class TestPayloadParsing:
    def test_epoch_of_reads_fingerprint_not_serving_epoch(self):
        # the serving epoch is process-local (a recovered leader
        # restarts it at 0) — routing must key on the fingerprint epoch
        body = json.dumps({"ok": True, "epoch": 0,
                           "fingerprint": [6, 123]}).encode()
        assert _epoch_of(body) == 6

    def test_epoch_of_handles_batches_and_garbage(self):
        batch = json.dumps({"responses": [
            {"ok": True, "fingerprint": [2, 1]},
            {"ok": True, "fingerprint": [5, 1]},
            {"ok": False, "error": {"code": "x"}},
        ]}).encode()
        assert _epoch_of(batch) == 5
        assert _epoch_of(b"not json") is None
        assert _epoch_of(json.dumps({"ok": True}).encode()) is None

    def test_pin_of_single_and_batch(self):
        assert _pin_of(json.dumps({"query": "q"}).encode()) == -1
        assert _pin_of(json.dumps({"query": "q",
                                   "epoch": 3}).encode()) == 3
        assert _pin_of(json.dumps({"batch": [
            {"query": "q", "epoch": 1},
            {"query": "q", "epoch": 4},
            {"query": "q"},
        ]}).encode()) == 4
        assert _pin_of(b"\xff") == -1


class TestObserveEpochAtomicity:
    def test_lower_epoch_never_overwrites_higher(self):
        b = backend("r0", epoch=0)
        b.observe_epoch(7)
        b.observe_epoch(3)
        assert b.epoch == 7
        b.observe_epoch(None)
        assert b.epoch == 7

    def test_concurrent_observers_converge_on_the_max(self):
        # Regression: observe_epoch used an unlocked check-then-act, so
        # two racing probe threads could let a lower epoch win and the
        # router would route floor-gated reads to a backend it believed
        # was elsewhere in time.
        import threading

        b = backend("r0", epoch=-1)
        barrier = threading.Barrier(8)
        epochs = list(range(1, 401))

        def observer(offset: int) -> None:
            barrier.wait()
            for epoch in epochs[offset::8]:
                b.observe_epoch(epoch)

        threads = [threading.Thread(target=observer, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert b.epoch == max(epochs)
