"""Self-tests of the benchmark's helpers (run with ``pytest perfbench``)."""

from __future__ import annotations

import pytest

from benchkit.oracle import AnswerMismatch, check_answer, reference_engine
from benchkit.spans import Instrumentation, Span, SpanRecorder, self_time
from benchkit.speed import Speedometer
from benchkit.stats import min_samples, percentile, rank, tail


class TestPercentileRule:
    def test_p90_needs_100_samples_for_10_beyond(self):
        assert min_samples(90) == 100
        assert tail(100, 90) == 10
        assert tail(99, 90) == 9

    def test_thin_tail_is_refused(self):
        with pytest.raises(ValueError, match="at least 10"):
            percentile([float(i) for i in range(99)], 90)

    def test_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert rank(100, 90) == 90
        assert percentile(samples, 90) == 90.0
        assert percentile(list(reversed(samples)), 50) == 50.0


def _span(sid: int, start: float, end: float,
          parent: int | None = None) -> Span:
    return Span(sid, f"s{sid}", start, end, parent, None)


class TestSelfTime:
    def test_overlapping_children_count_once(self):
        parent = _span(0, 0.0, 10.0)
        children = [_span(1, 1.0, 4.0, 0), _span(2, 3.0, 6.0, 0),
                    _span(3, 8.0, 12.0, 0)]
        # covered: [1, 6] and [8, 10] (clipped) = 7
        assert self_time(parent, children) == pytest.approx(3.0)

    def test_nested_children_and_no_children(self):
        parent = _span(0, 0.0, 10.0)
        assert self_time(parent, []) == pytest.approx(10.0)
        children = [_span(1, 2.0, 8.0, 0), _span(2, 3.0, 4.0, 0)]
        assert self_time(parent, children) == pytest.approx(4.0)


def _speedometer(probes: list[tuple[float, float]]) -> Speedometer:
    """A speedometer holding *probes*: (start, seconds) pairs."""
    speed = Speedometer()
    for at, took in probes:
        speed._at.append(at)
        speed._took.append(took)
    return speed


class TestReferenceTime:
    def test_scaled_by_the_nearest_probes(self):
        # the probe takes 2 ms until t = 100 s, then 1 ms (reference)
        speed = _speedometer([(t, 2e-3) for t in range(10)]
                             + [(100.0 + t, 1e-3) for t in range(10)])
        assert speed.reference(3.0, 0.4) == pytest.approx(0.2)
        assert speed.reference(105.0, 0.4) == pytest.approx(0.4)

    def test_one_slow_probe_does_not_move_the_median(self):
        speed = _speedometer([(t, 9e-3 if t == 4 else 2e-3)
                              for t in range(10)])
        assert speed.factor(4.0) == pytest.approx(0.5)

    def test_probe_times_real_work(self):
        speed = Speedometer()
        with pytest.raises(ValueError):
            speed.factor(0.0)
        speed.probe()
        assert speed.probe_ms() > 0


class _Target:
    def work(self, value: int) -> int:
        return value + 1

    @classmethod
    def build(cls, value: int) -> int:
        return value * 2


class TestRecorder:
    def test_parent_and_request_id_propagate(self):
        recorder = SpanRecorder()
        with recorder.span("outer", "req-1") as outer:
            with recorder.span("inner") as inner:
                pass
        assert inner.parent == outer.sid
        assert inner.request_id == "req-1"
        assert [s.name for s in recorder.spans()] == ["inner", "outer"]

    def test_instrumentation_wraps_and_restores(self):
        recorder = SpanRecorder()
        inst = Instrumentation(recorder)
        original = _Target.__dict__["build"]
        inst.wrap(_Target, "work", "t.work",
                  annotate=lambda span, result, args:
                  span.attrs.update(result=result))
        inst.wrap(_Target, "build", "t.build")
        assert _Target().work(1) == 2
        assert _Target.build(3) == 6
        assert [(s.name, s.attrs) for s in recorder.spans()] == [
            ("t.work", {"result": 2}), ("t.build", {})]
        inst.undo()
        assert _Target.__dict__["build"] is original
        assert _Target().work(1) == 2
        assert len(recorder.spans()) == 2


class TestOracleCheck:
    @pytest.fixture()
    def served(self):
        from repro.api import GovernedClient
        from repro.datasets import EXEMPLARY_QUERY, build_supersede
        from repro.mdm import MDM

        mdm = MDM(build_supersede(with_evolution=True).ontology)
        with GovernedClient(mdm) as client:
            response = client.query(EXEMPLARY_QUERY)
        return mdm, EXEMPLARY_QUERY, response

    def test_served_answer_matches(self, served):
        mdm, query, response = served
        check_answer(reference_engine(mdm.ontology), query, response)

    def test_altered_answer_fails(self, served):
        from dataclasses import replace

        mdm, query, response = served
        rows = [dict(row) for row in response.rows]
        column = response.columns[-1]
        rows[0][column] = f"{rows[0][column]}-altered"
        with pytest.raises(AnswerMismatch, match="missing"):
            check_answer(reference_engine(mdm.ontology), query,
                         replace(response, rows=rows))

    def test_dropped_row_fails(self, served):
        from dataclasses import replace

        mdm, query, response = served
        with pytest.raises(AnswerMismatch):
            check_answer(reference_engine(mdm.ontology), query,
                         replace(response, rows=response.rows[1:]))

    def test_other_fingerprint_fails(self, served):
        from dataclasses import replace

        mdm, query, response = served
        epoch, structure = response.fingerprint
        with pytest.raises(AnswerMismatch, match="fingerprint"):
            check_answer(reference_engine(mdm.ontology), query,
                         replace(response,
                                 fingerprint=(epoch, structure + 1)))
