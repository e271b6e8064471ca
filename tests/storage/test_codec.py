"""Change-record codecs: loss-free round-trips, checksum framing."""

from __future__ import annotations

import pytest

from repro.core.ontology import EvolutionEvent
from repro.core.release import Release
from repro.errors import JournalCorruptedError
from repro.rdf.graph import Graph
from repro.rdf.namespace import G as G_NS
from repro.rdf.term import IRI
from repro.storage.codec import (
    ChangeRecord, decode_event, decode_record_line, decode_release,
    decode_wrapper, encode_event, encode_graph, encode_record_line,
    encode_release, encode_wrapper,
)
from repro.wrappers.base import StaticWrapper, Wrapper


def _sample_release(with_wrapper: bool = True) -> Release:
    concept = IRI("urn:t:App")
    f_id = IRI("urn:t:app/id")
    f_name = IRI("urn:t:app/name")
    subgraph = Graph([(concept, G_NS.hasFeature, f_id),
                      (concept, G_NS.hasFeature, f_name)])
    wrapper = StaticWrapper(
        "w1", "D1", ["id"], ["name"],
        rows=[{"id": 1, "name": "a"}, {"id": 2, "name": "b"}],
        projection={"name": "name"}) if with_wrapper else None
    return Release(
        wrapper_name="w1", source_name="D1",
        id_attributes=("id",), non_id_attributes=("name",),
        subgraph=subgraph,
        attribute_to_feature={"id": f_id, "name": f_name},
        wrapper=wrapper)


class TestRecordFraming:
    def test_line_round_trip(self):
        record = ChangeRecord(seq=7, kind="release",
                              payload={"a": 1, "b": [1, 2]})
        assert decode_record_line(encode_record_line(record)) == record

    def test_torn_line_detected(self):
        line = encode_record_line(ChangeRecord(seq=1, kind="boot"))
        for cut in (1, len(line) // 2, len(line) - 1):
            with pytest.raises(JournalCorruptedError):
                decode_record_line(line[:cut])

    def test_bit_flip_detected(self):
        line = encode_record_line(
            ChangeRecord(seq=1, kind="add_concept",
                         payload={"concept": "urn:t:C"}))
        flipped = line.replace("urn:t:C", "urn:t:X")
        with pytest.raises(JournalCorruptedError):
            decode_record_line(flipped)

    def test_non_object_rejected(self):
        with pytest.raises(JournalCorruptedError):
            decode_record_line("[1, 2, 3]")


class TestReleaseCodec:
    def test_round_trip_is_loss_free(self):
        release = _sample_release()
        payload = encode_release(
            release, absorbed_concepts={IRI("urn:t:App")})
        decoded, absorbed = decode_release(payload)
        assert decoded.wrapper_name == release.wrapper_name
        assert decoded.source_name == release.source_name
        assert decoded.id_attributes == release.id_attributes
        assert decoded.non_id_attributes == release.non_id_attributes
        assert decoded.subgraph == release.subgraph
        assert decoded.attribute_to_feature == \
            release.attribute_to_feature
        assert absorbed == frozenset({IRI("urn:t:App")})
        # re-encoding the decoded release is byte-stable
        assert encode_release(decoded, absorbed) == payload

    def test_graph_codec_canonical(self):
        release = _sample_release(with_wrapper=False)
        lines = encode_graph(release.subgraph)
        assert lines == sorted(lines)

    def test_release_without_wrapper(self):
        release = _sample_release(with_wrapper=False)
        decoded, absorbed = decode_release(encode_release(release))
        assert decoded.wrapper is None and absorbed is None


class TestWrapperCodec:
    def test_static_round_trips_loss_free(self):
        wrapper = StaticWrapper(
            "w1", "D1", ["id"], ["v"],
            rows=[{"id": 1, "raw": 3}], projection={"v": "raw"})
        decoded = decode_wrapper(encode_wrapper(wrapper))
        assert isinstance(decoded, StaticWrapper)
        assert decoded.name == "w1" and decoded.source_name == "D1"
        assert decoded.relation().rows == wrapper.relation().rows

    def test_live_wrapper_materializes(self):
        class LiveWrapper(Wrapper):
            def fetch_rows(self, columns=None):
                return [{"id": 1, "v": 10}]

        wrapper = LiveWrapper("w2", "D2", ["id"], ["v"])
        payload = encode_wrapper(wrapper)
        assert payload["type"] == "materialized"
        decoded = decode_wrapper(payload)
        assert isinstance(decoded, StaticWrapper)
        assert decoded.relation().rows == [{"id": 1, "v": 10}]

    def test_unserializable_rows_degrade_to_opaque(self):
        class WeirdWrapper(Wrapper):
            def fetch_rows(self, columns=None):
                return [{"id": object()}]

        payload = encode_wrapper(WeirdWrapper("w3", "D3", ["id"], []))
        assert payload["type"] == "opaque"
        assert decode_wrapper(payload) is None

    def test_none_round_trips(self):
        assert encode_wrapper(None) is None
        assert decode_wrapper(None) is None


class TestEventCodec:
    def test_round_trip(self):
        event = EvolutionEvent(
            epoch=3, concepts=frozenset({IRI("urn:t:A"), IRI("urn:t:B")}),
            description="release w3 (D1)", structure=-12345,
            ungoverned=True)
        assert decode_event(encode_event(event)) == event
