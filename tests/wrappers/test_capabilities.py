"""Capability-protocol tests: native pushdown, declines and the
validated fallback."""

import pytest

from repro.errors import WrapperSchemaMismatchError
from repro.sources.document_store import DocumentStore
from repro.sources.rest_api import ApiVersion, Endpoint, FieldSpec
from repro.wrappers.base import StaticWrapper, Wrapper, WrapperCapabilities
from repro.wrappers.mongo import MongoWrapper
from repro.wrappers.rest import RestWrapper


class DecliningWrapper(Wrapper):
    """Declares no capabilities — must be handed the full fetch and
    trimmed by the base."""

    def __init__(self):
        super().__init__("decline", "DD", ["id"], ["a"])
        self.seen = []

    def fetch_rows(self, columns=None):
        self.seen.append(columns)
        return [{"id": 1, "a": 10}, {"id": 2, "a": 20}]


class LyingWrapper(Wrapper):
    """Declares projection capability but ignores the column request."""

    def __init__(self):
        super().__init__("liar", "DX", ["id"], ["a", "b"])

    def capabilities(self):
        return WrapperCapabilities(projection=True)

    def fetch_rows(self, columns=None):
        return [{"id": 1, "a": 2, "b": 3}]  # always full rows


class TestValidatedFallback:
    def test_declining_wrapper_never_sees_pushdowns(self):
        w = DecliningWrapper()
        rows = w.fetch(columns=["a"])
        assert rows == [{"a": 10}, {"a": 20}]
        assert w.seen == [None]

    def test_lying_wrapper_output_is_trimmed(self):
        w = LyingWrapper()
        assert w.fetch(columns=["id"]) == [{"id": 1}]

    def test_missing_requested_attribute_rejected(self):
        w = StaticWrapper("w", "D", ["a"], [], [{"a": 1}])
        w.replace_rows([{"b": 1}])
        with pytest.raises(WrapperSchemaMismatchError):
            w.fetch()

    def test_unknown_column_rejected(self):
        w = StaticWrapper("w", "D", ["a"], [], [{"a": 1}])
        with pytest.raises(Exception, match="no attribute"):
            w.fetch(columns=["ghost"])


class TestRelationSubsets:
    def test_qualified_subset_relation(self):
        w = StaticWrapper("w", "D9", ["a"], ["b", "c"],
                          [{"a": 1, "b": 2, "c": 3}])
        rel = w.relation(qualified=True, columns=["a", "c"])
        assert set(rel.schema.attribute_names) == {"D9/a", "D9/c"}
        assert rel.rows == [{"D9/a": 1, "D9/c": 3}]
        assert rel.schema.attribute("D9/a").is_id


class TestStaticWrapperPushdown:
    def test_capabilities_declared(self):
        w = StaticWrapper("w", "D", ["a"], [], [])
        caps = w.capabilities()
        assert caps.projection
        assert caps.notation() == "projection"

    def test_estimate_and_data_version(self):
        w = StaticWrapper("w", "D", ["a"], [], [{"a": 1}, {"a": 2}])
        assert w.estimate_rows() == 2
        v0 = w.data_version()
        w.replace_rows([{"a": 9}])
        assert w.data_version() == v0 + 1

    def test_projection_rename_map_with_columns(self):
        w = StaticWrapper("w3", "D3", ["TargetApp"], ["tool"],
                          [{"appId": 7, "tool": "t"}],
                          projection={"TargetApp": "appId"})
        assert w.fetch_rows(columns=["TargetApp"]) == [{"TargetApp": 7}]

    def test_narrow_fetch_still_detects_drift(self):
        # Projection pushdown must not paper schema drift over as None.
        w = StaticWrapper("w", "S", ["id"], ["a"], [{"id": 1}])
        with pytest.raises(WrapperSchemaMismatchError):
            w.fetch(columns=["id", "a"])


class TestMongoPushdown:
    def wrapper(self):
        store = DocumentStore()
        store.collection("vod").insert_many([
            {"monitorId": i, "waitTime": i, "watchTime": 4}
            for i in range(1, 5)])
        return MongoWrapper(
            "w1", "D1", store, "vod",
            [{"$project": {"_id": 0, "VoDmonitorId": "$monitorId",
                           "lagRatio": {"$divide": ["$waitTime",
                                                    "$watchTime"]}}}],
            id_attributes=["VoDmonitorId"],
            non_id_attributes=["lagRatio"])

    def test_projection_as_project_stage(self):
        w = self.wrapper()
        assert w.fetch(columns=["VoDmonitorId"]) == [
            {"VoDmonitorId": i} for i in range(1, 5)]

    def test_pushdown_equals_full_fetch(self):
        w = self.wrapper()
        full = w.fetch()
        narrow = w.fetch(columns=["VoDmonitorId", "lagRatio"])
        assert full == narrow

    def test_estimate_and_data_version_track_collection(self):
        w = self.wrapper()
        assert w.estimate_rows() == 4
        v0 = w.data_version()
        w.store.get_collection("vod").insert_one(
            {"monitorId": 9, "waitTime": 1, "watchTime": 2})
        assert w.data_version() != v0
        assert w.estimate_rows() == 5


class TestRestPushdown:
    def endpoint(self):
        ep = Endpoint("GET /m")
        ep.add_version(ApiVersion("1", [
            FieldSpec("deviceId", generator=lambda rng, i: i),
            FieldSpec("wait", generator=lambda rng, i: i + 1),
            FieldSpec("watch", generator=lambda rng, i: (i + 1) * 2),
            FieldSpec("noise", generator=lambda rng, i: rng.random()),
        ]))
        return ep

    def wrapper(self, **kwargs):
        defaults = dict(
            id_attributes=["id"], non_id_attributes=["ratio"],
            field_map={"id": "deviceId"},
            derived={"ratio": lambda row: row["wait"] / row["watch"]},
            count=4)
        defaults.update(kwargs)
        return RestWrapper("w", "D", self.endpoint(), "1", **defaults)

    def test_partial_response_same_values_as_full(self):
        w = self.wrapper()
        assert w.fetch(columns=["id"]) == [
            {"id": r["id"]} for r in w.fetch()]

    def test_declared_derived_inputs_keep_pruning(self):
        w = self.wrapper(derived_inputs={"ratio": ["wait", "watch"]})
        fields, paths = w._needed_paths(("id", "ratio"))
        assert fields == ["deviceId", "wait", "watch"]  # noise pruned
        assert w.fetch() == self.wrapper().fetch()

    def test_opaque_derivation_falls_back_to_full_payload(self):
        w = self.wrapper()
        fields, paths = w._needed_paths(("ratio",))
        assert fields is None and paths is None

    def test_estimate_and_deterministic_data_version(self):
        w = self.wrapper()
        assert w.estimate_rows() == 4
        assert w.data_version() == self.wrapper().data_version()
        assert w.data_version() != self.wrapper(count=5).data_version()


class TestEndpointFieldSelection:
    def test_fields_trim_without_changing_values(self):
        ep = Endpoint("GET /x")
        ep.add_version(ApiVersion("1", [
            FieldSpec("a", "int"), FieldSpec("b", "int")]))
        full = ep.fetch("1", count=3, seed=7)
        partial = ep.fetch("1", count=3, seed=7, fields=["b"])
        assert [d["b"] for d in partial] == [d["b"] for d in full]
        assert all(set(d) == {"b"} for d in partial)


class TestFlattenPruning:
    def test_paths_prune_irrelevant_subtrees(self):
        from repro.wrappers.json_flatten import flatten_document
        doc = {"keep": {"x": 1}, "drop": {"huge": list(range(5))}}
        rows = flatten_document(doc, paths=["keep.x"])
        assert rows == [{"keep.x": 1}]

    def test_unwind_multiplicity_preserved_under_pruning(self):
        from repro.wrappers.json_flatten import flatten_document
        doc = {"id": 1, "items": [{"v": "a"}, {"v": "b"}]}
        rows = flatten_document(doc, unwind=["items"], paths=["id"])
        assert len(rows) == 2  # same fan-out as the unpruned walk
        assert all(r["id"] == 1 for r in rows)
