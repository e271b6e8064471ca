"""Scan-contract tests: every wrapper is handed the requested columns,
and ``Wrapper.relation`` pivots whatever ``fetch_rows`` returns into
exactly the requested relation."""

import pytest

from repro.datasets import EXEMPLARY_QUERY
from repro.errors import SchemaError, WrapperSchemaMismatchError
from repro.query import QueryEngine
from repro.relational import accel
from repro.relational.physical import ScanCache
from repro.sources.document_store import DocumentStore
from repro.sources.rest_api import ApiVersion, Endpoint, FieldSpec
from repro.wrappers.base import StaticWrapper, Wrapper, qualify
from repro.wrappers.mongo import MongoWrapper
from repro.wrappers.rest import RestWrapper


@pytest.fixture(params=["accel", "pure"])
def accel_mode(request, monkeypatch):
    """Run the test body on both kernel paths."""
    if request.param == "pure":
        monkeypatch.setattr(accel, "numpy", None)
    elif not accel.available():  # pragma: no cover - numpy-less env
        pytest.skip("numpy unavailable")
    return request.param


class DecliningWrapper(Wrapper):
    """Ignores the column request and always returns full rows."""

    def __init__(self):
        super().__init__("decline", "DD", ["id"], ["a"])
        self.seen = []

    def fetch_rows(self, columns=None):
        self.seen.append(columns)
        return [{"id": 1, "a": 10}, {"id": 2, "a": 20}]


class LyingWrapper(Wrapper):
    """Ignores the column request and adds an undeclared key."""

    def __init__(self):
        super().__init__("liar", "DX", ["id"], ["a", "b"])

    def fetch_rows(self, columns=None):
        return [{"id": 1, "a": 2, "b": 3, "noise": 4}]  # always full rows


# ---------------------------------------------------------------------------
# relation(qualified × columns) against a row-wise reference
# ---------------------------------------------------------------------------

#: full local rows every case below must expose, in fetch order
EXPECTED = [{"id": 1, "a": "x", "b": 1.5},
            {"id": 2, "a": "y", "b": None},
            {"id": 2, "a": "y", "b": None}]  # bag: duplicates stay


def static_plain():
    return StaticWrapper("w", "S", ["id"], ["a", "b"], EXPECTED)


def static_renamed():
    return StaticWrapper(
        "w", "S", ["id"], ["a", "b"],
        [{"id": r["id"], "raw": r["a"], "b": r["b"]} for r in EXPECTED],
        projection={"a": "raw"})


def static_extra_key():
    # analytic's satellites carry an undeclared row id like this one
    return StaticWrapper("w", "S", ["id"], ["a", "b"],
                         [dict(r, rid=i) for i, r in enumerate(EXPECTED)])


def mongo_extra_outputs():
    store = DocumentStore()
    store.collection("c").insert_many(
        [{"k": r["id"], "v": r["a"], "w": r["b"], "z": 0}
         for r in EXPECTED])
    return MongoWrapper(
        "w", "S", store, "c",
        [{"$project": {"_id": 0, "id": "$k", "a": "$v", "b": "$w",
                       "extra": "$z"}}],
        id_attributes=["id"], non_id_attributes=["a", "b"])


def rest():
    ep = Endpoint("GET /r")
    ep.add_version(ApiVersion("1", [
        FieldSpec("deviceId", generator=lambda rng, i: EXPECTED[i]["id"]),
        FieldSpec("label", generator=lambda rng, i: EXPECTED[i]["a"]),
        FieldSpec("noise", generator=lambda rng, i: rng.random()),
    ]))
    return RestWrapper(
        "w", "S", ep, "1", id_attributes=["id"],
        non_id_attributes=["a", "b"],
        field_map={"id": "deviceId", "a": "label"},
        derived={"b": lambda row: {r["a"]: r["b"] for r in EXPECTED}[
            row["label"]]},
        count=len(EXPECTED))


def columns_ignored():
    class Ignoring(Wrapper):
        def __init__(self):
            super().__init__("w", "S", ["id"], ["a", "b"])

        def fetch_rows(self, columns=None):
            return [dict(r, extra=0) for r in EXPECTED]

    return Ignoring()


WRAPPERS = {"static": static_plain, "static-renamed": static_renamed,
            "static-extra-key": static_extra_key,
            "mongo-extra-outputs": mongo_extra_outputs, "rest": rest,
            "columns-ignored": columns_ignored}

#: requested columns, in the order a caller may pass them
COLUMNS = {"all": None, "none": [], "id": ["id"], "b": ["b"],
           "reversed": ["b", "a", "id"], "non-ids": ["b", "a"]}


class TestRelationContract:
    @pytest.mark.parametrize("qualified", [False, True],
                             ids=["local", "qualified"])
    @pytest.mark.parametrize("columns", COLUMNS.values(), ids=COLUMNS)
    @pytest.mark.parametrize("make", WRAPPERS.values(), ids=WRAPPERS)
    def test_matches_row_wise_reference(self, make, columns, qualified):
        w = make()
        order = ["id", "a", "b"]  # schema order, whatever was asked
        names = order if columns is None else [
            a for a in order if a in columns]
        out = [qualify("S", a) if qualified else a for a in names]
        rel = w.relation(qualified=qualified, columns=columns)
        assert rel.schema.attribute_names == tuple(out)
        assert [a.is_id for a in rel.schema.attributes] == [
            a == "id" for a in names]
        assert len(rel) == len(EXPECTED)
        assert rel.rows == [{o: row[a] for o, a in zip(out, names)}
                            for row in EXPECTED]

    def test_columns_reach_fetch_rows_as_schema_order_tuple(self):
        w = DecliningWrapper()
        w.relation(columns=["a", "id"])
        w.relation()
        assert w.seen == [("id", "a"), ("id", "a")]

    def test_zero_column_request_keeps_row_count(self):
        w = static_extra_key()
        rel = w.relation(qualified=True, columns=[])
        assert rel.schema.attribute_names == ()
        assert len(rel) == len(EXPECTED)
        assert len(rel.columnar()) == len(EXPECTED)
        assert rel.rows == [{}] * len(EXPECTED)

    def test_missing_attribute_raises_through_cold_planned_scan(
            self, scenario, accel_mode):
        rows = [{"TargetApp": 1, "FeedbackId": 12}]  # MonitorId drifted
        scenario.ontology.bind_wrapper(StaticWrapper(
            "w3", "D3", ["TargetApp", "MonitorId", "FeedbackId"], [],
            rows))
        engine = QueryEngine(scenario.ontology, use_answer_cache=False)
        with pytest.raises(WrapperSchemaMismatchError,
                           match="evolved under the wrapper"):
            engine.answer(EXEMPLARY_QUERY, scan_cache=ScanCache())


class TestValidatedFallback:
    def test_every_wrapper_is_handed_the_columns(self):
        w = DecliningWrapper()
        rel = w.relation(columns=["a"])
        assert rel.rows == [{"a": 10}, {"a": 20}]
        assert w.seen == [("a",)]

    def test_lying_wrapper_output_is_trimmed(self):
        w = LyingWrapper()
        assert w.relation(columns=["id"]).rows == [{"id": 1}]
        assert w.relation().rows == [{"id": 1, "a": 2, "b": 3}]

    def test_missing_requested_attribute_rejected(self):
        w = StaticWrapper("w", "D", ["a"], [], [{"a": 1}])
        w.replace_rows([{"b": 1}])
        with pytest.raises(WrapperSchemaMismatchError,
                           match=r"attributes \['b'\], requested \['a'\]"):
            w.relation()

    def test_unknown_column_rejected(self):
        w = StaticWrapper("w", "D", ["a"], [], [{"a": 1}])
        with pytest.raises(SchemaError, match="no attribute"):
            w.relation(columns=["ghost"])


class TestRelationSubsets:
    def test_qualified_subset_relation(self):
        w = StaticWrapper("w", "D9", ["a"], ["b", "c"],
                          [{"a": 1, "b": 2, "c": 3}])
        rel = w.relation(qualified=True, columns=["a", "c"])
        assert set(rel.schema.attribute_names) == {"D9/a", "D9/c"}
        assert rel.rows == [{"D9/a": 1, "D9/c": 3}]
        assert rel.schema.attribute("D9/a").is_id


class TestStaticWrapperPushdown:
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
        assert w.relation(columns=["TargetApp"]).rows == [
            {"TargetApp": 7}]

    def test_narrow_fetch_still_detects_drift(self):
        # Projection pushdown must not paper schema drift over as None.
        w = StaticWrapper("w", "S", ["id"], ["a"], [{"id": 1}])
        with pytest.raises(WrapperSchemaMismatchError):
            w.relation(columns=["id", "a"])

    def test_fetch_rows_hands_out_copies(self):
        # update_rows mutates the stored dicts in place
        w = StaticWrapper("w", "S", ["id"], [], [{"id": 1}])
        rows = w.fetch_rows(columns=("id",))
        rows[0]["id"] = 99
        assert w.relation().rows == [{"id": 1}]


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
        assert w.fetch_rows(columns=("VoDmonitorId",)) == [
            {"VoDmonitorId": i} for i in range(1, 5)]
        assert w.relation(columns=["VoDmonitorId"]).rows == [
            {"VoDmonitorId": i} for i in range(1, 5)]

    def test_pushdown_equals_full_fetch(self):
        w = self.wrapper()
        full = w.relation().rows
        narrow = w.relation(columns=["lagRatio", "VoDmonitorId"]).rows
        assert full == narrow

    def test_missing_projected_field_is_drift(self):
        store = DocumentStore()
        store.collection("c").insert_one({"a": 1})
        w = MongoWrapper("w", "D", store, "c", [{"$match": {}}],
                         ["a"], ["b"])
        with pytest.raises(WrapperSchemaMismatchError):
            w.relation()
        with pytest.raises(WrapperSchemaMismatchError):
            w.relation(qualified=True, columns=["b"])

    def test_missing_referenced_field_is_omitted_but_null_is_kept(self):
        store = DocumentStore()
        store.collection("c").insert_many([{"a": 1}, {"a": 2, "x": None}])
        w = MongoWrapper(
            "w", "D", store, "c",
            [{"$project": {"_id": 0, "a": 1, "b": "$x",
                           "c": {"$ifNull": ["$x", 0]}}}],
            ["a"], ["b", "c"])
        assert w.fetch_rows(("a", "b", "c")) == [
            {"a": 1, "c": 0}, {"a": 2, "b": None, "c": 0}]
        with pytest.raises(WrapperSchemaMismatchError):
            w.relation(columns=["a", "b"])

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
        assert w.relation(columns=["id"]).rows == [
            {"id": r["id"]} for r in w.relation().rows]

    def test_declared_derived_inputs_keep_pruning(self):
        w = self.wrapper(derived_inputs={"ratio": ["wait", "watch"]})
        fields, paths = w._needed_paths(("id", "ratio"))
        assert fields == ["deviceId", "wait", "watch"]  # noise pruned
        assert w.relation().rows == self.wrapper().relation().rows

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
