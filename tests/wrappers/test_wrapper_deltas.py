"""Wrapper-level CDC: exact deltas, capability gating, and the resync
(``None``) contract every cursor can fall back on."""

from repro.sources.document_store import DocumentStore
from repro.sources.rest_api import ApiVersion, Endpoint, FieldSpec
from repro.wrappers import MongoWrapper, RestWrapper, StaticWrapper


def apply_deltas(base_rows, deltas):
    """Fold signed changes into a bag and return it as a sorted list."""
    bag: dict[tuple, int] = {}
    def key(row):
        return tuple(sorted(row.items()))
    for row in base_rows:
        bag[key(row)] = bag.get(key(row), 0) + 1
    for sign, row in deltas.changes:
        bag[key(row)] = bag.get(key(row), 0) + sign
    out = []
    for k, count in bag.items():
        assert count >= 0, f"negative multiplicity for {k}"
        out.extend([dict(k)] * count)
    return sorted(out, key=repr)


class TestStaticWrapperDeltas:
    def make(self):
        return StaticWrapper(
            "w", "D", id_attributes=["id"], non_id_attributes=["v"],
            rows=[{"id": 1, "v": "a"}, {"id": 2, "v": "b"}])

    def test_append_update_remove_are_exact(self):
        w = self.make()
        before = w.fetch_rows()
        cursor = w.delta_cursor()
        w.append_rows([{"id": 3, "v": "c"}])
        w.update_rows(lambda r: r["id"] == 1, {"v": "a2"})
        w.remove_rows(lambda r: r["id"] == 2)
        deltas = w.fetch_deltas(cursor)
        assert deltas is not None
        assert deltas.cursor == w.delta_cursor()
        assert deltas.data_version == w.data_version()
        # replaying the log lands exactly on the current relation
        assert apply_deltas(before, deltas) == \
            sorted(w.fetch_rows(), key=repr)

    def test_update_is_retract_then_assert(self):
        w = self.make()
        cursor = w.delta_cursor()
        w.update_rows(lambda r: r["id"] == 1, {"v": "a2"})
        deltas = w.fetch_deltas(cursor)
        assert [(s, r["v"]) for s, r in deltas.changes] == \
            [(-1, "a"), (+1, "a2")]

    def test_projection_applies_to_delta_rows(self):
        w = StaticWrapper(
            "w", "D", id_attributes=["TargetApp"], non_id_attributes=[],
            rows=[{"appId": 7}], projection={"TargetApp": "appId"})
        cursor = w.delta_cursor()
        w.append_rows([{"appId": 8}])
        deltas = w.fetch_deltas(cursor)
        assert deltas.changes == ((+1, {"TargetApp": 8}),)

    def test_replace_rows_truncates_the_log(self):
        w = self.make()
        cursor = w.delta_cursor()
        w.replace_rows([{"id": 9, "v": "z"}])
        assert w.fetch_deltas(cursor) is None  # full resync required
        # a cursor taken after the swap works again
        fresh = w.delta_cursor()
        w.append_rows([{"id": 10, "v": "y"}])
        assert w.fetch_deltas(fresh) is not None

    def test_bounded_log_forces_resync(self):
        w = self.make()
        w.CHANGE_LOG_LIMIT = 4
        cursor = w.delta_cursor()
        for i in range(10):
            w.append_rows([{"id": 100 + i, "v": "x"}])
        assert w.fetch_deltas(cursor) is None

    def test_wrapped_log_serves_exactly_the_changes_past_the_cursor(
            self):
        w = self.make()
        w.CHANGE_LOG_LIMIT = 8
        cursors = []
        for i in range(12):  # 12 changes through an 8-entry log
            cursors.append(w.delta_cursor())
            w.append_rows([{"id": 100 + i, "v": "x"}])
        assert w._log_floor == 4
        for i, cursor in enumerate(cursors):
            deltas = w.fetch_deltas(cursor)
            if cursor < w._log_floor:
                assert deltas is None
                continue
            assert [row["id"] for _, row in deltas.changes] == \
                [100 + j for j in range(i, 12)]
        assert w.fetch_deltas(w.delta_cursor()).changes == ()
        assert w.fetch_deltas(w._log_floor - 1) is None

    def test_bogus_cursor_is_resync_not_error(self):
        w = self.make()
        assert w.fetch_deltas("not-a-cursor") is None
        assert w.fetch_deltas(w.data_version() + 5) is None
        assert w.fetch_deltas(True) is None  # bool is not a cursor

    def test_noop_mutations_produce_no_changes(self):
        w = self.make()
        cursor = w.delta_cursor()
        assert w.append_rows([]) == 0
        assert w.update_rows(lambda r: False, {"v": "q"}) == 0
        assert w.remove_rows(lambda r: False) == 0
        deltas = w.fetch_deltas(cursor)
        assert deltas.changes == ()


class TestMongoWrapperDeltas:
    def make(self, pipeline=None):
        store = DocumentStore()
        vod = store.collection("vod")
        vod.insert_many([
            {"monitorId": 1, "waitTime": 1.0, "watchTime": 4.0},
            {"monitorId": 2, "waitTime": 2.0, "watchTime": 4.0},
        ])
        wrapper = MongoWrapper(
            "w1", "D1", store=store, collection="vod",
            pipeline=pipeline or [{"$project": {
                "_id": 0,
                "VoDmonitorId": "$monitorId",
                "lagRatio": {"$divide": ["$waitTime", "$watchTime"]},
            }}],
            id_attributes=["VoDmonitorId"],
            non_id_attributes=["lagRatio"])
        return store, vod, wrapper

    def test_per_document_pipeline_supports_deltas(self):
        _, _, wrapper = self.make()
        deltas = wrapper.fetch_deltas(wrapper.delta_cursor())
        assert deltas is not None and deltas.changes == ()

    def test_blocking_pipeline_refuses_deltas(self):
        _, _, wrapper = self.make(pipeline=[
            {"$group": {"_id": "$monitorId"}}])
        assert wrapper.fetch_deltas(wrapper.delta_cursor()) is None
        assert wrapper.fetch_deltas(0) is None

    def test_changes_run_through_the_pipeline(self):
        _, vod, wrapper = self.make()
        cursor = wrapper.delta_cursor()
        vod.insert_one({"monitorId": 3, "waitTime": 3.0,
                        "watchTime": 6.0})
        vod.update_many({"monitorId": 1}, {"$set": {"waitTime": 2.0}})
        vod.delete_many({"monitorId": 2})
        before = [{"VoDmonitorId": 1, "lagRatio": 0.25},
                  {"VoDmonitorId": 2, "lagRatio": 0.5}]
        deltas = wrapper.fetch_deltas(cursor)
        assert deltas is not None
        assert apply_deltas(before, deltas) == \
            sorted(wrapper.fetch_rows(), key=repr)

    def test_truncated_collection_log_forces_resync(self):
        store = DocumentStore()
        vod = store.collection("vod")
        vod._change_log_limit = 2
        wrapper = MongoWrapper(
            "w1", "D1", store=store, collection="vod",
            pipeline=[{"$project": {"_id": 0, "id": "$monitorId"}}],
            id_attributes=["id"], non_id_attributes=[])
        cursor = wrapper.delta_cursor()
        for i in range(5):
            vod.insert_one({"monitorId": i})
        assert wrapper.fetch_deltas(cursor) is None


class TestRestWrapperDeltas:
    def make(self, count=3):
        endpoint = Endpoint("GET /m")
        endpoint.add_version(ApiVersion("1", [
            FieldSpec("deviceId", generator=lambda rng, i: i),
            FieldSpec("wait", generator=lambda rng, i: float(i + 1)),
            FieldSpec("watch",
                      generator=lambda rng, i: float((i + 1) * 2)),
        ]))
        wrapper = RestWrapper(
            "w2", "D2", endpoint, "1",
            id_attributes=["id"], non_id_attributes=["ratio"],
            field_map={"id": "deviceId"},
            derived={"ratio": lambda row: row["wait"] / row["watch"]},
            derived_inputs={"ratio": ["wait", "watch"]},
            count=count)
        return endpoint, wrapper

    def test_live_overlay_deltas(self):
        endpoint, wrapper = self.make()
        before = wrapper.fetch_rows()
        cursor = wrapper.delta_cursor()
        endpoint.push_documents("1", [
            {"deviceId": 50, "wait": 1.0, "watch": 2.0}])
        endpoint.update_documents("1", {"deviceId": 50}, {"wait": 0.5})
        deltas = wrapper.fetch_deltas(cursor)
        assert deltas is not None
        assert apply_deltas(before, deltas) == \
            sorted(wrapper.fetch_rows(), key=repr)
        # the derivation ran over the changed documents too
        assert deltas.changes[-1][1]["ratio"] == 0.25

    def test_base_token_rotation_forces_resync(self):
        endpoint, wrapper = self.make()
        cursor = wrapper.delta_cursor()
        # regenerating the payload invalidates every generated row:
        # no per-row log can describe that, so the cursor dies
        endpoint.version("1").update_field("wait", field_type="int")
        assert wrapper.fetch_deltas(cursor) is None
        assert wrapper.fetch_deltas(wrapper.delta_cursor()) is not None

    def test_malformed_cursor_is_resync(self):
        _, wrapper = self.make()
        assert wrapper.fetch_deltas(7) is None
        assert wrapper.fetch_deltas(("bad", "pair", 3)) is None
