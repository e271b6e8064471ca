"""Unit tests for relation instances."""

import json

import pytest

from repro.errors import SchemaError
from repro.relational.rows import Relation, render_table
from repro.relational.schema import RelationSchema

SCHEMA = RelationSchema.of("r", ids=["id"], non_ids=["v"])


class TestRelation:
    def test_append_and_len(self):
        rel = Relation(SCHEMA, [{"id": 1, "v": "a"}])
        rel.append({"id": 2, "v": "b"})
        assert len(rel) == 2

    def test_rejects_missing_attribute(self):
        rel = Relation(SCHEMA)
        with pytest.raises(SchemaError, match="missing"):
            rel.append({"id": 1})

    def test_rejects_extra_attribute(self):
        rel = Relation(SCHEMA)
        with pytest.raises(SchemaError, match="unexpected"):
            rel.append({"id": 1, "v": "a", "w": 2})

    def test_rows_returns_copies(self):
        rel = Relation(SCHEMA, [{"id": 1, "v": "a"}])
        rel.rows.clear()
        assert len(rel) == 1

    def test_column(self):
        rel = Relation(SCHEMA, [{"id": 1, "v": "a"}, {"id": 2, "v": "b"}])
        assert rel.column("v") == ["a", "b"]
        with pytest.raises(SchemaError):
            rel.column("nope")

    def test_distinct(self):
        rel = Relation(SCHEMA, [{"id": 1, "v": "a"},
                                {"id": 1, "v": "a"},
                                {"id": 2, "v": "b"}])
        assert len(rel.distinct()) == 2

    def test_sorted_by(self):
        rel = Relation(SCHEMA, [{"id": 2, "v": "b"}, {"id": 1, "v": "a"}])
        assert rel.sorted_by("id").column("id") == [1, 2]

    def test_where(self):
        rel = Relation(SCHEMA, [{"id": 1, "v": "a"}, {"id": 2, "v": "b"}])
        assert len(rel.where(lambda r: r["id"] > 1)) == 1

    def test_as_tuples(self):
        rel = Relation(SCHEMA, [{"id": 1, "v": "a"}])
        assert rel.as_tuples() == [(1, "a")]
        assert rel.as_tuples(["v"]) == [("a",)]

    def test_bag_equality_order_insensitive(self):
        r1 = Relation(SCHEMA, [{"id": 1, "v": "a"}, {"id": 2, "v": "b"}])
        r2 = Relation(SCHEMA, [{"id": 2, "v": "b"}, {"id": 1, "v": "a"}])
        assert r1 == r2

    def test_bag_equality_counts_duplicates(self):
        r1 = Relation(SCHEMA, [{"id": 1, "v": "a"}, {"id": 1, "v": "a"}])
        r2 = Relation(SCHEMA, [{"id": 1, "v": "a"}])
        assert r1 != r2

    def test_equality_requires_same_attributes(self):
        other_schema = RelationSchema.of("o", ids=["id"], non_ids=["w"])
        r1 = Relation(SCHEMA, [{"id": 1, "v": "a"}])
        r2 = Relation(other_schema, [{"id": 1, "w": "a"}])
        assert r1 != r2


class TestRowsJson:
    ROWS = [{"v": "é", "id": 1}, {"id": 2, "v": None}]

    def test_fresh_relation_keeps_no_bytes(self):
        rel = Relation(SCHEMA, self.ROWS)
        assert rel.rows_json() == json.dumps(
            self.ROWS, sort_keys=True).encode("utf-8")
        assert rel._rows_json is None

    def test_reused_relation_encodes_once(self):
        rel = Relation(SCHEMA, self.ROWS)
        rel.mark_reused()
        first = rel.rows_json()
        assert first == json.dumps(rel.rows, sort_keys=True).encode("utf-8")
        assert rel.rows_json() is first

    def test_append_drops_the_bytes(self):
        rel = Relation(SCHEMA, self.ROWS)
        rel.mark_reused()
        before = rel.rows_json()
        rel.append({"id": 3, "v": "c"})
        assert rel._rows_json is None
        after = rel.rows_json()
        assert after != before
        assert json.loads(after)[-1] == {"id": 3, "v": "c"}
        rel.extend([{"id": 4, "v": "d"}])
        assert json.loads(rel.rows_json())[-1] == {"id": 4, "v": "d"}


class TestBatchBacked:
    """A relation backed by a batch builds row dicts only on first
    row access; length, columns, pages and JSON read the batch."""

    ROWS = [{"id": 1, "v": "a"}, {"id": 2, "v": "b"}, {"id": 3, "v": "a"}]

    def relation(self, selection=None):
        from repro.relational.columnar import ColumnBatch
        batch = ColumnBatch.from_rows(SCHEMA, self.ROWS)
        if selection is not None:
            batch = batch.select(selection)
        return Relation.from_batch(batch), batch

    def test_no_rows_until_read(self):
        rel, batch = self.relation()
        assert len(rel) == 3
        assert rel.columnar() is batch
        assert rel.page(1, 5) == self.ROWS[1:]
        assert rel.rows_json() == json.dumps(
            self.ROWS, sort_keys=True).encode("utf-8")
        assert rel._rows is None
        assert rel.rows == self.ROWS
        assert rel._rows is not None

    def test_selection_and_rename(self):
        from repro.relational.columnar import ColumnBatch
        rel, _ = self.relation(selection=[2, 0])
        assert len(rel) == 2
        assert rel.page(1, 1) == [self.ROWS[0]]
        assert rel.rows == [self.ROWS[2], self.ROWS[0]]
        named = Relation.from_batch(
            ColumnBatch.from_rows(SCHEMA, self.ROWS), name="out")
        assert named.schema.name == "out"
        assert named.columnar().schema.attribute_names == ("id", "v")
        assert named == Relation(SCHEMA, self.ROWS)

    def test_append_leaves_the_batch(self):
        rel, _ = self.relation()
        rel.mark_reused()
        rel.rows_json()
        rel.append({"id": 4, "v": "c"})
        assert rel._columnar is None and rel._rows_json is None
        assert len(rel) == 4
        assert json.loads(rel.rows_json())[-1] == {"id": 4, "v": "c"}
        assert len(rel.columnar()) == 4

    def test_reused_batch_relation_keeps_its_bytes(self):
        rel, _ = self.relation()
        fresh = rel.rows_json()
        assert rel._rows_json is None
        rel.mark_reused()
        kept = rel.rows_json()
        assert kept == fresh and rel.rows_json() is kept

    def test_code_representative_is_not_the_row_value(self):
        """A code stands for ``1``, ``1.0`` and ``True`` at once: each
        row must still be encoded as its own value."""
        from repro.relational.columnar import ColumnBatch, EncodedColumn
        schema = RelationSchema.of("m", ids=["id"], non_ids=["v"])
        values = [True, 1, 1.0, 0, -0.0, "x"]
        batch = ColumnBatch.from_rows(
            schema, [{"id": i, "v": v} for i, v in enumerate(values)])
        batch.install_encoding(1, EncodedColumn(
            [0, 0, 0, 1, 1, 2], [1.0, False, "x"],
            {1.0: 0, False: 1, "x": 2}))
        assert Relation.from_batch(batch).rows_json() == json.dumps(
            batch.to_rows(), sort_keys=True).encode("utf-8")


class TestRenderTable:
    def test_contains_headers_and_rows(self):
        text = render_table(["a", "b"], [{"a": 1, "b": "xy"}])
        assert "| a " in text
        assert "| 1 " in text
        assert "xy" in text

    def test_max_rows_footer(self):
        rows = [{"a": i} for i in range(10)]
        text = render_table(["a"], rows, max_rows=3)
        assert "7 more rows" in text

    def test_title(self):
        text = render_table(["a"], [], title="w1")
        assert text.startswith("w1")

    def test_to_ascii_uses_schema_name(self):
        rel = Relation(SCHEMA, [{"id": 1, "v": "a"}])
        assert rel.to_ascii().startswith("r")
