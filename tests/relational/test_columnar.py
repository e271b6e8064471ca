"""ColumnBatch tests: constructors, selection vectors, vectorized
operations and the row↔batch boundary adapters — with the edge cases
the row engine never had to name (empty batches, all-rows-filtered
selections, missing values, mixed-type columns)."""

import pytest

from repro.errors import SchemaError
from repro.relational import ColumnBatch, Relation, concat_batches
from repro.relational.schema import RelationSchema


def schema_of(name="w", ids=("D/id",), non_ids=("D/a", "D/b"),
              source="D"):
    return RelationSchema.of(name, ids=list(ids), non_ids=list(non_ids),
                             source=source)


def batch_of(rows, **kwargs):
    return ColumnBatch.from_rows(schema_of(**kwargs), rows)


ROWS = [
    {"D/id": 1, "D/a": "x", "D/b": 10},
    {"D/id": 2, "D/a": "y", "D/b": 20},
    {"D/id": 3, "D/a": "x", "D/b": 30},
]


class TestConstruction:
    def test_from_rows_round_trips(self):
        batch = batch_of(ROWS)
        assert len(batch) == 3
        assert batch.to_rows() == ROWS

    def test_column_count_mismatch_raises(self):
        with pytest.raises(SchemaError, match="expects 3 columns"):
            ColumnBatch(schema_of(), [[1], [2]])

    def test_ragged_columns_raise(self):
        with pytest.raises(SchemaError, match="ragged"):
            ColumnBatch(schema_of(), [[1], [2, 3], [4]])

    def test_empty_batch(self):
        batch = ColumnBatch.empty(schema_of())
        assert len(batch) == 0
        assert batch.to_rows() == []
        assert batch.to_relation().rows == []

    def test_from_relation_memoizes_on_the_relation(self):
        relation = Relation(schema_of(), ROWS)
        first = relation.columnar()
        assert relation.columnar() is first
        # appending invalidates the memo
        relation.append({"D/id": 4, "D/a": "z", "D/b": 40})
        again = relation.columnar()
        assert again is not first
        assert len(again) == 4


class TestSelection:
    def test_select_shares_columns(self):
        batch = batch_of(ROWS)
        picked = batch.select([0, 2])
        assert picked.columns[0] is batch.columns[0]  # no copy
        assert picked.column("D/id") == [1, 3]
        assert picked.to_rows() == [ROWS[0], ROWS[2]]

    def test_all_rows_filtered(self):
        batch = batch_of(ROWS)
        none = batch.select([])
        assert len(none) == 0
        assert none.to_rows() == []
        assert none.dense_columns() == ([], [], [])
        # operations on the empty selection stay well-formed
        assert len(none.distinct()) == 0
        assert len(none.rename({"k": "D/id"})) == 0

    def test_select_composes_through_existing_selection(self):
        batch = batch_of(ROWS).select([2, 1])  # rows 3, 2
        again = batch.select([1])  # live position 1 → row 2
        assert again.to_rows() == [ROWS[1]]

    def test_take_through_selection_is_dense(self):
        batch = batch_of(ROWS).select([2, 0])
        taken = batch.take([1, 0, 0])
        assert taken.selection is None
        assert taken.column("D/id") == [1, 3, 3]

    def test_compact_materializes_once(self):
        batch = batch_of(ROWS).select([0, 2])
        dense = batch.compact()
        assert dense.selection is None
        assert dense.to_rows() == batch.to_rows()
        assert dense.compact() is dense


class TestValues:
    def test_missing_values_flow_as_none(self):
        rows = [{"D/id": 1, "D/a": None, "D/b": None},
                {"D/id": 2, "D/a": "y", "D/b": None}]
        batch = batch_of(rows)
        assert batch.column("D/a") == [None, "y"]
        assert batch.to_rows() == rows
        assert len(batch.distinct()) == 2

    def test_mixed_type_columns(self):
        rows = [{"D/id": 1, "D/a": "x", "D/b": 1},
                {"D/id": "1", "D/a": 2.5, "D/b": (1, 2)},
                {"D/id": None, "D/a": True, "D/b": b"raw"}]
        batch = batch_of(rows)
        assert batch.to_rows() == rows
        assert len(batch.distinct()) == 3


class TestRename:
    def test_rename_aliases_columns(self):
        batch = batch_of(ROWS)
        out = batch.rename({"id": "D/id", "a": "D/a"})
        assert out.attribute_names == ("id", "a")
        assert out.columns[0] is batch.columns[0]  # zero-copy
        assert out.columns[1] is batch.columns[1]
        assert out.to_rows() == [{"id": 1, "a": "x"},
                                 {"id": 2, "a": "y"},
                                 {"id": 3, "a": "x"}]

    def test_rename_preserves_selection(self):
        batch = batch_of(ROWS).select([1])
        out = batch.rename({"a": "D/a"})
        assert out.to_rows() == [{"a": "y"}]

    def test_rename_unknown_attribute_raises(self):
        with pytest.raises(SchemaError, match="no attribute"):
            batch_of(ROWS).rename({"k": "D/missing"})

    def test_empty_mapping_keeps_length(self):
        out = batch_of(ROWS).rename({})
        assert len(out) == 3
        assert out.to_rows() == [{}, {}, {}]

    def test_reorder_is_identity_when_aligned(self):
        batch = batch_of(ROWS)
        assert batch.reorder(batch.attribute_names) is batch
        flipped = batch.reorder(("D/b", "D/a", "D/id"))
        assert flipped.attribute_names == ("D/b", "D/a", "D/id")
        assert flipped.to_rows() == ROWS  # dicts: order-insensitive


class TestDistinct:
    def test_multi_column_dedup_keeps_first(self):
        rows = [{"D/id": 1, "D/a": "x", "D/b": 1},
                {"D/id": 1, "D/a": "x", "D/b": 1},
                {"D/id": 1, "D/a": "y", "D/b": 1}]
        out = batch_of(rows).distinct()
        assert out.to_rows() == [rows[0], rows[2]]

    def test_single_column_dedup(self):
        schema = RelationSchema.of("w", ids=["D/id"], non_ids=[],
                                   source="D")
        batch = ColumnBatch.from_rows(
            schema, [{"D/id": v} for v in (1, 2, 1, 3, 2)])
        assert batch.distinct().column("D/id") == [1, 2, 3]

    def test_zero_column_batch_dedups_to_one_row(self):
        batch = batch_of(ROWS).rename({})
        assert len(batch.distinct()) == 1
        assert len(ColumnBatch.empty(
            RelationSchema("z", (), None)).distinct()) == 0

    def test_distinct_through_selection(self):
        rows = [{"D/id": 1, "D/a": "x", "D/b": 1},
                {"D/id": 2, "D/a": "x", "D/b": 1},
                {"D/id": 1, "D/a": "x", "D/b": 1}]
        batch = batch_of(rows).select([0, 2])  # two equal live rows
        assert len(batch.distinct()) == 1


class TestConcat:
    def test_aligns_columns_by_name(self):
        a = batch_of(ROWS[:1])
        flipped_schema = RelationSchema(
            "w2", tuple(reversed(schema_of().attributes)), "D")
        b = ColumnBatch.from_rows(flipped_schema, ROWS[1:])
        out = concat_batches(a.schema, [a, b])
        assert out.to_rows() == ROWS

    def test_incompatible_attribute_sets_raise(self):
        other = batch_of([], non_ids=("D/other",))
        with pytest.raises(SchemaError, match="cannot concatenate"):
            concat_batches(batch_of(ROWS).schema, [batch_of(ROWS), other])

    def test_single_branch_shares_data(self):
        batch = batch_of(ROWS)
        out = concat_batches(batch.schema, [batch])
        assert out is batch

    def test_empty_branches(self):
        schema = schema_of()
        out = concat_batches(schema, [ColumnBatch.empty(schema),
                                      ColumnBatch.empty(schema)])
        assert len(out) == 0
        assert out.to_rows() == []


class TestRelationBoundary:
    def test_to_relation_renames(self):
        rel = batch_of(ROWS).to_relation("result")
        assert rel.schema.name == "result"
        assert rel.rows == ROWS

    def test_relation_from_batch(self):
        batch = batch_of(ROWS)
        rel = Relation.from_batch(batch, name="out")
        assert rel.schema.name == "out"
        assert rel.rows == ROWS
