"""Property-based tests for the relational substrate (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.relational.algebra import FinalProject, Join, Project, Scan
from repro.relational.rows import Relation
from repro.relational.schema import RelationSchema

LEFT = RelationSchema.of("l", ids=["L/id"], non_ids=["L/v"], source="L")
RIGHT = RelationSchema.of("r", ids=["R/id"], non_ids=["R/w"], source="R")

_values = st.integers(min_value=0, max_value=5)
_left_rows = st.lists(
    st.fixed_dictionaries({"L/id": _values, "L/v": _values}), max_size=12)
_right_rows = st.lists(
    st.fixed_dictionaries({"R/id": _values, "R/w": _values}), max_size=12)


def _provider(left_rows, right_rows):
    return {"l": Relation(LEFT, left_rows),
            "r": Relation(RIGHT, right_rows)}


class TestJoinLaws:
    @given(_left_rows, _right_rows)
    def test_join_symmetric_cardinality(self, ls, rs):
        p = _provider(ls, rs)
        forward = Join(Scan(LEFT), Scan(RIGHT), [("L/id", "R/id")])
        backward = Join(Scan(RIGHT), Scan(LEFT), [("R/id", "L/id")])
        assert len(forward.evaluate(p)) == len(backward.evaluate(p))

    @given(_left_rows, _right_rows)
    def test_join_matches_nested_loop(self, ls, rs):
        p = _provider(ls, rs)
        expr = Join(Scan(LEFT), Scan(RIGHT), [("L/id", "R/id")])
        expected = sorted(
            (l["L/id"], l["L/v"], r["R/id"], r["R/w"])
            for l in ls for r in rs if l["L/id"] == r["R/id"])
        got = sorted(expr.evaluate(p).as_tuples(
            ["L/id", "L/v", "R/id", "R/w"]))
        assert got == expected

    @given(_left_rows)
    def test_self_join_on_id_superset_of_rows(self, ls):
        clone = RelationSchema.of("l2", ids=["L2/id"], non_ids=["L2/v"],
                                  source="L2")
        p = {"l": Relation(LEFT, ls),
             "l2": Relation(clone, [{"L2/id": r["L/id"],
                                     "L2/v": r["L/v"]} for r in ls])}
        expr = Join(Scan(LEFT), Scan(clone), [("L/id", "L2/id")])
        assert len(expr.evaluate(p)) >= len(set(
            (r["L/id"], r["L/v"]) for r in ls)) if ls else True


class TestProjectionLaws:
    @given(_left_rows)
    def test_projection_preserves_cardinality(self, ls):
        p = _provider(ls, [])
        expr = Project(Scan(LEFT), ["L/v"])
        assert len(expr.evaluate(p)) == len(ls)

    @given(_left_rows)
    def test_projection_idempotent(self, ls):
        p = _provider(ls, [])
        once = Project(Scan(LEFT), ["L/v"]).evaluate(p)
        twice = Project(Project(Scan(LEFT), ["L/v"]),
                        ["L/v"]).evaluate(p)
        assert once == twice

    @given(_left_rows)
    def test_ids_always_survive(self, ls):
        p = _provider(ls, [])
        out = Project(Scan(LEFT), []).evaluate(p)
        assert "L/id" in out.schema.attribute_names

    @given(_left_rows)
    def test_final_project_column_values(self, ls):
        p = _provider(ls, [])
        out = FinalProject(Scan(LEFT), {"x": "L/v"}).evaluate(p)
        assert out.column("x") == [r["L/v"] for r in ls]


class TestDistinct:
    @given(_left_rows)
    def test_distinct_no_larger(self, ls):
        rel = Relation(LEFT, ls)
        assert len(rel.distinct()) <= len(rel)

    @given(_left_rows)
    def test_distinct_idempotent(self, ls):
        rel = Relation(LEFT, ls)
        assert rel.distinct() == rel.distinct().distinct()


# ---------------------------------------------------------------------------
# Column-wise JSON encoding of a batch-backed relation
# ---------------------------------------------------------------------------

_text = st.text(alphabet=st.characters(codec="utf-8"), max_size=6) | \
    st.sampled_from(['"', "\\", "\x00\x1f", "é", "雪", "%s", "😀"])
_scalar = (_text | st.integers(min_value=-3, max_value=3)
           | st.integers() | st.booleans() | st.none()
           | st.sampled_from([0.0, -0.0, 1.0, 1.5, float("nan"),
                              float("inf"), float("-inf")])
           | st.floats(allow_nan=True, allow_infinity=True))
_cell = _scalar | st.lists(_scalar, max_size=2) | \
    st.dictionaries(_text, _scalar, max_size=2)
#: one column's cells: a single lane type, or any mix
_column_kind = st.sampled_from(["str", "int", "float", "mixed", "any"])
_KIND_CELLS = {"str": _text, "int": st.integers(), "float": st.floats(),
               "mixed": st.sampled_from([1, 1.0, True, 0, -0.0, False,
                                         None, "1"]),
               "any": _cell}


@st.composite
def _batches(draw):
    from repro.relational.columnar import ColumnBatch, EncodedColumn, \
        encode_values
    from repro.relational.schema import Attribute

    names = draw(st.lists(_text.filter(bool), max_size=4, unique=True))
    stored = draw(st.integers(min_value=0, max_value=12))
    columns = [draw(st.lists(_KIND_CELLS[draw(_column_kind)],
                             min_size=stored, max_size=stored))
               for _ in names]
    selection = None
    if stored and draw(st.booleans()):
        selection = draw(st.lists(st.integers(0, stored - 1),
                                  max_size=stored))
    schema = RelationSchema(
        "b", tuple(Attribute(name, False) for name in names), None)
    batch = ColumnBatch(schema, columns, selection,
                        _length=stored if not names else None)
    for position, column in enumerate(columns):
        how = draw(st.sampled_from(["none", "own", "last"]))
        if how == "own":
            batch.encoded_at(position)
        elif how == "last":
            # Representatives a column does not hold (the last member of
            # each ==-class), as a fused projection installs them.
            backwards = encode_values(list(reversed(column)))
            if backwards is not None:
                codes = [backwards.index[value] for value in column]
                batch.install_encoding(position, EncodedColumn(
                    codes, backwards.values, backwards.index))
    return batch


class TestColumnarJson:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_batches())
    def test_rows_json_equals_dumps_of_rows(self, batch):
        import json

        expected = json.dumps(batch.to_rows(), sort_keys=True)
        relation = Relation.from_batch(batch)
        assert relation.rows_json() == expected.encode("utf-8")
        assert relation._rows is None  # no row dict was built
        assert relation.rows == batch.to_rows()
