"""Unit tests for walks."""

import pytest

from repro.errors import RewritingError, SameSourceJoinError, SchemaError
from repro.relational.schema import RelationSchema
from repro.relational.walk import JoinCondition, Walk

W1 = RelationSchema.of("w1", ids=["D1/id"], non_ids=["D1/v"], source="D1")
W3 = RelationSchema.of("w3", ids=["D3/app", "D3/mid"], source="D3")
W4 = RelationSchema.of("w4", ids=["D1/id"], non_ids=["D1/b"], source="D1")


class TestJoinCondition:
    def test_normalized_orders_sides(self):
        cond = JoinCondition("w3", "D3/mid", "w1", "D1/id")
        norm = cond.normalized()
        assert norm.left_wrapper == "w1"
        assert norm == JoinCondition("w1", "D1/id", "w3",
                                     "D3/mid").normalized()

    def test_touches(self):
        cond = JoinCondition("w1", "D1/id", "w3", "D3/mid")
        assert cond.touches("w1") and cond.touches("w3")
        assert not cond.touches("w4")


class TestWalkBuilding:
    def test_single(self):
        walk = Walk.single(W1, {"D1/v"})
        assert walk.wrapper_names == frozenset({"w1"})
        assert walk.projected_attributes() == {"D1/v"}

    def test_single_rejects_bad_projection(self):
        with pytest.raises(SchemaError):
            Walk.single(W1, {"D1/id"})  # IDs are implicit

    def test_output_attributes_include_ids(self):
        walk = Walk.single(W1, {"D1/v"})
        assert walk.output_attributes() == {"D1/id", "D1/v"}

    def test_add_wrapper_merges_projections(self):
        walk = Walk.single(W1, set())
        walk.add_wrapper(W1, {"D1/v"})
        assert walk.projections["w1"] == {"D1/v"}

    def test_same_source_rejected(self):
        walk = Walk.single(W1, set())
        with pytest.raises(SameSourceJoinError):
            walk.add_wrapper(W4, set())

    def test_merged_with(self):
        a = Walk.single(W1, {"D1/v"})
        b = Walk.single(W3, set())
        merged = a.merged_with(b)
        assert merged.wrapper_names == frozenset({"w1", "w3"})
        # inputs untouched
        assert a.wrapper_names == frozenset({"w1"})

    def test_merged_with_same_source_fails(self):
        a = Walk.single(W1, set())
        b = Walk.single(W4, set())
        with pytest.raises(SameSourceJoinError):
            a.merged_with(b)

    def test_add_join_validates_membership(self):
        walk = Walk.single(W1, set())
        with pytest.raises(RewritingError):
            walk.add_join(JoinCondition("w1", "D1/id", "w3", "D3/mid"))

    def test_add_join_validates_id(self):
        walk = Walk.single(W1, {"D1/v"})
        walk.add_wrapper(W3, set())
        with pytest.raises(RewritingError):
            walk.add_join(JoinCondition("w1", "D1/v", "w3", "D3/mid"))

    def test_equivalence_ignores_join_direction(self):
        a = Walk.single(W1, set())
        a.add_wrapper(W3, set())
        a.add_join(JoinCondition("w1", "D1/id", "w3", "D3/mid"))
        b = Walk.single(W3, set())
        b.add_wrapper(W1, set())
        b.add_join(JoinCondition("w3", "D3/mid", "w1", "D1/id"))
        assert a.equivalence_key() == b.equivalence_key()

    def test_equivalence_differs_on_wrappers(self):
        a = Walk.single(W1, set())
        b = Walk.single(W3, set())
        assert a.equivalence_key() != b.equivalence_key()

    def test_closure_key_equates_spanning_trees(self):
        hub = RelationSchema.of("h", ids=["H/id"], source="H")
        s1 = RelationSchema.of("s1", ids=["S1/id"], source="S1")
        s2 = RelationSchema.of("s2", ids=["S2/id"], source="S2")

        def star(*joins):
            walk = Walk.single(hub, set())
            walk.add_wrapper(s1, set())
            walk.add_wrapper(s2, set())
            for join in joins:
                walk.add_join(join)
            return walk

        h_s1 = JoinCondition("h", "H/id", "s1", "S1/id")
        h_s2 = JoinCondition("h", "H/id", "s2", "S2/id")
        s1_s2 = JoinCondition("s1", "S1/id", "s2", "S2/id")
        through_hub = star(h_s1, h_s2)
        through_s1 = star(h_s1, s1_s2)
        # Different conditions, one equality closure: one CQ.
        assert through_hub.equivalence_key() != \
            through_s1.equivalence_key()
        assert through_hub.closure_key() == through_s1.closure_key()
        assert through_hub.closure_key()[1] == frozenset({frozenset(
            {("h", "H/id"), ("s1", "S1/id"), ("s2", "S2/id")})})
        # A partial closure is a different query.
        assert star(h_s1).closure_key() != through_hub.closure_key()


class TestConnectivityAndLowering:
    def test_single_wrapper_connected(self):
        assert Walk.single(W1, set()).is_connected()

    def test_disconnected_without_joins(self):
        walk = Walk.single(W1, set())
        walk.add_wrapper(W3, set())
        assert not walk.is_connected()
        with pytest.raises(RewritingError):
            walk.to_expression()

    def test_lowering_joined_walk(self):
        walk = Walk.single(W1, {"D1/v"})
        walk.add_wrapper(W3, set())
        walk.add_join(JoinCondition("w1", "D1/id", "w3", "D3/mid"))
        expr = walk.to_expression()
        assert expr.wrappers() == {"w1", "w3"}
        assert "⋈̃" in expr.notation()

    def test_empty_walk_rejected(self):
        with pytest.raises(RewritingError):
            Walk().to_expression()

    def test_three_way_chain(self):
        w5 = RelationSchema.of("w5", ids=["D5/mid"], non_ids=["D5/z"],
                               source="D5")
        walk = Walk.single(W1, {"D1/v"})
        walk.add_wrapper(W3, set())
        walk.add_wrapper(w5, {"D5/z"})
        walk.add_join(JoinCondition("w1", "D1/id", "w3", "D3/mid"))
        walk.add_join(JoinCondition("w3", "D3/mid", "w5", "D5/mid"))
        expr = walk.to_expression()
        assert expr.wrappers() == {"w1", "w3", "w5"}

    def test_notation_mentions_joins(self):
        walk = Walk.single(W1, {"D1/v"})
        walk.add_wrapper(W3, set())
        walk.add_join(JoinCondition("w1", "D1/id", "w3", "D3/mid"))
        text = walk.notation()
        assert "w1.D1/id=w3.D3/mid" in text
