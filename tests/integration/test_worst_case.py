"""Integration tests for the §5.3 worst-case construction (Figure 8)."""

import pytest

from repro.evaluation.worst_case import (
    build_worst_case, fit_constant, run_sweep, worst_case_query,
)
from repro.query.coverage import covering_and_minimal
from repro.query.engine import QueryEngine
from repro.query.rewriter import rewrite


class TestWorstCaseConstruction:
    def test_ontology_validates(self):
        setup = build_worst_case(concepts=3, wrappers_per_concept=2)
        assert setup.ontology.validate() == []

    @pytest.mark.parametrize("concepts,wrappers", [
        (2, 1), (2, 3), (3, 2), (4, 2), (5, 2), (3, 4),
    ])
    def test_walk_count_is_w_to_the_c(self, concepts, wrappers):
        """Phase 3 generates exactly W^C covering & minimal walks."""
        setup = build_worst_case(concepts, wrappers)
        result = rewrite(setup.ontology, setup.query)
        assert len(result.walks) == wrappers ** concepts

    def test_all_walks_covering_and_minimal(self):
        setup = build_worst_case(concepts=3, wrappers_per_concept=3)
        result = rewrite(setup.ontology, setup.query)
        for walk in result.walks:
            assert covering_and_minimal(setup.ontology, walk,
                                        result.well_formed)

    def test_every_walk_uses_one_wrapper_per_concept(self):
        setup = build_worst_case(concepts=4, wrappers_per_concept=2)
        result = rewrite(setup.ontology, setup.query)
        for walk in result.walks:
            assert len(walk.wrapper_names) == 4
            levels = sorted(name.split("_")[0] for name
                            in walk.wrapper_names)
            assert levels == ["w1", "w2", "w3", "w4"]

    def test_execution_with_data(self):
        setup = build_worst_case(concepts=3, wrappers_per_concept=2,
                                 rows_per_wrapper=4)
        table = QueryEngine(setup.ontology).answer(setup.query)
        assert len(table) > 0
        assert set(table.schema.attribute_names) == {"val", "val_2",
                                                     "val_3"}

    def test_query_shape(self):
        query = worst_case_query(3)
        assert len(query.pi) == 3
        assert len(query.phi) == 5  # 3 hasFeature + 2 edges


class TestSweep:
    def test_sweep_points(self):
        points = run_sweep(concepts=3, max_wrappers=3)
        assert [p.wrappers_per_concept for p in points] == [1, 2, 3]
        assert [p.walks for p in points] == [1, 8, 27]

    def test_fit_constant_positive(self):
        points = run_sweep(concepts=3, max_wrappers=3)
        assert fit_constant(points) > 0

    def test_times_grow(self):
        points = run_sweep(concepts=3, max_wrappers=4)
        assert points[-1].seconds > points[0].seconds
