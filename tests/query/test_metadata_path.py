"""The metadata path copies nothing: rewrite, plan and answer read ``T``
through zero-copy union views, never through a materialised union."""

from __future__ import annotations

import pytest

from repro.core.ontology import BDIOntology
from repro.datasets import EXEMPLARY_QUERY, build_supersede
from repro.evolution.growth import replay_wordpress
from repro.evolution.wordpress import WORDPRESS_RELEASES
from repro.query import QueryEngine
from repro.rdf.dataset import Dataset
from repro.wrappers.base import StaticWrapper

POSTS_QUERY = """
SELECT ?x ?y WHERE {
    VALUES (?x ?y) { (<urn:wordpress:post/id> <urn:wordpress:post/title>) }
    <urn:wordpress:Post> G:hasFeature <urn:wordpress:post/id> .
    <urn:wordpress:Post> G:hasFeature <urn:wordpress:post/title>
}
"""


@pytest.fixture()
def copies(monkeypatch):
    """Count materialised unions; any copy on the query path fails."""
    made: list[str] = []

    def forbid(name):
        def copy(*args, **kwargs):
            made.append(name)
            raise AssertionError(f"{name} copied T on the query path")
        return copy

    monkeypatch.setattr(Dataset, "union_graph", forbid("union_graph"))
    monkeypatch.setattr(BDIOntology, "lav_subgraph",
                        forbid("lav_subgraph"))
    return made


def _wordpress_with_data():
    """The 15 Wordpress releases, each bound to a two-row wrapper."""
    ontology, records = replay_wordpress()
    for spec, record in zip(WORDPRESS_RELEASES, records):
        id_attr = "ID" if "ID" in spec.fields else "id"
        rows = [{name: f"{spec.version}/{name}/{i}" for name in spec.fields}
                for i in range(2)]
        ontology.bind_wrapper(StaticWrapper(
            record.wrapper, "wordpress_posts", [id_attr],
            [f for f in spec.fields if f != id_attr], rows))
    return ontology


def _pose(engine, query):
    result = engine.rewrite(query)
    engine.plan(query)
    return result, engine.answer(query)


def test_running_example_makes_no_copy(copies):
    scenario = build_supersede(with_evolution=True)
    result, answer = _pose(QueryEngine(scenario.ontology), EXEMPLARY_QUERY)
    assert len(result.walks) == 2
    assert len(answer) > 0
    assert copies == []


def test_wordpress_history_makes_no_copy(copies):
    ontology = _wordpress_with_data()
    result, answer = _pose(QueryEngine(ontology), POSTS_QUERY)
    assert len(result.walks) == len(WORDPRESS_RELEASES)
    assert len(answer) == 2 * len(WORDPRESS_RELEASES)
    assert copies == []
