"""The metadata path copies nothing and repeats nothing: rewrite, plan
and answer read ``T`` through zero-copy union views, never through a
materialised union, and parse no lookup template and repeat no lookup
while ``T`` stays unchanged."""

from __future__ import annotations

import pytest

import repro.core.ontology as ontology_mod
import repro.core.release as release_mod
import repro.query.intra_concept as intra_mod
import repro.rdf.sparql.parser as parser_mod
from repro.core.ontology import BDIOntology
from repro.datasets import EXEMPLARY_QUERY, build_supersede
from repro.evolution.growth import replay_wordpress
from repro.evolution.wordpress import WORDPRESS_RELEASES
from repro.query import QueryEngine
from repro.rdf.dataset import Dataset
from repro.rdf.term import IRI
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


@pytest.fixture()
def work(monkeypatch):
    """Count SPARQL parses and the selects the metadata lookups issue."""
    counts = {"parses": 0, "selects": 0}
    parse = parser_mod._Parser.parse

    def counted_parse(self):
        counts["parses"] += 1
        return parse(self)

    monkeypatch.setattr(parser_mod._Parser, "parse", counted_parse)
    for module in (ontology_mod, release_mod, intra_mod):
        select = module.select

        def counted_select(*args, _select=select, **kwargs):
            counts["selects"] += 1
            return _select(*args, **kwargs)

        monkeypatch.setattr(module, "select", counted_select)

    def measure(call):
        before = dict(counts)
        call()
        return {key: counts[key] - before[key] for key in counts}
    return measure


def test_wordpress_lookup_counts(work):
    """The historical posts query after all 15 releases: every lookup is
    answered once per state of T, from a template parsed at import, and
    one providing-attributes select serves every wrapper of a feature,
    so a cold plan issues as many selects after release 15 as after
    release 1."""
    first, _ = replay_wordpress(WORDPRESS_RELEASES[:1])
    after_first = work(
        lambda: QueryEngine(first, use_cache=False).plan(POSTS_QUERY))

    ontology, _ = replay_wordpress()
    spare = (IRI("urn:test:a"), IRI("urn:test:p"), IRI("urn:test:b"))
    ontology.g.add(spare)

    def plan():
        QueryEngine(ontology, use_cache=False).plan(POSTS_QUERY)

    cold = work(plan)
    assert cold["parses"] <= 4
    assert cold["selects"] <= 6
    assert cold["selects"] == after_first["selects"]
    # Same T: every ontology lookup is a catalog hit; only the
    # query-local φ lookup runs.
    assert work(plan)["selects"] <= 1
    # A count-neutral edit (remove one triple, add another) still drops
    # the whole catalog.
    counts = ontology.triple_counts()
    ontology.g.remove(spare)
    ontology.g.add((IRI("urn:test:a"), IRI("urn:test:p"),
                    IRI("urn:test:c")))
    assert ontology.triple_counts() == counts
    assert work(plan) == cold


@pytest.mark.parametrize("build", ["supersede", "wordpress"])
def test_providing_map_matches_the_literal_lookup(build):
    """One select per feature answers every wrapper exactly as the
    paper's per-(wrapper, feature) select does, least attribute first."""
    from repro.rdf.sparql import select
    ontology = (build_supersede(with_evolution=True).ontology
                if build == "supersede" else replay_wordpress()[0])
    checked = 0
    for wrapper in ontology.sources.wrappers():
        for feature in ontology.globals.features():
            rows = select(ontology.dataset, f"""
                SELECT ?a WHERE {{
                    ?a owl:sameAs <{feature}> .
                    <{wrapper}> S:hasAttribute ?a
                }}""")
            expected = min((IRI(str(r["a"])) for r in rows), default=None)
            assert ontology.attribute_providing(wrapper, feature) \
                == expected
            checked += expected is not None
    assert checked > 0


class TestCatalogFreshness:
    """The lookup catalog never serves an answer of an earlier T."""

    def test_steward_edit_reaches_schema_and_plan(self):
        from repro.rdf.namespace import RDFS, SC, SUP
        ontology = build_supersede().ontology
        engine = QueryEngine(ontology)
        oracle = QueryEngine(ontology, use_planner=False, use_cache=False,
                             use_answer_cache=False)
        before = ontology.wrapper_relation_schema("w1")
        walks = [w.notation() for w in engine.rewrite(EXEMPLARY_QUERY).walks]
        assert engine.answer(EXEMPLARY_QUERY) == oracle.answer(
            EXEMPLARY_QUERY)

        ontology.begin_evolution()
        ontology.g.add((SUP.lagRatio, RDFS.subClassOf, SC.identifier))
        ontology.note_evolution([SUP.InfoMonitor], "lagRatio is an ID")

        after = ontology.wrapper_relation_schema("w1")
        assert not before.attribute("D1/lagRatio").is_id
        assert after.attribute("D1/lagRatio").is_id
        assert [w.notation() for w in
                engine.rewrite(EXEMPLARY_QUERY).walks] != walks
        assert engine.answer(EXEMPLARY_QUERY) == oracle.answer(
            EXEMPLARY_QUERY)

    def test_lookup_overlapping_a_mutation_is_not_stored(self, monkeypatch):
        from repro.rdf.namespace import RDFS, SC, SUP
        ontology = build_supersede().ontology
        select = ontology_mod.select
        calls = []

        def select_then_edit(*args, **kwargs):
            rows = select(*args, **kwargs)
            calls.append(rows)
            if len(calls) == 1:  # a writer lands mid-lookup, once
                ontology.g.add((SUP.lagRatio, RDFS.subClassOf,
                                SC.identifier))
            return rows

        monkeypatch.setattr(ontology_mod, "select", select_then_edit)
        assert ontology.id_features_of(SUP.InfoMonitor) == []
        # Recomputed at the new T, then stored: the third call is a hit.
        assert ontology.id_features_of(SUP.InfoMonitor) == [SUP.lagRatio]
        assert ontology.id_features_of(SUP.InfoMonitor) == [SUP.lagRatio]
        assert len(calls) == 2

    def test_returned_lists_are_private(self):
        from repro.rdf.namespace import SUP
        ontology = build_supersede().ontology
        ids = ontology.id_features_of(SUP.Monitor)
        providers = ontology.wrappers_providing(SUP.Monitor, SUP.monitorId)
        edges = ontology.edge_providers(SUP.Monitor, SUP.InfoMonitor)
        expected = (list(ids), list(providers), list(edges))
        for answer in (ids, providers, edges):
            answer.append(IRI("urn:test:junk"))
        assert (ontology.id_features_of(SUP.Monitor),
                ontology.wrappers_providing(SUP.Monitor, SUP.monitorId),
                ontology.edge_providers(SUP.Monitor, SUP.InfoMonitor),
                ) == expected

    def test_restored_snapshot_answers_as_the_writer(self):
        from types import SimpleNamespace

        from repro.storage.snapshot import restore_state, take_snapshot
        writer = build_supersede(with_evolution=True).ontology

        def every_lookup(ontology):
            concepts = writer.globals.concepts()
            features = writer.globals.features()
            wrappers = writer.sources.wrappers()
            return (
                [ontology.id_features_of(c) for c in concepts],
                [ontology.wrappers_providing(c, f)
                 for c in concepts for f in features],
                [ontology.edge_providers(a, b)
                 for a in concepts for b in concepts],
                [ontology.attribute_providing(w, f)
                 for w in wrappers for f in features],
                [ontology.wrapper_relation_schema(w) for w in wrappers],
            )

        expected = every_lookup(writer)  # also fills the writer's catalog
        restored, _ = restore_state(take_snapshot(
            SimpleNamespace(ontology=writer), seq=0))
        assert restored.fingerprint() == writer.fingerprint()
        assert every_lookup(restored) == expected
        assert every_lookup(writer) == expected


class TestFingerprintMemo:
    """``fingerprint()`` is a catalog lookup: after every kind of edit
    the memoized value equals a fresh computation, and warm calls
    recount nothing."""

    @staticmethod
    def fresh(ontology):
        from repro.core.ontology import OntologyFingerprint
        return OntologyFingerprint(epoch=ontology.epoch,
                                   structure=ontology._structure())

    def assert_moves(self, ontology, edit):
        before = ontology.fingerprint()
        assert ontology.fingerprint() is before  # memoized
        edit()
        after = ontology.fingerprint()
        assert after == self.fresh(ontology)
        assert after != before
        assert ontology.fingerprint() is after

    @pytest.mark.parametrize("graph", ["g", "s", "m"])
    def test_triple_added(self, graph):
        ontology = build_supersede().ontology
        triple = (IRI("urn:test:a"), IRI("urn:test:p"), IRI("urn:test:b"))
        self.assert_moves(ontology,
                          lambda: getattr(ontology, graph).add(triple))

    def test_count_neutral_add_then_remove(self):
        ontology = build_supersede().ontology
        triple = (IRI("urn:test:a"), IRI("urn:test:p"), IRI("urn:test:b"))
        counts = ontology.triple_counts()

        def edit():
            ontology.g.add(triple)
            ontology.g.remove(triple)

        self.assert_moves(ontology, edit)
        assert ontology.triple_counts() == counts

    def test_empty_lav_graph_created(self):
        from repro.core.vocabulary import mapping_graph_uri
        ontology = build_supersede().ontology
        mutations = ontology.dataset.mutation_count()
        self.assert_moves(ontology, lambda: ontology.dataset.graph(
            mapping_graph_uri("w9")))
        assert ontology.dataset.mutation_count() == mutations

    def test_graph_dropped(self):
        from repro.core.vocabulary import mapping_graph_uri
        ontology = build_supersede().ontology
        self.assert_moves(ontology, lambda: ontology.dataset.remove_graph(
            mapping_graph_uri("w3")))

    def test_release(self):
        from repro.datasets.supersede import register_w4
        scenario = build_supersede()
        self.assert_moves(scenario.ontology,
                          lambda: register_w4(scenario))

    def test_epoch_alone(self):
        ontology = build_supersede().ontology
        self.assert_moves(ontology, lambda: ontology.note_evolution([]))

    def test_snapshot_restore(self):
        from types import SimpleNamespace

        from repro.storage.snapshot import restore_state, take_snapshot
        writer = build_supersede(with_evolution=True).ontology
        writer.g.add((IRI("urn:test:a"), IRI("urn:test:p"),
                      IRI("urn:test:b")))
        restored, _ = restore_state(take_snapshot(
            SimpleNamespace(ontology=writer), seq=0))
        assert restored.fingerprint() == self.fresh(restored)
        assert restored.fingerprint() == writer.fingerprint()
        assert writer.fingerprint() == self.fresh(writer)

    def test_warm_queries_recount_nothing(self, monkeypatch):
        """N warm hits through the serving path run ``triple_counts``
        zero times, however often each asks for the fingerprint."""
        from repro.api import GovernedClient
        from repro.mdm.system import MDM

        ontology = build_supersede().ontology
        service = MDM(ontology).serving()
        client = GovernedClient(service)
        first = client.query(EXEMPLARY_QUERY)
        calls = {"triple_counts": 0, "fingerprint": 0}
        for name in calls:
            real = getattr(BDIOntology, name)

            def counted(self, _real=real, _name=name):
                calls[_name] += 1
                return _real(self)

            monkeypatch.setattr(BDIOntology, name, counted)
        for _ in range(10):
            assert client.query(EXEMPLARY_QUERY).rows == first.rows
        service.close()
        assert calls["fingerprint"] >= 10
        assert calls["triple_counts"] == 0
