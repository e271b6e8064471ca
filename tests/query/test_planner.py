"""Planner tests: randomized planned/naive equivalence, join ordering,
explain annotations and engine/service integration."""

import random

import pytest

from repro.datasets import EXEMPLARY_QUERY, build_supersede
from repro.errors import RewritingError, UnanswerableQueryError
from repro.query import QueryEngine
from repro.query.planner import plan_ucq, plan_walk
from repro.relational.algebra import FinalProject, Union
from repro.relational.physical import (
    CachingScanProvider, PhysicalHashJoin, PhysicalScan,
    RelationScanProvider, ScanCache, WrapperScanProvider,
)
from repro.relational.rows import Relation
from repro.relational.schema import RelationSchema
from repro.relational.walk import JoinCondition, Walk
from repro.wrappers.base import StaticWrapper, Wrapper


def caching_scans(ontology, scans=None):
    """The scan provider the engine plans against: the bound wrappers
    behind a scan cache, which counts failing estimates."""
    return CachingScanProvider(
        WrapperScanProvider(ontology.physical_wrapper),
        ScanCache() if scans is None else scans)


# ---------------------------------------------------------------------------
# Randomized equivalence: physical plan vs. naive logical evaluation
# ---------------------------------------------------------------------------


def random_chain(rng: random.Random, wrappers: int, rows_max: int = 12):
    """A random chain walk w0-w1-... with provider data and a final
    projection mapping — the shape rewriting produces."""
    schemas, provider, all_non_ids = {}, {}, []
    for i in range(wrappers):
        non_ids = [f"D{i}/x{j}" for j in range(rng.randint(0, 3))]
        schema = RelationSchema.of(
            f"w{i}", ids=[f"D{i}/id"], non_ids=non_ids, source=f"D{i}")
        schemas[f"w{i}"] = schema
        rows = []
        for _ in range(rng.randint(0, rows_max)):
            row = {f"D{i}/id": rng.randint(0, 6)}
            row.update({n: rng.randint(0, 4) for n in non_ids})
            rows.append(row)
        provider[f"w{i}"] = Relation(schema, rows)
        all_non_ids.extend(non_ids)

    walk = Walk()
    for name, schema in schemas.items():
        projected = {n for n in schema.non_id_names
                     if rng.random() < 0.7}
        walk.add_wrapper(schema, projected)
    for i in range(wrappers - 1):
        walk.add_join(JoinCondition(f"w{i}", f"D{i}/id",
                                    f"w{i + 1}", f"D{i + 1}/id"))

    # Output mapping: a non-empty random subset of the walk's outputs.
    outputs = sorted(walk.output_attributes())
    chosen = [a for a in outputs if rng.random() < 0.6] or [outputs[0]]
    mapping = {f"col{k}": attr for k, attr in enumerate(chosen)}
    return walk, mapping, provider


@pytest.mark.parametrize("use_accel", [True, False])
@pytest.mark.parametrize("seed", range(30))
def test_randomized_walk_equivalence(seed, use_accel, monkeypatch):
    from repro.relational import accel
    if not use_accel:
        monkeypatch.setattr(accel, "numpy", None)
    elif not accel.available():  # pragma: no cover - numpy-less env
        pytest.skip("numpy unavailable")
    rng = random.Random(seed)
    walk, mapping, provider = random_chain(rng, rng.randint(1, 4))
    logical = FinalProject(walk.to_expression(), mapping)
    naive = logical.evaluate(provider)

    scans = RelationScanProvider(provider)
    branch = plan_walk(walk, mapping, scans.estimate)
    assert branch.execute_encoded(scans).to_relation() == naive

    # Unknown cardinalities must not change the answer either.
    blind = plan_walk(walk, mapping, lambda name: None)
    assert blind.execute_encoded(scans).to_relation() == naive

    # Set semantics: deduplicated scans under a DISTINCT union give the
    # oracle's set (random rows repeat, so the scans do drop rows).
    from repro.relational.physical import PhysicalUnion
    deduped = PhysicalUnion(
        (plan_walk(walk, mapping, scans.estimate, distinct=True),))
    # A lone scan leaves dedup to the closing projection.
    assert all(scan.dedup == (len(walk.schemas) > 1)
               for scan in _scans_of(deduped))
    assert deduped.execute_encoded(scans).to_relation() == \
        naive.distinct()


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("distinct", [True, False])
def test_randomized_union_equivalence(seed, distinct, monkeypatch):
    rng = random.Random(1000 + seed)
    branches_logical, branches_physical = [], []
    provider = {}
    n_branches = rng.randint(1, 3)
    scans = None
    for b in range(n_branches):
        walk, _, branch_provider = random_chain(rng, rng.randint(1, 3))
        # Align all branches on one output schema: project each walk's
        # first ID attribute onto a common column name.
        first_id = sorted(
            a for s in walk.schemas.values() for a in s.id_names)[0]
        mapping = {"the_id": first_id}
        # Distinct wrapper names per branch to build one provider.
        renamed_provider = {}
        renamed_walk = Walk()
        rename = {name: f"b{b}_{name}" for name in walk.schemas}
        for name, schema in walk.schemas.items():
            new_schema = RelationSchema(rename[name], schema.attributes,
                                        f"b{b}_{schema.source}")
            renamed_walk.add_wrapper(new_schema, walk.projections[name])
            renamed_provider[rename[name]] = Relation(
                new_schema, branch_provider[name].rows)
        for join in walk.joins:
            renamed_walk.add_join(JoinCondition(
                rename[join.left_wrapper], join.left_attribute,
                rename[join.right_wrapper], join.right_attribute))
        provider.update(renamed_provider)
        branches_logical.append(
            FinalProject(renamed_walk.to_expression(), mapping))
        scans = RelationScanProvider(provider)
        branches_physical.append(
            plan_walk(renamed_walk, mapping, scans.estimate, distinct))

    from repro.relational import accel
    from repro.relational.physical import PhysicalUnion
    naive = Union(branches_logical, distinct=distinct).evaluate(provider)
    union = PhysicalUnion(tuple(branches_physical), distinct=distinct)
    # Both kernel paths: numpy when importable, then pure Python.
    assert union.execute_encoded(scans).to_relation() == naive
    monkeypatch.setattr(accel, "numpy", None)
    assert union.execute_encoded(scans).to_relation() == naive


def test_empty_wrapper_edge_case():
    schema = RelationSchema.of("w0", ids=["D0/id"], non_ids=["D0/a"],
                               source="D0")
    walk = Walk.single(schema, {"D0/a"})
    provider = {"w0": Relation(schema, [])}
    mapping = {"a": "D0/a"}
    scans = RelationScanProvider(provider)
    branch = plan_walk(walk, mapping, scans.estimate)
    planned = branch.execute_encoded(scans).to_relation()
    naive = FinalProject(walk.to_expression(), mapping) \
        .evaluate(provider)
    assert planned == naive
    assert len(planned) == 0


# ---------------------------------------------------------------------------
# Planner structure
# ---------------------------------------------------------------------------


def two_wrapper_walk(left_rows, right_rows):
    s1 = RelationSchema.of("wa", ids=["DA/id"], non_ids=["DA/v"],
                           source="DA")
    s2 = RelationSchema.of("wb", ids=["DB/id"], non_ids=["DB/v"],
                           source="DB")
    walk = Walk()
    walk.add_wrapper(s1, {"DA/v"})
    walk.add_wrapper(s2, {"DB/v"})
    walk.add_join(JoinCondition("wa", "DA/id", "wb", "DB/id"))
    provider = {
        "wa": Relation(s1, left_rows),
        "wb": Relation(s2, right_rows),
    }
    return walk, provider


class TestJoinOrdering:
    def test_smaller_side_builds(self):
        left = [{"DA/id": i, "DA/v": i} for i in range(10)]
        right = [{"DB/id": 1, "DB/v": 1}]
        walk, provider = two_wrapper_walk(left, right)
        scans = RelationScanProvider(provider)
        branch = plan_walk(walk, {"v": "DA/v"}, scans.estimate)
        join = branch.child
        assert isinstance(join, PhysicalHashJoin)
        # wb (1 row) is the build side; wa (10 rows) probes.
        assert join.build.wrapper_name == "wb"
        assert join.probe.wrapper_name == "wa"
        assert join.build_estimate == 1

    def test_unknown_estimates_fall_back_to_alphabetical(self):
        walk, provider = two_wrapper_walk(
            [{"DA/id": 1, "DA/v": 1}], [{"DB/id": 1, "DB/v": 1}])
        branch = plan_walk(walk, {"v": "DA/v"}, lambda name: None)
        join = branch.child
        assert join.build.wrapper_name == "wa"  # tree starts at 'wa'

    def test_projection_pushdown_columns(self):
        walk, provider = two_wrapper_walk(
            [{"DA/id": 1, "DA/v": 2}], [{"DB/id": 1, "DB/v": 3}])
        # Only DA/v is output: wb contributes just its join key.
        branch = plan_walk(walk, {"v": "DA/v"},
                           RelationScanProvider(provider).estimate)
        scans = {s.wrapper_name: s for s in _scans_of(branch)}
        assert scans["wb"].columns == ("DB/id",)
        assert scans["wa"].columns is None  # full width needed

    def test_redundant_join_conditions_rejected(self):
        walk, _ = two_wrapper_walk([], [])
        walk.joins.add(JoinCondition("wa", "DA/id", "wb", "DB/id")
                       .normalized())
        # Inject a second, cyclic condition between the same wrappers
        # via a parallel ID attribute is not possible here; instead
        # check the planner refuses a disconnected walk.
        s3 = RelationSchema.of("wc", ids=["DC/id"], non_ids=[],
                               source="DC")
        walk.add_wrapper(s3, set())
        with pytest.raises(RewritingError, match="not connected"):
            plan_walk(walk, {"v": "DA/v"}, lambda n: None)


def _scans_of(node):
    if isinstance(node, PhysicalScan):
        yield node
    for attr in ("build", "probe", "child"):
        child = getattr(node, attr, None)
        if child is not None:
            yield from _scans_of(child)
    for branch in getattr(node, "branches", ()):
        yield from _scans_of(branch)


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------


@pytest.fixture()
def evolved():
    return build_supersede(with_evolution=True)


class TestEngineIntegration:
    def test_planned_equals_naive_on_supersede(self, evolved):
        planned = QueryEngine(evolved.ontology).answer(EXEMPLARY_QUERY)
        naive = QueryEngine(evolved.ontology, use_planner=False,
                            use_cache=False).answer(EXEMPLARY_QUERY)
        assert planned == naive
        assert len(planned) > 0

    def test_columns_only_wrappers_equal_naive(self, evolved):
        """Wrappers whose ``fetch_rows`` takes ``columns`` and nothing
        else answer through the planner exactly as naive evaluation."""

        class ColumnsOnly(Wrapper):
            def __init__(self, inner):
                attributes = inner.schema.attributes
                super().__init__(
                    inner.name, inner.source_name,
                    [a.name for a in attributes if a.is_id],
                    [a.name for a in attributes if not a.is_id])
                self.inner = inner

            def fetch_rows(self, columns=None):
                return self.inner.relation(columns=columns).rows

        ontology = evolved.ontology
        for wrapper in evolved.wrappers.values():
            ontology.bind_wrapper(ColumnsOnly(wrapper))
        planned = QueryEngine(ontology, use_cache=False,
                              use_answer_cache=False).answer(
                                  EXEMPLARY_QUERY, distinct=False)
        naive = QueryEngine(ontology, use_planner=False, use_cache=False,
                            use_answer_cache=False).answer(
                                EXEMPLARY_QUERY, distinct=False)
        assert planned == naive
        assert len(planned) > 0

    def test_answer_many_shares_scans(self, evolved):
        fetches = []
        for wrapper in evolved.wrappers.values():
            original = wrapper.fetch_rows

            def counted(columns=None, _o=original,
                        _n=wrapper.name):
                fetches.append(_n)
                return _o(columns=columns)

            wrapper.fetch_rows = counted
        engine = QueryEngine(evolved.ontology)
        batch = [EXEMPLARY_QUERY] * 6
        results = engine.answer_many(batch)
        assert all(len(r) > 0 for r in results)
        # Dedup by canonical key answers once; within that one
        # evaluation the shared w3 scan fetches a single time.
        assert fetches.count("w3") == 1

    def test_explain_shows_physical_plan(self, evolved):
        text = QueryEngine(evolved.ontology).explain(EXEMPLARY_QUERY)
        assert "physical plan" in text
        assert "pushed" in text
        assert "shared ×2" in text
        assert "final UCQ" in text
        # Set semantics: DISTINCT scans deduplicate; the two supersede
        # walks join different wrappers, so neither folds.
        assert "dedup" in text
        assert "equivalent walks" not in text

    def test_explain_without_planner_keeps_logical_form(self, evolved):
        text = QueryEngine(evolved.ontology,
                           use_planner=False).explain(EXEMPLARY_QUERY)
        assert "physical plan" not in text
        assert "final UCQ" in text

    def test_plan_method_matches_execution_path(self, evolved):
        engine = QueryEngine(evolved.ontology)
        plan = engine.plan(EXEMPLARY_QUERY)
        assert plan.wrappers() == {"w1", "w3", "w4"}
        assert "physical plan" in plan.explain()

    def test_plan_is_reused_across_answers(self, evolved):
        # A memoized plan depends only on its rewriting: executing it
        # never replaces it, so the plan that ran is the one explained.
        engine = QueryEngine(evolved.ontology)
        plan = engine.plan(EXEMPLARY_QUERY)
        engine.answer(EXEMPLARY_QUERY)
        engine.answer(EXEMPLARY_QUERY)
        assert engine.plan(EXEMPLARY_QUERY) is plan
        assert engine.plan(EXEMPLARY_QUERY) is engine.plan(EXEMPLARY_QUERY)
        assert plan.last_metrics is not None

    def test_plan_unanswerable_raises(self, evolved):
        engine = QueryEngine(evolved.ontology)
        query = """
        SELECT ?x WHERE {
            VALUES (?x) { (sup:bitrate) }
            sup:InfoMonitor G:hasFeature sup:bitrate
        }
        """
        with pytest.raises(UnanswerableQueryError):
            engine.plan(query)

    def test_plan_ucq_empty_walks_raises(self, evolved):
        from repro.query.ucq import UCQ
        with pytest.raises(UnanswerableQueryError):
            plan_ucq(evolved.ontology, UCQ(features=[], walks=[]),
                     caching_scans(evolved.ontology))


class TestRuntimeMetrics:
    def test_explain_analyze_renders_runtime_metrics(self, evolved):
        engine = QueryEngine(evolved.ontology)
        assert "not yet executed" in engine.explain(EXEMPLARY_QUERY,
                                                    analyze=True)
        engine.answer(EXEMPLARY_QUERY)
        text = engine.explain(EXEMPLARY_QUERY, analyze=True)
        assert "runtime metrics (last run):" in text
        assert "rows=" in text and "ms" in text

    def test_metrics_tree_has_one_node_per_operator(self):
        # perfbench's relational.intermediate_rows sums rows_out over
        # this tree: a node missing or doubled would skew it.
        from repro.query.planner import PhysicalPlan
        from repro.relational.physical import PhysicalUnion
        walk, mapping, provider = random_chain(random.Random(3), 3,
                                               rows_max=30)
        scans = RelationScanProvider(provider)
        branch = plan_walk(walk, mapping, scans.estimate)
        plan = PhysicalPlan(ucq=None, root=PhysicalUnion((branch,)))
        result = plan.execute(scans)

        def kinds(node):
            if isinstance(node, PhysicalScan):
                return ["scan"]
            if isinstance(node, PhysicalHashJoin):
                return ["join", *kinds(node.build), *kinds(node.probe)]
            if isinstance(node, PhysicalUnion):
                return ["union", *(k for b in node.branches
                                   for k in kinds(b))]
            return ["project", *kinds(node.child)]

        expected = kinds(plan.root)
        assert sorted(expected) == ["join", "join", "project", "scan",
                                    "scan", "scan", "union"]
        observed = list(plan.last_metrics.walk())
        assert [node.kind for node in observed] == expected
        assert plan.last_metrics.rows_out == len(result)

    def test_concurrent_runs_record_their_own_trees(self, evolved):
        # One plan object, two threads, two providers of different
        # sizes. The second run finishes between the first run's
        # execute and its recording, so a tree read back from the
        # shared plan (last_metrics) would be the second run's.
        import threading

        from repro.query.planner import PhysicalPlan
        from repro.relational.physical import PhysicalProject, \
            PhysicalUnion
        schema = RelationSchema.of("w", ids=["D/id"], non_ids=[],
                                   source="D")
        plan = PhysicalPlan(ucq=None, root=PhysicalUnion((PhysicalProject(
            PhysicalScan(schema, None, 1), {"id": "D/id"}),), False))
        scans = {size: RelationScanProvider({"w": Relation(
            schema, [{"D/id": i} for i in range(size)])})
            for size in (3, 5)}
        engine = QueryEngine(evolved.ontology)
        first_waiting = threading.Event()
        second_done = threading.Event()
        record = engine._record_metrics

        def interleaved(key, *args):
            if key == "first":
                first_waiting.set()
                second_done.wait(timeout=10)
            record(key, *args)

        engine._record_metrics = interleaved
        answers = {}
        first = threading.Thread(target=lambda: answers.__setitem__(
            "first", engine._execute("first", plan, scans[3])))
        first.start()
        assert first_waiting.wait(timeout=10)
        second = threading.Thread(target=lambda: answers.__setitem__(
            "second", engine._execute("second", plan, scans[5])))
        second.start()
        second.join(timeout=10)
        second_done.set()
        first.join(timeout=10)
        trees = dict(engine.plan_metrics_log())
        assert {key: len(answer) for key, answer in answers.items()} \
            == {"first": 3, "second": 5}
        for key, answer in answers.items():
            assert trees[key].rows_out == len(answer)

    def test_wrapper_timings_aggregate_scans(self, evolved):
        engine = QueryEngine(evolved.ontology)
        engine.answer(EXEMPLARY_QUERY)
        timings = engine.wrapper_timings()
        assert timings  # at least one wrapper observed
        for entry in timings.values():
            assert entry["scans"] >= 1
            assert entry["seconds"] >= 0.0


class TestSetSemantics:
    """Under DISTINCT the plan executes one branch per class of
    equivalent walks and deduplicates its scans; the UCQ is unchanged."""

    @pytest.mark.parametrize("satellites,walks", [(2, 2), (3, 6)])
    def test_star_walks_plan_one_branch(self, star, satellites, walks):
        from repro.relational.physical import PhysicalUnion
        ontology, query, _ = star(satellites)
        engine = QueryEngine(ontology)
        ucq = engine.rewrite(query).ucq
        assert len(ucq.walks) == walks  # the paper's count stands
        plan = plan_ucq(ontology, ucq, caching_scans(ontology))
        assert isinstance(plan.root, PhysicalUnion)
        assert len(plan.root.branches) == 1
        assert plan.root.walks == (walks,)
        assert all(scan.dedup for scan in plan.scans())
        assert plan.execute(WrapperScanProvider(
            ontology.physical_wrapper)) == ucq.execute(ontology)
        text = plan.explain()
        assert f"∪ distinct [1 branch; {walks} equivalent walks]" in text
        assert "dedup" in text

    def test_bag_plan_keeps_every_walk(self, star):
        ontology, query, _ = star(3)
        ucq = QueryEngine(ontology).rewrite(query).ucq
        plan = plan_ucq(ontology, ucq, caching_scans(ontology),
                        distinct=False)
        assert len(plan.root.branches) == len(ucq.walks) == 6
        assert not any(scan.dedup for scan in plan.scans())
        bag = plan.execute(WrapperScanProvider(ontology.physical_wrapper))
        assert bag == ucq.execute(ontology, distinct=False)
        assert len(bag) > len(ucq.execute(ontology))  # duplicates kept

    def test_walks_over_different_wrappers_stay_apart(self):
        from repro.evolution.growth import replay_wordpress
        from repro.evolution.wordpress import WORDPRESS_RELEASES
        ontology, records = replay_wordpress()
        for spec, record in zip(WORDPRESS_RELEASES, records):
            id_attr = "ID" if "ID" in spec.fields else "id"
            ontology.bind_wrapper(StaticWrapper(
                record.wrapper, "wordpress_posts", [id_attr],
                [f for f in spec.fields if f != id_attr],
                [{name: f"{spec.version}/{name}/{i % 2}"
                  for name in spec.fields} for i in range(4)]))
        query = """
        SELECT ?x ?y WHERE {
            VALUES (?x ?y) { (<urn:wordpress:post/id>
                              <urn:wordpress:post/title>) }
            <urn:wordpress:Post> G:hasFeature <urn:wordpress:post/id> .
            <urn:wordpress:Post> G:hasFeature <urn:wordpress:post/title>
        }"""
        engine = QueryEngine(ontology)
        ucq = engine.rewrite(query).ucq
        plan = engine.plan(query)
        # One walk — and one branch — per release.
        assert len(ucq.walks) == len(WORDPRESS_RELEASES)
        assert len(plan.root.branches) == len(ucq.walks)
        assert "equivalent walks" not in plan.explain()
        assert engine.answer(query) == ucq.execute(ontology)


class TestScanCacheIntegration:
    def counting_wrapper(self, rows=({"id": 1, "a": 2},)):
        calls = []

        class Counting(StaticWrapper):
            def fetch_rows(self, columns=None):
                calls.append(1)
                return super().fetch_rows(columns)

        wrapper = Counting("w1", "D1", ["id"], ["a"], rows)
        return wrapper, calls

    def test_build_key_sets_share_one_probe_fetch(self):
        """Two walks probe one wrapper under different build-side key
        sets: a scan is keyed by (wrapper, columns) alone, so through
        one scan cache the probe wrapper is fetched once."""
        probe, calls = self.counting_wrapper(
            [{"id": i, "a": 10 * i} for i in range(10)])
        builds = {
            "wx": StaticWrapper("wx", "DX", ["id"], [],
                                [{"id": 1}, {"id": 2}]),
            "wy": StaticWrapper("wy", "DY", ["id"], [], [{"id": 3}]),
        }
        bound = {"w1": probe, **builds}
        scans = CachingScanProvider(WrapperScanProvider(bound.__getitem__),
                                    ScanCache())
        answers = {}
        for name, build in builds.items():
            walk = Walk()
            walk.add_wrapper(build.qualified_schema, set())
            walk.add_wrapper(probe.qualified_schema, {"D1/a"})
            walk.add_join(JoinCondition(name, f"{build.source_name}/id",
                                        "w1", "D1/id"))
            branch = plan_walk(walk, {"a": "D1/a"}, scans.estimate)
            assert branch.child.probe.wrapper_name == "w1"
            answers[name] = sorted(
                row["a"] for row in branch.execute_encoded(scans).to_rows())
        assert answers == {"wx": [10, 20], "wy": [30]}
        assert len(calls) == 1
        assert scans.cache.stats.hits == 1

    def test_cache_shared_across_calls_until_data_changes(self):
        wrapper, calls = self.counting_wrapper()
        scans = CachingScanProvider(
            WrapperScanProvider({"w1": wrapper}.__getitem__),
            ScanCache())
        scans.scan("w1", columns=["D1/id"])
        scans.scan("w1", columns=["D1/id"])
        assert len(calls) == 1
        wrapper.replace_rows([{"id": 9, "a": 1}])
        assert scans.scan("w1", columns=["D1/id"]).rows == [{"D1/id": 9}]
        assert len(calls) == 2


def _single_wrapper_ontology(rows, estimate_fails=False):
    """One concept ``Item`` with features ``id`` and ``v`` over one
    static wrapper holding *rows*."""
    from repro.core.release import new_release
    from repro.evolution.release_builder import build_release
    from repro.mdm.system import MDM
    from repro.rdf.namespace import Namespace

    ns = Namespace("urn:mixed:")
    ontology = MDM().ontology
    item = ontology.globals.add_concept(ns.Item)
    ontology.globals.add_feature(item, ns["item/id"], is_id=True)
    ontology.globals.add_feature(item, ns["item/v"])

    class Items(StaticWrapper):
        def estimate_rows(self):
            if estimate_fails:
                raise RuntimeError("estimate probe is down")
            return super().estimate_rows()

    wrapper = Items("items_v1", "items", id_attributes=["id"],
                    non_id_attributes=["v"], rows=rows)
    release = build_release(ontology, "items", wrapper.name,
                            id_attributes=["id"], non_id_attributes=["v"],
                            feature_hints={"id": ns["item/id"],
                                           "v": ns["item/v"]})
    release.wrapper = wrapper
    new_release(ontology, release)
    query = f"""SELECT ?a ?b WHERE {{
        VALUES (?a ?b) {{ (<{ns['item/id']}> <{ns['item/v']}>) }}
        <{ns.Item}> G:hasFeature <{ns['item/id']}> .
        <{ns.Item}> G:hasFeature <{ns['item/v']}>
    }}"""
    return ontology, query


def _oracle(ontology, query, distinct=True):
    return QueryEngine(ontology, use_planner=False, use_cache=False,
                       use_answer_cache=False).answer(query,
                                                      distinct=distinct)


class TestEqualValuesOfOtherTypes:
    """``1``, ``1.0`` and ``True`` are ``==``-equal and share one
    dictionary code; the projection must still return each row's own
    value, and the gateway's JSON must encode it."""

    @pytest.mark.parametrize("use_accel", [True, False])
    @pytest.mark.parametrize("distinct", [False, True])
    def test_mixed_column_equals_the_oracle(self, use_accel, distinct,
                                            monkeypatch):
        import json

        from repro.relational import accel
        if not use_accel:
            monkeypatch.setattr(accel, "numpy", None)
        elif not accel.available():  # pragma: no cover - numpy-less env
            pytest.skip("numpy not installed")
        rows = [{"id": i, "v": (1, 1.0, True)[i % 3]} for i in range(100)]
        ontology, query = _single_wrapper_ontology(rows)
        answer = QueryEngine(ontology).answer(query, distinct=distinct)
        assert answer == _oracle(ontology, query, distinct)
        assert answer.rows_json() == json.dumps(
            answer.rows, sort_keys=True).encode("utf-8")


class TestFailingEstimate:
    def test_counted_once_per_plan_and_answer_unchanged(self):
        rows = [{"id": i, "v": i % 4} for i in range(20)]
        ontology, query = _single_wrapper_ontology(rows,
                                                   estimate_fails=True)
        engine = QueryEngine(ontology, use_answer_cache=False)
        scans = ScanCache()
        assert engine.answer(query, scan_cache=scans) == \
            _oracle(ontology, query)
        reasons = {"items_v1: RuntimeError": 1}
        assert scans.stats.unestimated == reasons
        assert scans.stats.snapshot()["unestimated"] == reasons
        engine.answer(query, scan_cache=scans)  # the plan is memoized
        assert scans.stats.unestimated == reasons
        # A bare plan (explain) does not fail on the probe either.
        assert "items_v1" in QueryEngine(ontology).plan(query).explain()
        assert "items_v1" in QueryEngine(ontology).explain(query)

    def test_one_count_per_plan_across_walks(self, evolved_scenario):
        ontology = evolved_scenario.ontology

        def estimate_rows():
            raise RuntimeError("estimate probe is down")

        evolved_scenario.wrappers["w3"].estimate_rows = estimate_rows
        engine = QueryEngine(ontology, use_answer_cache=False)
        scans = ScanCache()
        answer = engine.answer(EXEMPLARY_QUERY, scan_cache=scans)
        assert len(engine.rewrite(EXEMPLARY_QUERY).ucq.walks) == 2
        assert answer == _oracle(ontology, EXEMPLARY_QUERY)
        assert scans.stats.unestimated == {"w3: RuntimeError": 1}

    def test_plan_ucq_counts_a_raising_estimate(self):
        ontology, query = _single_wrapper_ontology(
            [{"id": i, "v": i} for i in range(5)], estimate_fails=True)
        ucq = QueryEngine(ontology).rewrite(query).ucq
        scans = ScanCache()
        plan = plan_ucq(ontology, ucq, caching_scans(ontology, scans))
        assert scans.stats.unestimated == {"items_v1: RuntimeError": 1}
        assert plan.execute(WrapperScanProvider(
            ontology.physical_wrapper)) == _oracle(ontology, query)
