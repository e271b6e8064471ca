"""Unit tests for the physical execution substrate (scan cache,
providers, operators)."""

import threading

import pytest

from repro.errors import SchemaError
from repro.relational.physical import (
    CachingScanProvider, IdFilter, PhysicalHashJoin, PhysicalScan,
    PhysicalUnion, RelationScanProvider, ScanCache, ScanKey,
    WrapperScanProvider, as_scan_provider,
)
from repro.relational.rows import Relation
from repro.relational.schema import RelationSchema
from repro.wrappers.base import StaticWrapper


def rel(name, ids, non_ids, rows, source=None):
    return Relation(RelationSchema.of(name, ids=ids, non_ids=non_ids,
                                      source=source), rows)


@pytest.fixture()
def provider():
    return {
        "w1": rel("w1", ["D1/id"], ["D1/a", "D1/b"], [
            {"D1/id": 1, "D1/a": 10, "D1/b": 100},
            {"D1/id": 2, "D1/a": 20, "D1/b": 200},
            {"D1/id": 3, "D1/a": 30, "D1/b": 300},
        ], source="D1"),
        "w2": rel("w2", ["D2/id"], ["D2/c"], [
            {"D2/id": 2, "D2/c": "x"},
            {"D2/id": 3, "D2/c": "y"},
            {"D2/id": 9, "D2/c": "z"},
        ], source="D2"),
    }


class TestIdFilter:
    def test_coerces_values_to_frozenset(self):
        f = IdFilter("a", [1, 2, 2])
        assert f.values == frozenset({1, 2})
        assert len(f) == 2

    def test_matches(self):
        f = IdFilter("a", {1})
        assert f.matches({"a": 1})
        assert not f.matches({"a": 2})
        assert not f.matches({})

    def test_notation_counts_ids(self):
        assert "2 ids" in IdFilter("a", {1, 2}).notation()


class TestScanCache:
    def key(self, wrapper="w", version=0, columns=None, id_filter=None):
        return ScanKey(wrapper, version, columns, id_filter)

    def test_miss_then_hit(self):
        cache = ScanCache()
        calls = []

        def fetch():
            calls.append(1)
            return rel("w", ["a"], [], [{"a": 1}])

        first = cache.get_or_fetch(self.key(), fetch)
        second = cache.get_or_fetch(self.key(), fetch)
        assert first is second
        assert len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert len(cache) == 1

    def test_distinct_keys_fetch_separately(self):
        cache = ScanCache()
        cache.get_or_fetch(self.key(columns=frozenset({"a"})),
                           lambda: rel("w", ["a"], [], []))
        cache.get_or_fetch(self.key(columns=None),
                           lambda: rel("w", ["a"], [], []))
        assert cache.stats.misses == 2

    def test_failed_fetch_not_cached(self):
        cache = ScanCache()

        def boom():
            raise RuntimeError("source down")

        with pytest.raises(RuntimeError):
            cache.get_or_fetch(self.key(), boom)
        # next call retries (and can succeed)
        out = cache.get_or_fetch(self.key(),
                                 lambda: rel("w", ["a"], [], []))
        assert len(out) == 0
        assert cache.stats.misses == 2

    def test_clear(self):
        cache = ScanCache()
        cache.get_or_fetch(self.key(), lambda: rel("w", ["a"], [], []))
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_superseded_data_versions_evicted(self):
        cache = ScanCache()
        for version in range(5):
            cache.get_or_fetch(self.key(version=version),
                               lambda: rel("w", ["a"], [], []))
        # Only the newest generation survives; no per-write leak.
        assert len(cache) == 1
        assert cache.stats.evictions == 4
        # Other wrappers' entries are untouched by an eviction sweep.
        cache.get_or_fetch(self.key(wrapper="other"),
                           lambda: rel("o", ["a"], [], []))
        cache.get_or_fetch(self.key(version=6),
                           lambda: rel("w", ["a"], [], []))
        assert len(cache) == 2

    def test_validate_clears_on_fingerprint_change(self):
        from repro.core.ontology import OntologyFingerprint
        cache = ScanCache()
        cache.validate(OntologyFingerprint(epoch=1, structure=42))
        cache.get_or_fetch(self.key(), lambda: rel("w", ["a"], [], []))
        cache.validate(OntologyFingerprint(epoch=1, structure=42))
        assert len(cache) == 1  # unchanged fingerprint keeps entries
        cache.validate(OntologyFingerprint(epoch=2, structure=43))
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_single_flight_under_threads(self):
        cache = ScanCache()
        fetches = []
        gate = threading.Event()

        def fetch():
            fetches.append(1)
            gate.wait(1.0)
            return rel("w", ["a"], [], [{"a": 1}])

        results = []

        def worker():
            results.append(cache.get_or_fetch(self.key(), fetch))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert len(fetches) == 1
        assert all(r is results[0] for r in results)
        assert cache.stats.hits == 7


class TestRelationScanProvider:
    def test_full_scan_passthrough(self, provider):
        scans = RelationScanProvider(provider)
        assert scans.scan("w1") is provider["w1"]

    def test_column_subset(self, provider):
        scans = RelationScanProvider(provider)
        out = scans.scan("w1", columns=["D1/id", "D1/b"])
        assert set(out.schema.attribute_names) == {"D1/id", "D1/b"}
        assert out.rows[0] == {"D1/id": 1, "D1/b": 100}

    def test_id_filter(self, provider):
        scans = RelationScanProvider(provider)
        out = scans.scan("w1", id_filter=IdFilter("D1/id", {2, 3}))
        assert sorted(r["D1/id"] for r in out) == [2, 3]

    def test_missing_column_rejected(self, provider):
        scans = RelationScanProvider(provider)
        with pytest.raises(SchemaError, match="missing"):
            scans.scan("w1", columns=["D1/nope"])

    def test_unknown_relation_rejected(self, provider):
        with pytest.raises(SchemaError, match="no data"):
            RelationScanProvider(provider).scan("missing")

    def test_estimate_from_mapping(self, provider):
        scans = RelationScanProvider(provider)
        assert scans.estimate("w1") == 3
        assert scans.estimate("missing") is None
        assert RelationScanProvider(lambda n: provider[n]) \
            .estimate("w1") is None


class TestWrapperScanProvider:
    def wrapper(self):
        return StaticWrapper("w1", "D1", ["id"], ["a", "b"], [
            {"id": 1, "a": 10, "b": 100},
            {"id": 2, "a": 20, "b": 200},
        ])

    def test_scan_translates_qualified_names(self):
        scans = WrapperScanProvider({"w1": self.wrapper()}.__getitem__)
        out = scans.scan("w1", columns=["D1/id", "D1/a"],
                         id_filter=IdFilter("D1/id", {2}))
        assert out.rows == [{"D1/id": 2, "D1/a": 20}]

    def test_unknown_column_rejected(self):
        scans = WrapperScanProvider({"w1": self.wrapper()}.__getitem__)
        with pytest.raises(SchemaError, match="missing attribute"):
            scans.scan("w1", columns=["D1/ghost"])

    def test_estimate_and_data_version(self):
        wrapper = self.wrapper()
        scans = WrapperScanProvider({"w1": wrapper}.__getitem__)
        assert scans.estimate("w1") == 2
        before = scans.data_version("w1")
        wrapper.replace_rows([{"id": 5, "a": 1, "b": 2}])
        assert scans.data_version("w1") != before


class TestCachingScanProvider:
    def test_data_version_keys_out_stale_scans(self):
        wrapper = StaticWrapper("w1", "D1", ["id"], [], [{"id": 1}])
        inner = WrapperScanProvider({"w1": wrapper}.__getitem__)
        scans = CachingScanProvider(inner, ScanCache())
        assert scans.scan("w1").rows == [{"D1/id": 1}]
        wrapper.replace_rows([{"id": 7}])
        assert scans.scan("w1").rows == [{"D1/id": 7}]

    def test_shared_fetches(self):
        calls = []

        class Counting(StaticWrapper):
            def fetch_rows(self, columns=None, id_filter=None):
                calls.append(1)
                return super().fetch_rows(columns, id_filter)

        wrapper = Counting("w1", "D1", ["id"], [], [{"id": 1}])
        scans = CachingScanProvider(
            WrapperScanProvider({"w1": wrapper}.__getitem__), ScanCache())
        scans.scan("w1")
        scans.scan("w1")
        assert len(calls) == 1


class TestAsScanProvider:
    def test_passthrough_and_coercion(self, provider):
        scans = RelationScanProvider(provider)
        assert as_scan_provider(scans) is scans
        assert isinstance(as_scan_provider(provider),
                          RelationScanProvider)
        assert isinstance(
            as_scan_provider(None, lambda n: None), WrapperScanProvider)

    def test_none_without_resolver_rejected(self):
        with pytest.raises(SchemaError):
            as_scan_provider(None)


class TestPhysicalOperators:
    def scan(self, provider, name, columns=None):
        schema = provider[name].schema
        if columns is not None:
            schema = RelationSchema(
                schema.name,
                tuple(a for a in schema.attributes if a.name in columns),
                schema.source)
        return PhysicalScan(schema,
                            tuple(columns) if columns else None,
                            len(provider[name].schema.attributes))

    def test_hash_join_pushes_build_keys(self, provider):
        fetched = {}

        class Spy(RelationScanProvider):
            def scan(self, name, columns=None, id_filter=None):
                fetched[name] = id_filter
                return super().scan(name, columns, id_filter)

        scans = Spy(provider)
        join = PhysicalHashJoin(
            build=self.scan(provider, "w2"),
            probe=self.scan(provider, "w1"),
            conditions=(("D2/id", "D1/id"),))
        out = join.execute_encoded(scans).to_relation()
        assert fetched["w1"] is not None  # semi-join filter arrived
        assert fetched["w1"].values == frozenset({2, 3, 9})
        assert sorted(r["D1/id"] for r in out) == [2, 3]

    def test_empty_build_skips_probe(self, provider):
        provider = dict(provider)
        provider["w2"] = rel("w2", ["D2/id"], ["D2/c"], [], source="D2")
        seen = []

        class Spy(RelationScanProvider):
            def scan(self, name, columns=None, id_filter=None):
                seen.append(name)
                return super().scan(name, columns, id_filter)

        join = PhysicalHashJoin(
            build=self.scan(provider, "w2"),
            probe=self.scan(provider, "w1"),
            conditions=(("D2/id", "D1/id"),))
        out = join.execute_encoded(Spy(provider))
        assert len(out) == 0
        assert seen == ["w2"]  # probe never fetched

    def test_unhashable_build_keys_disable_pushdown(self):
        provider = {
            "w1": rel("w1", ["D1/id"], [], [{"D1/id": [1]}],
                      source="D1"),
            "w2": rel("w2", ["D2/id"], [], [{"D2/id": [1]}],
                      source="D2"),
        }
        join = PhysicalHashJoin(
            build=self.scan(provider, "w1"),
            probe=self.scan(provider, "w2"),
            conditions=(("D1/id", "D2/id"),))
        with pytest.raises(TypeError):
            # the join itself still needs hashable keys; pushdown just
            # must not be the thing that raises first on the scan side
            join.execute_encoded(RelationScanProvider(provider))

    def test_union_distinct_single_pass(self, provider):
        branch = self.scan(provider, "w1", ["D1/id"])
        union = PhysicalUnion((branch, branch), distinct=True)
        out = union.execute_encoded(RelationScanProvider(provider))
        assert len(out) == 3  # duplicates collapsed
        union_all = PhysicalUnion((branch, branch), distinct=False)
        assert len(union_all.execute_encoded(
            RelationScanProvider(provider))) == 6

    def test_union_incompatible_schemas_rejected(self, provider):
        with pytest.raises(SchemaError, match="incompatible"):
            PhysicalUnion((self.scan(provider, "w1"),
                           self.scan(provider, "w2")))

    def test_explain_lines_mention_pushdown(self, provider):
        scan = self.scan(provider, "w1", ["D1/id"])
        text = "\n".join(scan.explain_lines())
        assert "cols=1/3" in text and "pushed" in text
