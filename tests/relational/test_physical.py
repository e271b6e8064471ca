"""Unit tests for the physical execution substrate (scan cache,
providers, operators)."""

import threading

import pytest

from repro.errors import SchemaError
from repro.relational.physical import (
    CachingScanProvider, PhysicalHashJoin, PhysicalProject, PhysicalScan,
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


BOUND = object()  # the object a test scan reads


class TestScanCache:
    def key(self, wrapper="w", version=0, columns=None, bound=BOUND):
        return ScanKey(wrapper, bound, version, columns)

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
        assert cache.stats.version_evictions == 4
        assert cache.stats.rebind_evictions == 0
        # Other wrappers' entries are untouched by an eviction sweep.
        cache.get_or_fetch(self.key(wrapper="other"),
                           lambda: rel("o", ["a"], [], []))
        cache.get_or_fetch(self.key(version=6),
                           lambda: rel("w", ["a"], [], []))
        assert len(cache) == 2

    def test_rebind_misses_and_evicts_the_old_object(self):
        """Same name, same data_version, another object: a snapshot
        restore, a journal replay or a re-registration bound a new
        wrapper, so the old object's rows must not be served."""
        cache = ScanCache()
        old, new = object(), object()
        first = cache.get_or_fetch(self.key(bound=old),
                                   lambda: rel("w", ["a"], [], [{"a": 1}]))
        cache.get_or_fetch(self.key(bound=old, columns=frozenset({"a"})),
                           lambda: rel("w", ["a"], [], [{"a": 1}]))
        cache.get_or_fetch(self.key(wrapper="other", bound=old),
                           lambda: rel("o", ["a"], [], []))
        second = cache.get_or_fetch(self.key(bound=new),
                                    lambda: rel("w", ["a"], [], [{"a": 2}]))
        assert second is not first
        assert [r["a"] for r in second] == [2]
        assert cache.stats.misses == 4 and cache.stats.hits == 0
        # Both of the old object's scans of "w" are gone; "other" stays.
        assert len(cache) == 2
        assert cache.stats.rebind_evictions == 2
        assert cache.stats.version_evictions == 0
        assert cache.stats.invalidations == 0
        assert cache.get_or_fetch(self.key(bound=new), lambda: None) \
            is second

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

    def test_rebinds_under_threads_never_mix_objects(self):
        """Threads scanning one name while the bound object flips
        between three: every scan returns rows of the object it asked
        for, and the counters add up."""
        import random
        import sys
        cache = ScanCache()
        objects = [object() for _ in range(3)]
        mixed = []
        done = []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(300):
                tag = rng.randrange(3)
                out = cache.get_or_fetch(
                    self.key(bound=objects[tag]),
                    lambda tag=tag: rel("w", ["a"], [], [{"a": tag}]))
                if out.rows != [{"a": tag}]:
                    mixed.append((tag, out.rows))
            done.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == list(range(8))
        assert mixed == []
        stats = cache.stats
        assert stats.hits + stats.misses == 8 * 300
        assert len(cache) <= 1
        assert stats.version_evictions == 0


class TestRelationScanProvider:
    def test_full_scan_passthrough(self, provider):
        scans = RelationScanProvider(provider)
        assert scans.scan("w1") is provider["w1"]

    def test_column_subset(self, provider):
        scans = RelationScanProvider(provider)
        out = scans.scan("w1", columns=["D1/id", "D1/b"])
        assert set(out.schema.attribute_names) == {"D1/id", "D1/b"}
        assert out.rows[0] == {"D1/id": 1, "D1/b": 100}

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
        out = scans.scan("w1", columns=["D1/id", "D1/a"])
        assert out.rows == [{"D1/id": 1, "D1/a": 10},
                            {"D1/id": 2, "D1/a": 20}]

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
            def fetch_rows(self, columns=None):
                calls.append(1)
                return super().fetch_rows(columns)

        wrapper = Counting("w1", "D1", ["id"], [], [{"id": 1}])
        scans = CachingScanProvider(
            WrapperScanProvider({"w1": wrapper}.__getitem__), ScanCache())
        scans.scan("w1")
        scans.scan("w1")
        assert len(calls) == 1

    def test_rebound_wrapper_keys_out_its_predecessor(self):
        bound = {"w1": StaticWrapper("w1", "D1", ["id"], [], [{"id": 1}])}
        scans = CachingScanProvider(WrapperScanProvider(bound.__getitem__),
                                    ScanCache())
        assert scans.scan("w1").rows == [{"D1/id": 1}]
        # Same name, same data_version 0, another object.
        bound["w1"] = StaticWrapper("w1", "D1", ["id"], [], [{"id": 7}])
        assert scans.data_version("w1") == 0
        assert scans.scan("w1").rows == [{"D1/id": 7}]
        assert scans.cache.stats.rebind_evictions == 1

    def test_explicit_providers_never_share_rows(self, provider):
        cache = ScanCache()
        first = CachingScanProvider(RelationScanProvider(provider), cache)
        other = {"w1": rel("w1", ["D1/id"], [], [{"D1/id": 4}],
                           source="D1")}
        second = CachingScanProvider(RelationScanProvider(other), cache)
        assert len(first.scan("w1")) == 3
        assert second.scan("w1").rows == [{"D1/id": 4}]
        assert cache.stats.hits == 0


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

    def test_empty_build_skips_probe(self, provider):
        provider = dict(provider)
        provider["w2"] = rel("w2", ["D2/id"], ["D2/c"], [], source="D2")
        seen = []

        class Spy(RelationScanProvider):
            def scan(self, name, columns=None):
                seen.append(name)
                return super().scan(name, columns)

        join = PhysicalHashJoin(
            build=self.scan(provider, "w2"),
            probe=self.scan(provider, "w1"),
            conditions=(("D2/id", "D1/id"),))
        out = PhysicalProject(join, {"id": "D1/id"}).execute_encoded(
            Spy(provider))
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
            # the join needs hashable keys; the scans themselves fetch
            # the unhashable rows without complaint
            PhysicalProject(join, {"id": "D1/id"}).execute_encoded(
                RelationScanProvider(provider))

    def test_union_distinct_single_pass(self, provider):
        branch = PhysicalProject(self.scan(provider, "w1", ["D1/id"]),
                                 {"id": "D1/id"})
        union = PhysicalUnion((branch, branch), distinct=True)
        out = union.execute_encoded(RelationScanProvider(provider))
        assert len(out) == 3  # duplicates collapsed
        union_all = PhysicalUnion((branch, branch), distinct=False)
        assert len(union_all.execute_encoded(
            RelationScanProvider(provider))) == 6

    def test_union_branches_must_be_projections(self, provider):
        with pytest.raises(SchemaError, match="projections"):
            PhysicalUnion((self.scan(provider, "w1"),))

    def test_union_incompatible_schemas_rejected(self, provider):
        with pytest.raises(SchemaError, match="incompatible"):
            PhysicalUnion((self.scan(provider, "w1"),
                           self.scan(provider, "w2")))

    def test_explain_lines_mention_pushdown(self, provider):
        scan = self.scan(provider, "w1", ["D1/id"])
        text = "\n".join(scan.explain_lines())
        assert "cols=1/3" in text and "pushed" in text
