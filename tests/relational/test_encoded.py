"""Encoded-tier tests: dictionary encoding, int-coded joins, fused
pipelines and the optional numpy kernels.

Every engine-level test runs twice — once with the numpy kernels live
and once with :mod:`repro.relational.accel` pinned off — so the pure
Python fallback and the accelerated path are both exercised against
the same expectations.
"""

import random

import pytest

from repro.relational import accel
from repro.relational.algebra import Join, Scan
from repro.relational.columnar import (
    ColumnBatch, EncodedColumn, encode_values, first_occurrences,
)
from repro.relational.physical import (
    CachingScanProvider, PhysicalHashJoin, PhysicalProject, PhysicalScan,
    RelationScanProvider, ScanCache,
)
from repro.relational.rows import Relation
from repro.relational.schema import RelationSchema


def rel(name, ids, non_ids, rows, source=None):
    return Relation(RelationSchema.of(name, ids=ids, non_ids=non_ids,
                                      source=source), rows)


def scan_of(provider, name):
    schema = provider[name].schema
    return PhysicalScan(schema, None, len(schema.attributes))


@pytest.fixture(params=["accel", "pure"])
def accel_mode(request, monkeypatch):
    """Run the test body on both kernel paths."""
    if request.param == "pure":
        monkeypatch.setattr(accel, "numpy", None)
    elif not accel.available():  # pragma: no cover - numpy-less env
        pytest.skip("numpy unavailable")
    return request.param


# ---------------------------------------------------------------------------
# Dictionary encoding
# ---------------------------------------------------------------------------


class TestEncodeValues:
    def test_codes_dense_and_first_occurrence(self):
        enc = encode_values(["b", "a", "b", "c", "a"])
        assert enc.codes == [0, 1, 0, 2, 1]
        assert enc.values == ["b", "a", "c"]
        assert enc.index == {"b": 0, "a": 1, "c": 2}
        assert enc.cardinality == 3
        assert len(enc) == 5

    def test_equal_values_share_a_code(self):
        enc = encode_values([1, 1.0, 2])
        assert enc.codes == [0, 0, 1]

    def test_none_and_mixed_types_encode(self):
        enc = encode_values([None, "a", 7, None, "a"])
        assert enc.codes == [0, 1, 2, 0, 1]
        assert enc.values == [None, "a", 7]

    def test_unhashable_value_falls_back(self):
        assert encode_values([1, [2], 3]) is None

    def test_unique_column_encodes_dense(self):
        # However unique and long, a hashable column encodes: a unique
        # ID column gets the codes 0 .. n - 1 in row order.
        unique = [f"id-{i}" for i in range(500)]
        enc = encode_values(unique)
        assert enc.codes == list(range(500))
        assert enc.values == unique
        # And a long duplicate-heavy column keeps a small dictionary.
        heavy = [f"v-{i % 4}" for i in range(500)]
        assert encode_values(heavy).cardinality == 4

    def test_remap_onto_bridges_dictionaries(self):
        left = encode_values(["a", "b", "c", "a"])
        right = encode_values(["c", "x", "a"])
        translate = left.remap_onto(right)
        # left codes: a=0 b=1 c=2 → right codes: a=2, b absent, c=0
        assert [int(code) for code in translate] == [2, -1, 0]

    def test_select_applies_selection(self):
        enc = encode_values(["a", "b", "a", "c"])
        assert enc.select(None) is enc.codes
        assert enc.select([3, 0]) == [2, 0]


class TestEncodingMemo:
    def batch(self):
        schema = RelationSchema.of("w", ids=["a"], non_ids=["b"])
        return ColumnBatch(schema, [["x", "y", "x"], [1, 2, 1]])

    def test_encoded_at_memoizes(self):
        batch = self.batch()
        first = batch.encoded_at(0)
        assert first is batch.encoded_at(0)
        assert first is batch.encoded("a")

    def test_failures_are_memoized(self):
        schema = RelationSchema.of("w", ids=["a"], non_ids=[])
        batch = ColumnBatch(schema, [[["unhashable"]]])
        assert batch.encoded_at(0) is None
        key = id(batch.columns[0])
        assert key in batch._encodings  # not retried next call
        assert batch.encoded_at(0) is None

    def test_memo_shared_across_zero_copy_views(self):
        batch = self.batch()
        enc = batch.encoded_at(0)
        renamed = batch.rename({"out": "a"})
        assert renamed.encoded("out") is enc


class TestColumnAtDefensiveCopy:
    def test_mutating_the_copy_leaves_the_batch_intact(self):
        schema = RelationSchema.of("w", ids=["a"], non_ids=[])
        batch = ColumnBatch(schema, [[1, 2, 3]])
        taken = batch.column_at(0)
        taken.append(99)
        taken[0] = -1
        assert batch.column_at(0) == [1, 2, 3]
        assert batch.columns[0] == [1, 2, 3]

    def test_copy_with_selection(self):
        schema = RelationSchema.of("w", ids=["a"], non_ids=[])
        batch = ColumnBatch(schema, [[1, 2, 3]], selection=[2, 0])
        taken = batch.column_at(0)
        assert taken == [3, 1]
        taken[0] = -1
        assert batch.column_at(0) == [3, 1]


# ---------------------------------------------------------------------------
# Int-coded joins and fused pipelines (both kernel paths)
# ---------------------------------------------------------------------------


def join_provider(build_rows, probe_rows):
    provider = {
        "wb": rel("wb", ["B/id"], ["B/v"], build_rows, source="B"),
        "wp": rel("wp", ["P/id"], ["P/v"], probe_rows, source="P"),
    }
    join = PhysicalHashJoin(
        build=scan_of(provider, "wb"),
        probe=scan_of(provider, "wp"),
        conditions=(("B/id", "P/id"),))
    return provider, join


def project_all(node):
    """*node* under an identity projection: the operator that gathers
    a fused scan/join tree into a batch."""
    names = node.schema().attribute_names
    return PhysicalProject(node, {name: name for name in names})


def logical_of(join):
    """The logical-algebra twin of a physical join tree (the oracle)."""
    if isinstance(join, PhysicalScan):
        return Scan(join.relation_schema)
    return Join(logical_of(join.build), logical_of(join.probe),
                join.conditions)


class TestCodedJoins:
    def assert_encoded_matches_oracle(self, provider, join):
        expected = logical_of(join).evaluate(provider)
        got = project_all(join).execute_encoded(
            RelationScanProvider(provider))
        assert got.to_relation() == expected
        return expected

    def test_both_sides_encoded(self, accel_mode):
        rng = random.Random(7)
        build = [{"B/id": f"k{rng.randrange(10)}", "B/v": i}
                 for i in range(80)]
        probe = [{"P/id": f"k{rng.randrange(12)}", "P/v": i}
                 for i in range(120)]
        provider, join = join_provider(build, probe)
        # Both key columns are duplicate-heavy: both dictionaries build.
        assert encode_values([r["B/id"] for r in build]) is not None
        assert encode_values([r["P/id"] for r in probe]) is not None
        out = self.assert_encoded_matches_oracle(provider, join)
        assert len(out) > 0

    def test_unique_build_key_joins_on_codes(self, accel_mode):
        # A unique-ID build column encodes like its fanned-out probe
        # side, so the join runs on codes, and the probe's translation
        # onto the build dictionary is remembered for the next query.
        build = [{"B/id": f"k{i}", "B/v": i} for i in range(80)]
        probe = [{"P/id": f"k{i % 40}", "P/v": j}
                 for j in range(4) for i in range(80)]
        provider, join = join_provider(build, probe)
        scans = CachingScanProvider(RelationScanProvider(provider),
                                    ScanCache())
        expected = logical_of(join).evaluate(provider)
        remaps = []
        original = EncodedColumn.remap_onto

        def counted(enc, other):
            table = original(enc, other)
            remaps.append(table)
            return table

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(EncodedColumn, "remap_onto", counted)
            for _ in range(2):
                got = project_all(join).execute_encoded(scans)
                assert got.to_relation() == expected
        assert len(expected) == 40 * 8
        assert len(remaps) == 2 and remaps[0] is remaps[1]

    def test_generic_fallback_when_nothing_encodes(self, accel_mode):
        # A multi-condition join numbers its tuple keys with a dict:
        # no single dictionary covers them.
        build = [{"B/id": f"b{i % 20}", "B/k": i % 3, "B/v": i}
                 for i in range(80)]
        probe = [{"P/id": f"b{i % 30}", "P/k": i % 2, "P/v": i}
                 for i in range(80)]
        provider = {
            "wb": rel("wb", ["B/id", "B/k"], ["B/v"], build, source="B"),
            "wp": rel("wp", ["P/id", "P/k"], ["P/v"], probe, source="P"),
        }
        join = PhysicalHashJoin(
            build=scan_of(provider, "wb"),
            probe=scan_of(provider, "wp"),
            conditions=(("B/id", "P/id"), ("B/k", "P/k")))
        out = self.assert_encoded_matches_oracle(provider, join)
        assert len(out) == sum(
            b["B/id"] == p["P/id"] and b["B/k"] == p["P/k"]
            for b in build for p in probe) > 0

    def test_no_matches_yields_empty(self, accel_mode):
        rng = random.Random(3)
        build = [{"B/id": f"a{rng.randrange(8)}", "B/v": i}
                 for i in range(80)]
        probe = [{"P/id": f"z{rng.randrange(8)}", "P/v": i}
                 for i in range(80)]
        provider, join = join_provider(build, probe)
        out = self.assert_encoded_matches_oracle(provider, join)
        assert len(out) == 0

    def test_fusion_across_empty_intermediate(self, accel_mode):
        # hub ⋈ dead ⋈ tail: the first join produces zero rows; the
        # outer join must still compose the (empty) gather state and
        # resolve every attribute by name.
        rng = random.Random(11)
        provider = {
            "hub": rel("hub", ["H/id"], ["H/v"],
                       [{"H/id": f"k{rng.randrange(6)}", "H/v": i}
                        for i in range(80)], source="H"),
            "dead": rel("dead", ["D/id"], ["D/v"], [], source="D"),
            "tail": rel("tail", ["T/id"], ["T/v"],
                        [{"T/id": f"k{rng.randrange(6)}", "T/v": i}
                         for i in range(80)], source="T"),
        }
        inner = PhysicalHashJoin(
            build=scan_of(provider, "dead"),
            probe=scan_of(provider, "hub"),
            conditions=(("D/id", "H/id"),))
        outer = PhysicalHashJoin(
            build=inner,
            probe=scan_of(provider, "tail"),
            conditions=(("H/id", "T/id"),))
        scans = RelationScanProvider(provider)
        batch = project_all(outer).execute_encoded(scans)
        assert len(batch) == 0
        assert set(batch.schema.attribute_names) == {
            "D/id", "D/v", "H/id", "H/v", "T/id", "T/v"}
        assert logical_of(outer).evaluate(provider) == \
            batch.to_relation()


class TestEncodedDistinct:
    def encoded_batch(self, selection=None):
        schema = RelationSchema.of("w", ids=["a"], non_ids=["b"])
        batch = ColumnBatch(
            schema,
            [["x", "y", "x", "y", "x"], [1, 2, 1, 2, 2]],
            selection=selection)
        batch.encoded_at(0)
        batch.encoded_at(1)
        return batch

    def test_fully_encoded_dedup(self, accel_mode):
        out = self.encoded_batch().distinct()
        assert sorted(out.to_rows(), key=str) == sorted(
            [{"a": "x", "b": 1}, {"a": "y", "b": 2},
             {"a": "x", "b": 2}], key=str)

    def test_dedup_under_selection(self, accel_mode):
        out = self.encoded_batch(selection=[4, 2, 0]).distinct()
        assert out.to_rows() == [{"a": "x", "b": 2}, {"a": "x", "b": 1}]

    def test_all_unique_keeps_every_row(self, accel_mode):
        schema = RelationSchema.of("w", ids=["a"], non_ids=[])
        batch = ColumnBatch(schema, [["p", "q", "r"]])
        batch.encoded_at(0)
        out = batch.distinct()
        assert out.to_rows() == [{"a": "p"}, {"a": "q"}, {"a": "r"}]

    def test_mixed_encoded_and_raw_lanes(self, accel_mode):
        schema = RelationSchema.of("w", ids=["a"], non_ids=["b"])
        batch = ColumnBatch(schema,
                            [["x", "y", "x"], [1, 2, 1]])
        batch.encoded_at(0)  # only one lane coded: zip fallback
        out = batch.distinct()
        assert sorted(out.to_rows(), key=str) == sorted(
            [{"a": "x", "b": 1}, {"a": "y", "b": 2}], key=str)

    def test_zero_column_batch(self, accel_mode):
        schema = RelationSchema("empty", (), None)
        batch = ColumnBatch(schema, (), _length=5)
        assert len(batch.distinct()) == 1

    def test_distinct_keep_indexes_live_rows(self, accel_mode):
        schema = RelationSchema.of("w", ids=["a"], non_ids=["b"])
        columns = [["x", "y", "x", "y", "x"], [1, 2, 1, 2, 2]]
        # live rows: (x,2) (x,1) (x,1) (y,2) → keep positions 0, 1, 3
        batch = ColumnBatch(schema, columns, selection=[4, 2, 0, 1])
        keep = batch.distinct_keep()
        assert keep == [0, 1, 3]
        assert batch.distinct_keep() is keep  # memoized on the batch
        assert ColumnBatch(schema, columns,
                           selection=[3, 4]).distinct_keep() is None

    def test_dedup_scan_pays_once_per_fetch(self, accel_mode,
                                            monkeypatch):
        relation = rel("w", ["a"], ["b"], [
            {"a": "x", "b": 1}, {"a": "x", "b": 1}, {"a": "y", "b": 2}])
        scans = CachingScanProvider(
            RelationScanProvider({"w": relation}), ScanCache())
        scan = PhysicalScan(relation.schema, None, 2, dedup=True)
        calls = []
        original = ColumnBatch._first_occurrence_keep

        def counted(batch, encodings):
            calls.append(batch)
            return original(batch, encodings)

        monkeypatch.setattr(ColumnBatch, "_first_occurrence_keep",
                            counted)
        for _ in range(3):
            out = project_all(scan).execute_encoded(scans)
            assert out.to_rows() == [{"a": "x", "b": 1},
                                     {"a": "y", "b": 2}]
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# The numpy kernels themselves (parity against the pure loops)
# ---------------------------------------------------------------------------


needs_numpy = pytest.mark.skipif(not accel.available(),
                                 reason="numpy unavailable")


def reference_probe(build_codes, probe_codes, cardinality):
    """The pure-Python bucket loop csr_probe must reproduce exactly."""
    buckets = [None] * cardinality
    for i, code in enumerate(build_codes):
        if code < 0:
            continue
        if buckets[code] is None:
            buckets[code] = [i]
        else:
            buckets[code].append(i)
    build_sel, probe_sel = [], []
    for j, code in enumerate(probe_codes):
        if code < 0:
            continue
        bucket = buckets[code]
        if bucket is None:
            continue
        build_sel += bucket
        probe_sel += [j] * len(bucket)
    return build_sel, probe_sel


@needs_numpy
class TestCsrProbe:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_bucket_loop_exactly(self, seed):
        rng = random.Random(seed)
        cardinality = rng.randint(1, 12)
        build = [rng.randint(-1, cardinality - 1)
                 for _ in range(rng.randint(0, 60))]
        probe = [rng.randint(-1, cardinality - 1)
                 for _ in range(rng.randint(0, 60))]
        expected = reference_probe(build, probe, cardinality)
        got = accel.csr_probe(build, probe, cardinality)
        if not expected[0]:
            assert got is None
        else:
            assert got[0].tolist() == expected[0]
            assert got[1].tolist() == expected[1]

    def test_no_matches_returns_none(self):
        assert accel.csr_probe([0, 1], [2, 2], 3) is None
        assert accel.csr_probe([-1, -1], [0, 1], 2) is None
        assert accel.csr_probe([0], [-1], 1) is None

    def test_single_code_space(self):
        got = accel.csr_probe([0, 0], [0], 1)
        assert got[0].tolist() == [0, 1]
        assert got[1].tolist() == [0, 0]


@needs_numpy
class TestFirstOccurrenceKeep:
    def reference(self, lanes):
        seen, keep = set(), []
        for i, key in enumerate(zip(*lanes)):
            if key not in seen:
                seen.add(key)
                keep.append(i)
        return None if len(keep) == len(lanes[0]) else keep

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_zip_dedup(self, seed):
        rng = random.Random(100 + seed)
        rows = rng.randint(1, 50)
        lanes = [[rng.randint(0, 5) for _ in range(rows)]
                 for _ in range(rng.randint(1, 4))]
        assert accel.first_occurrence_keep(lanes) \
            == self.reference(lanes)

    def test_all_unique_returns_none(self):
        assert accel.first_occurrence_keep([[3, 1, 2]]) is None
        assert accel.first_occurrence_keep([[], []]) is None

    def test_radix_overflow_uses_rowwise_dedup(self):
        # Lane maxima so large the packed radix product would overflow
        # int64 — the kernel must switch to axis=0 dedup, same answer.
        big = 1 << 40
        lanes = [[big, 0, big, big], [big, big, 0, big]]
        assert accel.first_occurrence_keep(lanes) == [0, 1, 2]

    def test_engine_helper_dispatches_to_kernel(self):
        # first_occurrences takes the kernel only when every lane is
        # already an int64 vector (i.e. came off the accelerated path).
        arrays = [accel.index_array([0, 1, 0, 1]),
                  accel.index_array([2, 3, 2, 3])]
        assert first_occurrences(arrays) == [0, 1]
        # Mixed/plain lanes use the zip path with identical results.
        assert first_occurrences([[0, 1, 0, 1], [2, 3, 2, 3]]) \
            == [0, 1]
