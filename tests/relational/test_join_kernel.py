"""The hash join's one match kernel against a nested-loop reference,
and the sort-free numpy kernels against their comparison-sort twins.

:class:`PhysicalHashJoin` maps both sides' keys into one code space —
build codes with the probe dictionary remapped onto them when both key
columns encode, else a dict numbering the raw keys — and then runs one
match function (the numpy CSR probe, or the pure-Python bucket loop).
Whatever the key shape and kernel, the join's ``(build rows, probe
rows)`` must be exactly the nested loop's matches in its order:
probe-major, build rows ascending.

Keys come from a small domain with ``None``, strings and the three
values ``1``, ``1.0`` and ``True``, which compare (and hash) equal.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.relational import accel
from repro.relational.physical import (
    PhysicalHashJoin, PhysicalScan, RelationScanProvider,
)
from repro.relational.rows import Relation
from repro.relational.schema import RelationSchema

BUILD = RelationSchema.of("wb", ids=["B/k1"], non_ids=["B/k2"],
                          source="B")
PROBE = RelationSchema.of("wp", ids=["P/k1"], non_ids=["P/k2"],
                          source="P")

_keys = st.sampled_from([None, "a", "b", 1, 1.0, True, 2])
_rows = st.lists(st.tuples(_keys, _keys), max_size=9)


@pytest.fixture(params=["accel", "pure"])
def accel_mode(request, monkeypatch):
    if request.param == "pure":
        monkeypatch.setattr(accel, "numpy", None)
    elif not accel.available():  # pragma: no cover - numpy-less env
        pytest.skip("numpy unavailable")
    return request.param


def side(schema, rows, encode):
    """*rows* as a relation whose key columns dictionary-encode only
    when *encode* (a ``None`` memo entry marks a raw-value column)."""
    k1, k2 = schema.attribute_names
    relation = Relation(schema, [{k1: a, k2: b} for a, b in rows])
    if not encode:
        batch = relation.columnar()
        batch.install_encoding(0, None)
        batch.install_encoding(1, None)
    return relation


def nested_loop(build, probe, width):
    return [(i, j) for j, p in enumerate(probe)
            for i, b in enumerate(build) if b[:width] == p[:width]]


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("shape", ["both coded", "probe coded", "raw"])
@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(build=_rows, probe=_rows)
@example(build=[], probe=[(1, "a")])
@example(build=[(True, None)], probe=[])
@example(build=[(1, None), (1.0, None), ("a", 2)],
         probe=[(True, None), (None, None), (1, 2)])
def test_join_matches_nested_loop(accel_mode, width, shape, build,
                                  probe):
    provider = {
        "wb": side(BUILD, build, encode=shape == "both coded"),
        "wp": side(PROBE, probe, encode=shape != "raw"),
    }
    conditions = (("B/k1", "P/k1"), ("B/k2", "P/k2"))[:width]
    join = PhysicalHashJoin(PhysicalScan(BUILD, None, 2),
                            PhysicalScan(PROBE, None, 2), conditions)
    fused = join.execute_fused(RelationScanProvider(provider))
    if len(fused):
        build_rows, probe_rows = fused.indices
        pairs = list(zip(map(int, build_rows), map(int, probe_rows)))
    else:
        pairs = []
    assert pairs == nested_loop(build, probe, width)


# ---------------------------------------------------------------------------
# The sort-free numpy kernels, held against their comparison-sort twins
# ---------------------------------------------------------------------------

needs_numpy = pytest.mark.skipif(not accel.available(),
                                 reason="numpy unavailable")


@needs_numpy
@pytest.mark.parametrize("top", [0, 1, 2000, (1 << 15) - 1, 1 << 15,
                                 (1 << 31) - 3, (1 << 40) + 5])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_radix_order_is_the_stable_argsort(top, data):
    np = accel.numpy
    codes = data.draw(st.lists(
        st.integers(0, top) | st.sampled_from([0, top]), max_size=60))
    expected = np.argsort(np.asarray(codes, dtype=np.int64),
                          kind="stable")
    got = accel.stable_order(codes, top)
    assert got.tolist() == expected.tolist()


@needs_numpy
def test_radix_order_of_nothing():
    assert accel.stable_order([], 5).tolist() == []
    assert accel.stable_order([], 1 << 40).tolist() == []


def zip_dedup(lanes):
    seen, keep = set(), []
    for i, key in enumerate(zip(*lanes)):
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return None if len(keep) == len(lanes[0]) else keep


@needs_numpy
@pytest.mark.parametrize("factor", [1, 4, 5, 40])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_dense_and_unique_dedup_agree(factor, data):
    # Packed spans on both sides of DENSE_SPAN_FACTOR × rows; each
    # input runs through the dense table, through np.unique and
    # through whichever the span picks.
    rows = data.draw(st.integers(1, 40))
    width = data.draw(st.integers(1, 3))
    span = max(1, round((factor * rows) ** (1 / width)))
    lanes = [data.draw(st.lists(st.integers(0, span - 1),
                                min_size=rows, max_size=rows))
             for _ in range(width)]
    expected = zip_dedup(lanes)
    keeps = []
    for dense_factor in (0, 1 << 30, accel.DENSE_SPAN_FACTOR):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(accel, "DENSE_SPAN_FACTOR", dense_factor)
            keeps.append(accel.first_occurrence_keep(lanes))
    assert keeps == [expected] * 3


@settings(derandomize=True, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=st.lists(st.tuples(st.booleans(),
                                st.lists(_keys, max_size=6)),
                      max_size=25))
def test_remap_memo_serves_only_its_own_target(accel_mode, steps):
    # Build encodings are created and dropped while one probe encoding
    # keeps translating onto them; a dropped target's memory may be
    # reused by a newer one, and its table must never be served.
    from repro.relational.columnar import encode_values

    probe = encode_values([None, "a", "b", 1, 2, "z"])
    live = []
    for keep, values in steps:
        target = encode_values(values)
        for other in (target, *live):
            table = probe.remap_onto(other)
            assert [int(code) for code in table] == \
                [other.index.get(value, -1) for value in probe.values]
        if keep:
            live = [target, *live][:3]
        del target
