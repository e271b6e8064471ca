"""The hash join's one match kernel against a nested-loop reference.

:class:`PhysicalHashJoin` maps both sides' keys into one code space —
build codes with the probe dictionary remapped onto them, build values
through the probe dictionary, or a dict numbering the raw keys — and
then runs one match function (the numpy CSR probe, or the pure-Python
bucket loop). Whatever the key shape and kernel, the join's
``(build rows, probe rows)`` must be exactly the nested loop's matches
in its order: probe-major, build rows ascending.

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
