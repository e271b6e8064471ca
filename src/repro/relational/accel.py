"""Optional numpy kernels for the encoded execution tier.

The encoded tier (``physical.FusedBatch`` and the int-coded hash join)
runs on plain Python lists by design — the reproduction carries no
hard third-party dependency. When numpy happens to be importable,
though, its int64 vector ops implement the exact same kernels one to
two orders of magnitude faster: gather (``np.take``), code
translation (fancy indexing), CSR-shaped join probes
(``bincount``/radix grouping/``repeat``) and first-occurrence dedup
over packed code lanes.

Neither hot kernel runs a comparison sort on a typical batch. The join
probe groups build rows by code with a stable **radix order**
(:func:`stable_order`): codes lie in ``0 .. cardinality``, so they sort
as 15-bit digits, which numpy orders with a radix sort instead of
timsort. The dedup finds each packed key's first row in a **dense
table** over the key span (``np.minimum.at``) when that span is at
most :data:`DENSE_SPAN_FACTOR` × the rows; only sparser keys fall back
to ``np.unique``. Both choices are made from the input, not from an
option.

This module is that seam. It exposes the *accelerated* kernels plus
:func:`available`; every call site keeps its pure-Python fallback and
consults ``available()`` first, so the engine is byte-for-byte
deterministic with and without numpy — the kernels were written to
preserve the fallback's output ordering exactly (probe-major match
order, ascending build rows within a bucket, first-occurrence keep
lists in row order). Tests pin both paths by monkeypatching
:data:`numpy` to ``None``.

The import is resolved dynamically (``importlib``) so type checking
of this repository never depends on numpy being installed.
"""

from __future__ import annotations

import importlib
from typing import Any, Sequence

__all__ = ["available", "csr_probe", "first_occurrence_keep",
           "index_array", "is_array", "numpy", "stable_order", "take",
           "translate_codes"]

try:  # pragma: no cover - exercised implicitly by every accel test
    numpy: Any = importlib.import_module("numpy")
except ImportError:  # pragma: no cover - numpy-less environments
    numpy = None

#: dtype for every index/code vector; cardinalities are bounded by
#: relation sizes, so packed multi-lane keys stay far below 2**63
#: (the packer still guards the radix product).
_PACK_LIMIT = 1 << 62

#: bits per radix digit: a digit fits int16, whose stable argsort numpy
#: runs as a radix sort (wider ints get timsort)
_DIGIT_BITS = 15

#: the dedup uses a dense first-row table when the packed key span is
#: at most this many times the row count; sparser keys use np.unique
DENSE_SPAN_FACTOR = 4


def available() -> bool:
    """True when the numpy kernels can be used (patchable in tests)."""
    return numpy is not None


def is_array(value: object) -> bool:
    """True when *value* is a numpy array (an accelerated lane)."""
    return numpy is not None and isinstance(value, numpy.ndarray)


def index_array(values: Sequence[int]) -> Any:
    """*values* as an int64 vector (no copy when already one)."""
    return numpy.asarray(values, dtype=numpy.int64)


def take(source: Any, picks: Any) -> Any:
    """``[source[i] for i in picks]`` as an int64 vector."""
    return numpy.take(index_array(source), index_array(picks))


def translate_codes(table: Sequence[int], codes: Any) -> Any:
    """Map *codes* through a dense translation *table* (``-1`` rows
    pass through as ``-1`` misses)."""
    return index_array(table)[index_array(codes)]


def stable_order(codes: Any, top: int) -> Any:
    """``np.argsort(codes, kind="stable")`` for int codes in
    ``0 .. top``, without a comparison sort.

    Below ``2**15`` the codes narrow to int16, which numpy's stable
    argsort orders with one radix pass. Wider codes sort as
    least-significant-digit passes over 15-bit digits; each pass is
    stable, so the composed order is too.
    """
    np = numpy
    codes = index_array(codes)
    if top < 1 << _DIGIT_BITS:
        return np.argsort(codes.astype(np.int16), kind="stable")
    mask = (1 << _DIGIT_BITS) - 1
    order = None
    for shift in range(0, top.bit_length(), _DIGIT_BITS):
        digits = ((codes >> shift) & mask).astype(np.int16)
        if order is None:
            order = np.argsort(digits, kind="stable")
        else:
            order = order[np.argsort(digits[order], kind="stable")]
    return order


def csr_probe(build_codes: Any, probe_codes: Any,
              cardinality: int) -> "tuple[Any, Any] | None":
    """Vectorized hash-join probe over a shared code space.

    *build_codes* and *probe_codes* are int64 lanes in the same code
    space (``-1`` = no match possible for that row). Returns
    ``(build_sel, probe_sel)`` match vectors ordered exactly like the
    pure-Python bucket loop: probe-major, build rows ascending within
    each bucket. ``None`` when there are no matches.
    """
    np = numpy
    build = index_array(build_codes)
    probe = index_array(probe_codes)
    valid = build >= 0
    if not valid.all():
        build = np.where(valid, build, cardinality)
        counts = np.bincount(build, minlength=cardinality + 1)
        counts = counts[:cardinality]
    else:
        counts = np.bincount(build, minlength=cardinality)
    # Stable grouping of build rows by code: rows ascending within
    # each code's segment, misses (mapped to `cardinality`) at the
    # tail, past every real segment.
    order = stable_order(build, cardinality)
    offsets = np.zeros(cardinality, dtype=np.int64)
    if cardinality > 1:
        offsets[1:] = np.cumsum(counts[:-1])
    probe_ok = probe >= 0
    safe_probe = np.where(probe_ok, probe, 0)
    lengths = np.where(probe_ok, counts[safe_probe], 0)
    total = int(lengths.sum())
    if total == 0:
        return None
    probe_sel = np.repeat(np.arange(len(probe), dtype=np.int64),
                          lengths)
    starts = offsets[safe_probe]
    ends = np.cumsum(lengths)
    within = np.arange(total, dtype=np.int64) \
        - np.repeat(ends - lengths, lengths)
    build_sel = order[np.repeat(starts, lengths) + within]
    return build_sel, probe_sel


def first_occurrence_keep(lanes: Sequence[Any]) -> "list[int] | None":
    """First-occurrence keep list over parallel int64 code lanes.

    Lanes pack into one int64 key per row (radix = each lane's code
    range). When the packed span is at most :data:`DENSE_SPAN_FACTOR`
    × the rows, a span-sized table takes each key's smallest row
    (``np.minimum.at``), and a row mask puts the survivors back in
    row order. Sparser keys go through ``np.unique(...,
    return_index=True)``. Returns the keep list in row order, ``None``
    when every row is already unique — mirroring the pure-Python zip
    dedup. Lanes must be non-negative int codes. When the radix
    product would overflow int64, the lanes dedup row-wise instead
    (``np.unique(..., axis=0)``) — same result, lexsort instead of a
    scalar sort.
    """
    np = numpy
    arrays = [index_array(lane) for lane in lanes]
    rows = int(arrays[0].shape[0])
    if rows == 0:
        return None
    packed = arrays[0]
    span = int(packed.max()) + 1
    for lane in arrays[1:]:
        radix = int(lane.max()) + 1
        if span * radix > _PACK_LIMIT:
            stacked = np.stack(arrays, axis=1)
            _, first = np.unique(stacked, axis=0, return_index=True)
            break
        packed = packed * radix + lane
        span *= radix
    else:
        if span <= DENSE_SPAN_FACTOR * rows:
            table = np.full(span, rows, dtype=np.int64)
            np.minimum.at(table, packed, np.arange(rows, dtype=np.int64))
            first = table[table < rows]
        else:
            _, first = np.unique(packed, return_index=True)
    if first.shape[0] == rows:
        return None
    keep = np.zeros(rows, dtype=bool)
    keep[first] = True
    return np.flatnonzero(keep).tolist()
