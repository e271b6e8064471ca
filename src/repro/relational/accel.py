"""Optional numpy kernels for the encoded execution tier.

The encoded tier (``physical.FusedBatch`` and the int-coded hash join)
runs on plain Python lists by design — the reproduction carries no
hard third-party dependency. When numpy happens to be importable,
though, its int64 vector ops implement the exact same kernels one to
two orders of magnitude faster: gather (``np.take``), code
translation (fancy indexing), CSR-shaped join probes
(``bincount``/``argsort``/``repeat``) and first-occurrence dedup over
packed code lanes (``np.unique``).

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
           "index_array", "is_array", "numpy", "take",
           "translate_codes"]

try:  # pragma: no cover - exercised implicitly by every accel test
    numpy: Any = importlib.import_module("numpy")
except ImportError:  # pragma: no cover - numpy-less environments
    numpy = None

#: dtype for every index/code vector; cardinalities are bounded by
#: relation sizes, so packed multi-lane keys stay far below 2**63
#: (the packer still guards the radix product).
_PACK_LIMIT = 1 << 62


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
    order = np.argsort(build, kind="stable")
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
    range); ``np.unique(..., return_index=True)`` yields each key's
    first row. Returns the keep list in row order, ``None`` when every
    row is already unique — mirroring the pure-Python zip dedup.
    Lanes must be non-negative int codes. When the radix product would
    overflow int64, the lanes dedup row-wise instead
    (``np.unique(..., axis=0)``) — same result, lexsort instead of a
    scalar sort.
    """
    np = numpy
    arrays = [index_array(lane) for lane in lanes]
    rows = int(arrays[0].shape[0])
    if rows == 0:
        return None
    packed = arrays[0]
    span = int(packed.max()) + 1 if rows else 1
    for lane in arrays[1:]:
        radix = int(lane.max()) + 1
        if span * radix > _PACK_LIMIT:
            stacked = np.stack(arrays, axis=1)
            _, first = np.unique(stacked, axis=0, return_index=True)
            break
        packed = packed * radix + lane
        span *= radix
    else:
        _, first = np.unique(packed, return_index=True)
    if first.shape[0] == rows:
        return None
    first.sort()
    return first.tolist()
