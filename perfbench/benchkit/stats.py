"""Order statistics for latency samples.

Percentiles use the nearest-rank definition: the p-th percentile of
``n`` sorted samples is the sample at rank ``ceil(p/100 * n)``. Exactly
``n - rank`` samples then lie beyond it, so a percentile is reported
only when that tail holds at least :data:`MIN_TAIL` samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: samples that must lie beyond a reported percentile
MIN_TAIL = 10


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the *p*-th percentile among *n* samples."""
    if n < 1:
        raise ValueError("a percentile needs at least one sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    return max(1, math.ceil(p / 100.0 * n))


def tail(n: int, p: float) -> int:
    """Samples strictly beyond the *p*-th percentile of *n* samples."""
    return n - rank(n, p)


def min_samples(p: float) -> int:
    """Fewest samples for which the *p*-th percentile has
    :data:`MIN_TAIL` samples beyond it (100 for p90)."""
    n = 1
    while tail(n, p) < MIN_TAIL:
        n += 1
    return n


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; raises when the tail is too thin."""
    n = len(samples)
    if tail(n, p) < MIN_TAIL:
        raise ValueError(
            f"p{p:g} of {n} samples has {tail(n, p)} beyond it; "
            f"at least {MIN_TAIL} are required "
            f"({min_samples(p)} samples)")
    return sorted(samples)[rank(n, p) - 1]


def median(samples: Sequence[float]) -> float:
    """Median, 0.0 for no samples (a layer the workload never ran)."""
    return float(statistics.median(samples)) if samples else 0.0

