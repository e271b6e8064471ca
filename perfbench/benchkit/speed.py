"""Machine-speed calibration: durations in reference time.

Shared 2-core virtual machines change speed by up to 2x within seconds
(a fixed pure-Python loop ran 106 to 215 iterations per 1 s block over
two minutes), and the average over minutes moves by 10-30%. Wall-clock
medians of two sets of runs then differ by more than any useful bound,
however long a run is.

So every measured operation is converted to *reference time*. A short,
fixed piece of pure-Python work, the probe, runs before each measured
segment and each set-up, outside their timing, with the garbage
collector off so that the program's heap does not slow it. A duration
measured at time ``t`` is multiplied by ``PROBE_REFERENCE_S / p(t)``,
where ``p(t)`` is the median duration of the :data:`NEAREST` probes
closest to ``t``: the duration the operation would have had on a
machine that runs the probe in exactly :data:`PROBE_REFERENCE_S`. A
change to the program moves reference time as it moves wall time; a
change of the machine's speed moves both the operation and its probes,
and cancels out.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

#: the probe's duration on the reference machine, in seconds
PROBE_REFERENCE_S = 1e-3
#: probes whose median gives the machine's speed at one moment
NEAREST = 7
#: dictionary entries the probe builds (about 1 ms on a 2-core VM)
PROBE_ITEMS = 1600


def _probe_work() -> int:
    """Interpreter work like the program's: strings, tuples, dicts,
    a sort."""
    table = {}
    for i in range(PROBE_ITEMS):
        key = f"urn:probe:{i % 97}/{i}"
        table[key] = (i, key)
    return len(sorted(table, key=len))


class Speedometer:
    """Probe durations over time, and the reference-time factor."""

    def __init__(self) -> None:
        self._at: list[float] = []
        self._took: list[float] = []

    def probe(self) -> None:
        """Time the probe once, now."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _probe_work()
            took = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self._at.append(start)
        self._took.append(took)

    def factor(self, at: float) -> float:
        """Reference seconds per wall second at perf-counter time *at*."""
        if not self._took:
            raise ValueError("no probe was taken")
        i = bisect.bisect(self._at, at)
        lo = max(0, min(i - NEAREST // 2, len(self._at) - NEAREST))
        window = self._took[lo:lo + NEAREST]
        return PROBE_REFERENCE_S / statistics.median(window)

    def reference(self, started: float, seconds: float) -> float:
        """*seconds* of wall time that began at *started*, in reference
        seconds (the speed at the interval's midpoint)."""
        return seconds * self.factor(started + seconds / 2)

    def probe_ms(self) -> float:
        """Median probe duration of the whole run, in ms."""
        return statistics.median(self._took) * 1e3 if self._took else 0.0
