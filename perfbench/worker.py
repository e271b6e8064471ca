"""One workload run in a fresh process; prints its raw samples as JSON.

Started by ``run.py``: once or more for an untraced run, and once, with
``--traced``, for a traced run, which adds a traced pass after the
untraced one. Peak RSS is this process's own. The last line of
standard output is the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

from benchkit.layers import layer_metrics
from benchkit.stats import median
from benchkit.workloads import WORKLOADS, Run, execute


def _wall_ms(timed: list[tuple[float, float]]) -> list[float]:
    return [seconds * 1e3 for _, seconds in timed]


def summarize(name: str, seed: int, run: Run) -> dict:
    """The run's raw samples and facts; ``run.py`` pools and reduces
    them (a run may span several worker processes). Times are in
    reference time (see ``benchkit/speed.py``); ``*_wall_*`` are the
    same in wall time."""
    from repro.relational import accel

    tally, speed = run.tally, run.speed
    summary = {
        "workload": name,
        "checked": run.checked,
        "mismatches": run.mismatches[:20],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_codes": dict(sorted(tally.codes.items())),
        "query_ms": run.reference_ms(tally.queries),
        "query_wall_ms": _wall_ms(tally.queries),
        "release_ms": run.reference_ms(tally.releases),
        "release_wall_ms": _wall_ms(tally.releases),
        "setup_s": [speed.reference(*t) for t in run.setups],
        "setup_wall_s": [seconds for _, seconds in run.setups],
        "measured_s": sum(speed.reference(*t) for t in run.segments),
        "measured_wall_s": run.measured_s,
        "probe_ms": speed.probe_ms(),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "facts": {**run.facts, "seed": seed, "nproc": os.cpu_count(),
                  "python": platform.python_version(),
                  "numpy_accel": accel.available()},
    }
    if run.recorder is not None:
        # the per-layer times are wall time, and so are the shares of
        # the query latency computed from them
        summary["per_layer"] = layer_metrics(
            run.recorder.spans(), run.counters, run.release_bytes,
            median(summary["query_wall_ms"]))
    if run.traced is not None:
        traced = summary["traced"] = summarize(name, seed, run.traced)
        traced["per_layer"]["trace.overhead_pct"] = 100.0 * (
            median(traced["query_ms"]) / median(summary["query_ms"]) - 1.0)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--process", type=int, default=0,
                        help="index of this worker within its run")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    run = execute(args.workload, args.seed, args.seconds, args.workdir,
                  args.traced, args.process)
    if run.traced is not None:
        run.traced.recorder.dump(args.workdir / "traces"
                                 / f"{args.workload}-seed{args.seed}.jsonl")
    summary = summarize(args.workload, args.seed, run)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
