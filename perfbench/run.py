"""End-to-end governed-query benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload evolution --seed 1 --seconds 15 --trace 0

Workloads: ``evolution``, ``analytic``, ``dashboard`` (see
``perfbench/README.md``). A run starts one or more fresh worker
processes, one after the other; each sets up the workload, measures it
and checks the answers it samples against the naive reference
evaluator. The metrics pool the samples of all of them. With
``--trace 1`` a single worker runs an untraced pass and then a traced
one; the traced pass gives the per-layer breakdown, and the two give
the tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). The exit code
is 1 on an answer mismatch and 2 when a run could not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from benchkit.layers import PER_LAYER
from benchkit.speed import PROBE_REFERENCE_S
from benchkit.stats import median, percentile

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

#: every run, traced or not, ends within this many seconds
BUDGET_S = 170.0

#: worker processes of an untraced run, one after the other; the
#: metrics pool their samples. ``evolution`` (120 queries of widely
#: spread cost per pass) and ``analytic`` (105 walks per pass) are
#: fixed work; in one process, their reference-time p50 and p90 still
#: spread by 0.07-0.09 across runs on a shared 2-core machine.
PROCESSES = {"evolution": 2, "analytic": 2, "dashboard": 1}

#: end-to-end metrics every workload reports (untraced run)
END_TO_END = (("query_p50_ms", "ms"), ("query_p90_ms", "ms"),
              ("queries_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
#: end-to-end figures printed in the report only: ``release_p50_ms``
#: exists on ``evolution`` alone, and ``fail_ratio`` is 0 on a healthy
#: run, so neither can be a bounded metric of every workload
REPORTED = (("release_p50_ms", "ms"), ("fail_ratio", "ratio"))


def _worker(args: argparse.Namespace, deadline: float, *,
            traced: bool = False, process: int = 0) -> dict | None:
    """One worker run; None (with the reason on stderr) on failure."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}  # measure the defaults
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--workdir", str(ROOT / ".perfbench"),
               "--process", str(process)]
    if traced:
        command.append("--traced")
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} worker exceeded its time "
              "budget", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: {args.workload} worker failed with exit "
              f"code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _correct(worker: dict) -> bool:
    return worker["checked"] > 0 and not worker["mismatches"]


def _times(workers: list[dict], suffix: str = "") -> dict:
    """The timed end-to-end figures, in reference time or, with
    ``suffix="_wall"``, in wall time."""
    def joined(key: str) -> list[float]:
        return [x for w in workers for x in w[key]]

    queries = joined(f"query{suffix}_ms")
    releases = joined(f"release{suffix}_ms")
    times = {
        "query_p50_ms": median(queries),
        "query_p90_ms": percentile(queries, 90),
        "queries_per_s":
            len(queries) / sum(w[f"measured{suffix}_s"] for w in workers),
        "setup_s": median(joined(f"setup{suffix}_s")),
    }
    if releases:
        times["release_p50_ms"] = median(releases)
    return times


def pool(workers: list[dict]) -> dict:
    """Reduce the raw samples of one or more workers to the metrics."""
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    e2e = {**_times(workers),
           "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
           "fail_ratio": failed / attempted}
    codes: Counter = Counter()
    for w in workers:
        codes.update(w["error_codes"])
    return {
        "correct": all(_correct(w) for w in workers),
        "attempted": attempted, "failed": failed,
        "error_codes": dict(sorted(codes.items())),
        "checked": sum(w["checked"] for w in workers),
        "mismatches": [m for w in workers for m in w["mismatches"]],
        "e2e": e2e,
        "wall": _times(workers, "_wall"),
        "probe_ms": median([w["probe_ms"] for w in workers]),
        "samples": {"processes": len(workers),
                    "queries": sum(len(w["query_ms"]) for w in workers),
                    "releases": sum(len(w["release_ms"])
                                    for w in workers),
                    "setups": sum(len(w["setup_s"]) for w in workers),
                    "measured_wall_s": round(sum(w["measured_wall_s"]
                                                 for w in workers), 3)},
        "facts": workers[0]["facts"],
    }


def _report(name: str, untraced: dict, per_layer: dict | None
            ) -> list[str]:
    facts = untraced["facts"]
    lines = [f"workload {name}  seed {facts['seed']}  "
             f"nproc {facts['nproc']}  Python {facts['python']}  "
             f"numpy accel {'on' if facts['numpy_accel'] else 'off'}",
             "  facts: " + json.dumps(
                 {k: v for k, v in facts.items()
                  if k not in ("seed", "nproc", "python", "numpy_accel")},
                 sort_keys=True),
             f"  samples: {json.dumps(untraced['samples'])}",
             f"  answers checked {untraced['checked']}, mismatches "
             f"{len(untraced['mismatches'])}"]
    lines += [f"    {m}" for m in untraced["mismatches"]]
    lines.append("  end-to-end (untraced; times in reference time, "
                 "then in wall time):")
    for metric, unit in END_TO_END + REPORTED:
        if metric in untraced["e2e"]:
            wall = untraced["wall"].get(metric)
            lines.append(
                f"    {metric:<34} {untraced['e2e'][metric]:>12.4f} "
                + (unit if wall is None
                   else f"{unit:<5} {wall:>12.4f} {unit} wall"))
    lines.append(f"    median speed probe {untraced['probe_ms']:.4f} ms "
                 f"(reference {PROBE_REFERENCE_S * 1e3:g} ms)")
    lines.append(f"    failed {untraced['failed']} of "
                 f"{untraced['attempted']}; by code "
                 f"{json.dumps(untraced['error_codes'])}")
    if per_layer is not None:
        lines.append("  per-layer (traced):")
        lines += [f"    {metric:<34} {per_layer[metric]:>12.4f} {unit}"
                  for metric, unit in PER_LAYER]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end governed-query benchmark")
    parser.add_argument("--workload", required=True, choices=PROCESSES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    workers = []
    for process in range(1 if args.trace else PROCESSES[args.workload]):
        worker = _worker(args, deadline, traced=bool(args.trace),
                         process=process)
        if worker is None:
            return 2
        workers.append(worker)
    try:
        untraced = pool(workers)
    except ValueError as exc:  # too few samples for the percentiles
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    traced = per_layer = None
    if args.trace:
        traced = workers[0]["traced"]
        per_layer = traced["per_layer"]
        untraced["checked"] += traced["checked"]
        untraced["mismatches"] += traced["mismatches"]
    print("\n".join(_report(args.workload, untraced, per_layer)))

    if traced is None:
        final = untraced
        metrics = {metric: {"value": untraced["e2e"][metric], "unit": unit}
                   for metric, unit in END_TO_END}
    else:
        final = traced
        metrics = {metric: {"value": per_layer[metric], "unit": unit}
                   for metric, unit in PER_LAYER}
    correct = untraced["correct"] and (traced is None or _correct(traced))
    print(json.dumps({"correct": correct, "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
