"""Benchmark-regression gate: fresh ``BENCH_*.json`` vs. committed baselines.

CI runs every benchmark, then calls this script to diff the freshly
written ``benchmarks/results/BENCH_*.json`` files against the committed
``benchmarks/baselines/BENCH_*.json``. The gate is deliberately scoped
to **relative, machine-stable metrics**: speedup ratios and cache hit
rates, which compare two measurements taken on the *same* runner in the
*same* run. Absolute timings, QPS and I/O-bound overhead percentages
vary with runner hardware (CPU count, disk fsync latency) and are
reported for information only, never gated — each benchmark's own
asserted floor (e.g. "production ≥3× the oracle") remains the hard line
for those.

Gating is inferred from the metric name:

* names containing ``speedup`` or ending in ``_rate`` — higher is
  better; a regression is a drop below ``baseline × (1 - tolerance)``;
* names containing ``floor``, ``limit`` or ``gate`` are configured
  constants, never gated;
* everything else (row counts, seconds, qps, overheads, nested stats)
  is informational.

Exit status is non-zero when any gated metric regressed, so the CI step
fails. A per-metric delta table is printed to stdout and appended to
``$GITHUB_STEP_SUMMARY`` when present.

Usage::

    python benchmarks/compare_bench.py \
        [--results benchmarks/results] [--baselines benchmarks/baselines] \
        [--tolerance 0.25]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

#: default tolerance band: a gated metric may degrade this fraction
#: relative to its committed baseline before the gate fails. Wide on
#: purpose — baselines are committed from a developer machine and
#: compared on shared CI runners, so even relative ratios carry
#: hardware variance; the benchmarks' own asserted floors (e.g.
#: "production ≥3× the oracle") remain the hard correctness line. A real
#: regression — losing vectorization, a cache that stopped hitting —
#: shows up as a 2×+ drop and clears this band comfortably.
DEFAULT_TOLERANCE = 0.40

def direction_of(name: str) -> str | None:
    """'up' (higher is better, gated) or None (informational)."""
    lowered = name.lower()
    if any(token in lowered for token in ("floor", "limit", "gate")):
        return None  # configured constants, not measurements
    if "speedup" in lowered or lowered.endswith("_rate"):
        return "up"
    return None


def flatten(payload: dict, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested JSON object, dot-joined keys."""
    out: dict[str, float] = {}
    for key, value in payload.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(flatten(value, path))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            out[path] = float(value)
    return out


def compare_file(name: str, baseline: dict, fresh: dict,
                 tolerance: float) -> tuple[list[dict], list[str]]:
    """Rows of the delta table plus the regression messages."""
    base_metrics = flatten(baseline)
    fresh_metrics = flatten(fresh)
    rows: list[dict] = []
    regressions: list[str] = []
    for metric in sorted(base_metrics):
        direction = direction_of(metric)
        base = base_metrics[metric]
        current = fresh_metrics.get(metric)
        row = {"bench": name, "metric": metric, "baseline": base,
               "current": current, "direction": direction,
               "status": "info"}
        if current is None:
            if direction is not None:
                row["status"] = "MISSING"
                regressions.append(
                    f"{name}: gated metric {metric!r} missing from "
                    "fresh results")
            rows.append(row)
            continue
        if direction == "up":
            floor = base * (1.0 - tolerance)
            row["status"] = "ok" if current >= floor else "REGRESSED"
            if current < floor:
                regressions.append(
                    f"{name}: {metric} = {current:.3g}, below baseline "
                    f"{base:.3g} - {tolerance:.0%} tolerance "
                    f"(floor {floor:.3g})")
        rows.append(row)
    for metric in sorted(set(fresh_metrics) - set(base_metrics)):
        rows.append({"bench": name, "metric": metric, "baseline": None,
                     "current": fresh_metrics[metric],
                     "direction": direction_of(metric), "status": "new"})
    return rows, regressions


def fmt(value: float | None) -> str:
    if value is None:
        return "—"
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.4g}"


def render_table(rows: list[dict], gated_only: bool = False) -> str:
    lines = ["| bench | metric | baseline | current | Δ | status |",
             "|---|---|---:|---:|---:|---|"]
    for row in rows:
        if gated_only and row["direction"] is None:
            continue
        base, current = row["baseline"], row["current"]
        if base and current is not None:
            delta = f"{(current - base) / base:+.1%}"
        else:
            delta = "—"
        marker = {"ok": "✅ ok", "REGRESSED": "❌ regressed",
                  "MISSING": "❌ missing", "new": "🆕 new",
                  "info": "ℹ︎"}[row["status"]]
        lines.append(f"| {row['bench']} | {row['metric']} | "
                     f"{fmt(base)} | {fmt(current)} | {delta} | "
                     f"{marker} |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    here = pathlib.Path(__file__).parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--results", type=pathlib.Path,
                        default=here / "results")
    parser.add_argument("--baselines", type=pathlib.Path,
                        default=here / "baselines")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE)
    args = parser.parse_args(argv)

    baselines = sorted(args.baselines.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines under {args.baselines} — nothing to gate",
              file=sys.stderr)
        return 2

    all_rows: list[dict] = []
    all_regressions: list[str] = []
    for path in baselines:
        fresh_path = args.results / path.name
        baseline = json.loads(path.read_text())
        if not fresh_path.exists():
            all_regressions.append(
                f"{path.name}: benchmark did not produce fresh results "
                f"at {fresh_path}")
            all_rows.extend(compare_file(
                path.stem, baseline, {}, args.tolerance)[0])
            continue
        fresh = json.loads(fresh_path.read_text())
        rows, regressions = compare_file(path.stem, baseline, fresh,
                                         args.tolerance)
        all_rows.extend(rows)
        all_regressions.extend(regressions)

    verdict = ("❌ benchmark regression gate: "
               f"{len(all_regressions)} regression(s)"
               if all_regressions else
               "✅ benchmark regression gate: all gated metrics within "
               f"{args.tolerance:.0%} of baseline")
    gated = render_table(all_rows, gated_only=True)
    print(verdict, "", gated, sep="\n")
    for message in all_regressions:
        print("::error::" + message)

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(f"## Benchmark regression gate\n\n{verdict}\n\n"
                         f"{gated}\n\n<details><summary>all metrics"
                         f"</summary>\n\n{render_table(all_rows)}\n\n"
                         "</details>\n")
    return 1 if all_regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
