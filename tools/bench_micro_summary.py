#!/usr/bin/env python3
"""Before/after table for the hot-path micro benchmarks.

Reads a google-benchmark JSON report (BENCH_micro.json) and the checked-in
pre-overhaul baseline (bench/BASELINE_micro.json), and prints a GitHub-
flavored markdown table of the tracked benchmarks with speedup factors.
The note column carries a benchmark's label: for the hashing rows, the
SHA-256 kernel the host ran ("sha-ni" or "portable").
CI appends the output to $GITHUB_STEP_SUMMARY; locally it just prints.

Usage: tools/bench_micro_summary.py BENCH_micro.json [bench/BASELINE_micro.json]
"""

import json
import sys

TRACKED_PREFIXES = (
    "BM_EventQueueScheduleAndPop",
    "BM_NetworkBroadcast",
    "BM_Sha256",
    "BM_DefaultSchemeSign",
)


def to_ns(entry):
    unit = entry.get("time_unit", "ns")
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
    return entry["real_time"] * scale


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    report_path = sys.argv[1]
    baseline_path = sys.argv[2] if len(sys.argv) > 2 else "bench/BASELINE_micro.json"

    with open(report_path) as f:
        report = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    base_by_name = {row["name"]: row["real_time_ns"] for row in baseline["benchmarks"]}
    rows = []
    for entry in report.get("benchmarks", []):
        name = entry["name"]
        if not name.startswith(TRACKED_PREFIXES) or entry.get("run_type") == "aggregate":
            continue
        now_ns = to_ns(entry)
        base_ns = base_by_name.get(name)
        speedup = f"{base_ns / now_ns:.2f}x" if base_ns else "n/a"
        base_cell = f"{base_ns:,.0f}" if base_ns else "n/a"
        rows.append((name, base_cell, f"{now_ns:,.0f}", speedup, entry.get("label", "")))

    if not rows:
        sys.exit(f"no tracked benchmarks found in {report_path}")

    print("### Hot-path micro benchmarks (vs pre-overhaul baseline)")
    print()
    print("| benchmark | baseline ns | this run ns | speedup | note |")
    print("|---|---:|---:|---:|---|")
    for name, base_cell, now_cell, speedup, note in rows:
        print(f"| `{name}` | {base_cell} | {now_cell} | {speedup} | {note} |")


if __name__ == "__main__":
    main()
