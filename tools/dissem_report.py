#!/usr/bin/env python3
"""Partition ride-through table from the dissemination ablation.

Reads BENCH_dissem.json (the --json artifact of `bench_seamless --dissem=on`)
and prints a GitHub-flavored markdown table with, per row, the offered load,
the committed req/s before, during and after the quorum-preserving cut, and
the honest dissemination traffic during the cut in KiB. Informational only:
it asserts nothing. CI appends the output to $GITHUB_STEP_SUMMARY; locally
it just prints.

Usage: tools/dissem_report.py [BENCH_dissem.json]
"""

import json
import sys


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_dissem.json"
    with open(path) as f:
        report = json.load(f)
    if report.get("bench") != "seamless_dissem":
        sys.exit(f"{path}: not a bench_seamless --dissem artifact")
    rows = report.get("rows", [])
    if not rows:
        sys.exit(f"no rows found in {path}")

    print("### Dissemination: partition ride-through")
    print()
    print("Committed req/s before, during (`cut`) and after a quorum-preserving")
    print("partition, and honest dissemination traffic during the cut.")
    print()
    print("| protocol | dissem | n | offered/s | pre req/s | cut req/s | post req/s "
          "| cut dissem KiB | misses |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---:|")
    for row in rows:
        print(
            f"| {row['protocol']} | {row['dissem']} | {row['n']} "
            f"| {row['offered_rps']:.0f} | {row['pre_rps']:.1f} "
            f"| {row['cut_rps']:.1f} | {row['post_rps']:.1f} "
            f"| {row['cut_dissem_bytes'] / 1024:.1f} | {row['commit_misses']} |"
        )


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
