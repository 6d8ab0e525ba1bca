#!/usr/bin/env python3
"""Per-pacemaker view-sync cost tables from bench_table1's sync section.

Reads the `section: "sync"` rows of BENCH_table1.json (the --json
artifact) and prints one GitHub-flavored markdown table per pacemaker,
as bench_table1 prints them. A span's msgs and bytes are view-sync
(pacemaker-class) messages only: consensus, dissemination and block-sync
traffic sent during the episode is not counted. CI appends the output to
$GITHUB_STEP_SUMMARY; locally it just prints.

Usage: tools/sync_complexity_report.py [BENCH_table1.json]
"""

import json
import sys


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_table1.json"
    with open(path) as f:
        report = json.load(f)
    if report.get("bench") != "table1":
        sys.exit(f"{path}: not a bench_table1 artifact")

    samples = {}  # protocol -> [row, ...] in file order
    fits = {}  # protocol -> fit row
    for row in report.get("rows", []):
        if row.get("section") != "sync":
            continue
        if row.get("kind") == "sample":
            samples.setdefault(row["protocol"], []).append(row)
        elif row.get("kind") == "fit":
            fits[row["protocol"]] = row

    if not samples:
        sys.exit(f"no sync rows found in {path}")

    print("### View-sync cost per node vs n (per pacemaker)")
    print()
    print("Mean per-sync cost (view-sync messages only) of one honest node's")
    print("completed sync spans, under f silent leaders and the worst permitted")
    print("network; the cluster pays n times this. `~O(n)` and `~O(n^2)` are")
    print("theory curves anchored at the smallest n; the fitted exponent is the")
    print("log-log slope.")
    for protocol, rows in samples.items():
        print()
        fit = fits.get(protocol, {})
        exponent = fit.get("msgs_exponent")
        auth_exponent = fit.get("auth_exponent")
        headline = f"#### `{protocol}`"
        if exponent is not None:
            headline += f" — msgs/sync/node ~ n^{exponent:.2f}"
        if auth_exponent is not None:
            headline += f", auth-ops/sync/node ~ n^{auth_exponent:.2f}"
        print(headline)
        print()
        print("| n | f | spans | msgs/node | ~O(n) | ~O(n^2) | bytes/node | auth/node |")
        print("|---:|---:|---:|---:|---:|---:|---:|---:|")
        for row in rows:
            print(
                f"| {row['n']} | {row['f']} | {row['spans']} "
                f"| {row['msgs_mean']:.1f} | {row['theory_n']:.1f} "
                f"| {row['theory_n2']:.1f} | {row['bytes_mean']:.1f} "
                f"| {row['auth_mean']:.1f} |"
            )


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
