#!/usr/bin/env python3
"""Peak RSS against run length, from bench_e2e runs of one or more workloads.

Each argument is [WORKLOAD:]SIM_SECONDS=FILE: FILE holds the output of one
`python3 bench_e2e/run.py ... --trace 0` call (its last line is the JSON
summary), SIM_SECONDS is the simulated length of that run (`steady` runs
one sim-second per `--seconds`, `byzantine` nine, `faults` 1.4 with a
10 s floor, so 5/10/20 are 10/14/28) and WORKLOAD labels it (default
`steady`). Prints GitHub-flavored markdown: a table of
`peak_rss_mb` per run with the MiB each extra sim-second cost since the
workload's previous, shorter run, then a row per workload with the
least-squares slope over its runs. Informational only: it asserts nothing
and always exits 0 once its arguments parse. CI appends the output to
$GITHUB_STEP_SUMMARY; locally it just prints.

Usage: tools/rss_growth_report.py 5=steady-5.txt 10=steady-10.txt byzantine:45=byz-5.txt faults:10=faults-5.txt
"""

import json
import sys


def peak_rss_mb(path):
    """The run's peak_rss_mb, or None when the run left no JSON summary."""
    try:
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.startswith("{")]
        return float(json.loads(lines[-1])["metrics"]["peak_rss_mb"]["value"])
    except (OSError, IndexError, KeyError, ValueError):
        return None


def slope_of(points):
    """Least-squares MiB per sim-second, or None with fewer than two lengths."""
    if len({s for s, _ in points}) < 2:
        return None
    mean_s = sum(s for s, _ in points) / len(points)
    mean_r = sum(r for _, r in points) / len(points)
    return sum((s - mean_s) * (r - mean_r) for s, r in points) / sum(
        (s - mean_s) ** 2 for s, _ in points)


def main():
    runs = {}
    for arg in sys.argv[1:]:
        spec, sep, path = arg.partition("=")
        workload, _, seconds = spec.rpartition(":")
        try:
            runs.setdefault(workload or "steady", []).append((float(seconds), path))
        except ValueError:
            sep = ""
        if not sep:
            sys.exit(__doc__.strip().splitlines()[-1])
    if not runs:
        sys.exit(__doc__.strip().splitlines()[-1])

    print("### Peak RSS against run length")
    print()
    print("| workload | sim-s | peak_rss_mb | MiB per sim-s since previous |")
    print("|---|---:|---:|---:|")
    points = {}
    for workload, wruns in runs.items():
        previous = None
        for seconds, path in sorted(wruns):
            rss = peak_rss_mb(path)
            if rss is None:
                print(f"| {workload} | {seconds:g} | (no result in {path}) | |")
                continue
            slope = ""
            if previous is not None and seconds > previous[0]:
                slope = f"{(rss - previous[1]) / (seconds - previous[0]):.2f}"
            print(f"| {workload} | {seconds:g} | {rss:.1f} | {slope} |")
            points.setdefault(workload, []).append((seconds, rss))
            previous = (seconds, rss)
    print()
    print("| workload | runs | least-squares MiB per sim-s |")
    print("|---|---:|---:|")
    for workload in runs:
        wpoints = points.get(workload, [])
        slope = slope_of(wpoints)
        growth = f"{slope:.2f}" if slope is not None else "(fewer than two lengths)"
        print(f"| {workload} | {len(wpoints)} | {growth} |")


if __name__ == "__main__":
    main()
