#!/usr/bin/env python3
"""Peak RSS against run length, from bench_e2e runs of one workload.

Each argument is SIM_SECONDS=FILE: FILE holds the output of one
`python3 bench_e2e/run.py ... --trace 0` call (its last line is the JSON
summary) and SIM_SECONDS is the simulated length of that run (for
`steady`, one sim-second per `--seconds`). Prints a GitHub-flavored
markdown table of `peak_rss_mb` per run and the MiB each extra
sim-second cost since the previous, shorter run, then the least-squares
slope over all runs. Informational only: it asserts nothing and always
exits 0 once its arguments parse. CI appends the output to
$GITHUB_STEP_SUMMARY; locally it just prints.

Usage: tools/rss_growth_report.py 5=steady-5.txt 10=steady-10.txt 20=steady-20.txt
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


def main():
    runs = []
    for arg in sys.argv[1:]:
        seconds, sep, path = arg.partition("=")
        try:
            runs.append((float(seconds), path))
        except ValueError:
            sep = ""
        if not sep:
            sys.exit(__doc__.strip().splitlines()[-1])
    if not runs:
        sys.exit(__doc__.strip().splitlines()[-1])
    runs.sort()

    print("### Peak RSS against run length")
    print()
    print("| sim-s | peak_rss_mb | MiB per sim-s since previous |")
    print("|---:|---:|---:|")
    points = []
    previous = None
    for seconds, path in runs:
        rss = peak_rss_mb(path)
        if rss is None:
            print(f"| {seconds:g} | (no result in {path}) | |")
            continue
        slope = ""
        if previous is not None and seconds > previous[0]:
            slope = f"{(rss - previous[1]) / (seconds - previous[0]):.2f}"
        print(f"| {seconds:g} | {rss:.1f} | {slope} |")
        points.append((seconds, rss))
        previous = (seconds, rss)
    print()
    if len({s for s, _ in points}) >= 2:
        mean_s = sum(s for s, _ in points) / len(points)
        mean_r = sum(r for _, r in points) / len(points)
        slope = sum((s - mean_s) * (r - mean_r) for s, r in points) / sum(
            (s - mean_s) ** 2 for s, _ in points)
        print(f"Least-squares growth: {slope:.2f} MiB per sim-second "
              f"over {len(points)} runs.")
    else:
        print("Fewer than two runs reported peak_rss_mb: no growth rate.")


if __name__ == "__main__":
    main()
