#!/usr/bin/env python3
"""Compares two sets of bench_e2e results, or summarizes one set.

    python3 bench_e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 bench_e2e/compare.py --summary RUNS_DIR > summary.json

Each directory holds the files `bench_e2e --json` writes, any number of
workloads and seeds; traced runs are skipped. Runs of the two sets are
paired by workload and seed.

For every workload and every BENCHMARK.json metric the runs report,
the comparison prints each side's median and quartiles, the pairs the
change won, and a verdict:

  improved    the change won at least 9 of every 10 pairs, over at least
              10 pairs, and the medians differ by more than the parent's
              interquartile range;
  unresolved  either side's interquartile range, as a share of its
              median, is wider than the metric's bound, and not every
              change run beats every parent run;
  regressed   the change's median is worse than the parent's by more
              than the bound;
  unchanged   otherwise.

Per-layer metrics have no bound: their verdict is improved, worse (the
mirror of improved) or unchanged.

The exit code is 1 when an end-to-end metric regressed, when a workload
failed a larger share of its requests than at the parent, or when a run
failed its correctness checks; otherwise 0.

--summary prints, per workload, the median and quartiles of every
BENCHMARK.json metric in the runs, with the host the runs report.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def load_runs(directory):
    """{workload: {seed: result}} of the untraced results in `directory`."""
    runs = {}
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not paths:
        sys.exit(f"compare.py: no result files in {directory}")
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        if result.get("trace"):
            continue
        runs.setdefault(result["workload"], {})[result["seed"]] = result
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_share(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    gap = (change - parent) / abs(parent)
    return gap if better == "lower" else -gap


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def clear_win(winner_med, loser_med, wins, pairs, loser_iqr, better):
    """The rule for claiming a gain, seen from the winner's side."""
    return (pairs >= MIN_PAIRS_FOR_GAIN and wins >= WIN_SHARE_FOR_GAIN * pairs
            and is_better(winner_med, loser_med, better)
            and abs(winner_med - loser_med) > loser_iqr)


def verdict(parent, change, pairs, metric):
    better, bound = metric["better"], metric.get("bound")
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    wins = sum(1 for p, c in pairs if is_better(c, p, better))
    losses = sum(1 for p, c in pairs if is_better(p, c, better))
    spread = max((p3 - p1) / abs(p_med) if p_med else 0.0,
                 (c3 - c1) / abs(c_med) if c_med else 0.0)
    everyone_better = all(is_better(c, p, better) for c in change for p in parent)
    if clear_win(c_med, p_med, wins, len(pairs), p3 - p1, better):
        label = "improved"
    elif bound is None:
        label = "worse" if clear_win(p_med, c_med, losses, len(pairs), p3 - p1, better) else "unchanged"
    elif spread > bound and not everyone_better:
        label = "unresolved"
    elif worse_share(p_med, c_med, better) > bound:
        label = "regressed"
    else:
        label = "unchanged"
    return label, (p1, p_med, p3), (c1, c_med, c3), wins


def fail_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(parent_dir, change_dir, spec):
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    bad = False
    print(f"{'workload':13s} {'metric':33s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'wins':>6s}  verdict")
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent, change = parent_runs.get(workload, {}), change_runs.get(workload, {})
        if not parent or not change:
            print(f"{workload:13s} only in {'the parent' if parent else 'the change'}; not compared")
            continue
        seeds = sorted(set(parent) & set(change))
        for metric in spec["end_to_end"] + spec["per_layer"]:
            name = metric["name"]
            if not all(name in r["metrics"] for r in list(parent.values()) + list(change.values())):
                continue
            p_values = [r["metrics"][name]["value"] for r in parent.values()]
            c_values = [r["metrics"][name]["value"] for r in change.values()]
            pairs = [(parent[s]["metrics"][name]["value"], change[s]["metrics"][name]["value"])
                     for s in seeds]
            label, p, c, wins = verdict(p_values, c_values, pairs, metric)
            bad = bad or label == "regressed"
            print(f"{workload:13s} {name:33s} {p[0]:10.4g} {p[1]:10.4g} {p[2]:10.4g} "
                  f"{c[0]:10.4g} {c[1]:10.4g} {c[2]:10.4g} {wins:>3d}/{len(pairs):<2d}  {label}")
        p_fail, c_fail = fail_share(parent.values()), fail_share(change.values())
        if c_fail > p_fail:
            bad = True
            print(f"{workload:13s} failed requests rose from {p_fail:.4g} to {c_fail:.4g} of attempted")
        for side, runs in (("parent", parent), ("change", change)):
            for seed, run in sorted(runs.items()):
                if not run["correct"]:
                    bad = True
                    print(f"{workload:13s} {side} seed {seed} failed its correctness checks")
    return 1 if bad else 0


def summary(runs_dir, spec):
    runs = load_runs(runs_dir)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    host = next(iter(next(iter(runs.values())).values()))["host"]
    out = {"host": host, "workloads": {}}
    for workload, by_seed in sorted(runs.items()):
        metrics = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in by_seed.values() if name in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            unit = next(iter(by_seed.values()))["metrics"][name]["unit"]
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "unit": unit}
        out["workloads"][workload] = {
            "seeds": sorted(by_seed),
            "seconds": next(iter(by_seed.values()))["seconds"],
            "metrics": metrics,
        }
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--summary", metavar="RUNS_DIR")
    parser.add_argument("dirs", nargs="*", metavar="DIR")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.summary:
        if args.dirs:
            parser.error("--summary takes no other directories")
        return summary(args.summary, spec)
    if len(args.dirs) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR, or --summary RUNS_DIR")
    return compare(args.dirs[0], args.dirs[1], spec)


if __name__ == "__main__":
    sys.exit(main())
