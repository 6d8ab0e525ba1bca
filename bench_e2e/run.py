#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload of it.

    python3 bench_e2e/run.py --workload steady --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and compiles the
protocol library and the benchmark into .bench_build/bench_e2e (about a
minute on 4 cores); later calls only check that the build is current. The binary's
own report ("name value unit" lines and check results) goes to standard
output, followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is 0 only when the build
succeeded, the run finished in time and every correctness check passed.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "bench_e2e")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_bounded(command, timeout, **kwargs):
    """Runs `command` in a process group of its own and returns its exit
    code; on timeout kills the whole group (compilers included), waits,
    and fails."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as process:
        try:
            return process.wait(timeout=max(1, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            fail(f"{os.path.basename(command[0])} did not finish within {timeout:.0f} s")


def build():
    """Configures once, then brings the binary up to date."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                code = run_bounded(step, deadline - time.monotonic(), stdout=sys.stderr)
            except OSError as error:
                fail(f"cannot run {step[0]}: {error}")
            if code != 0:
                fail(f"build step {' '.join(step[:2])} failed with code {code}")


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be at least 0 and --seconds from 1 to 600")

    names = metric_names(args.trace)
    build()

    result_path = os.path.join(BUILD_DIR, f"result-{os.getpid()}.json")
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--json", result_path]
    if args.trace:
        command.append("--trace")
    sys.stdout.flush()
    code = run_bounded(command, RUN_TIMEOUT_S)
    if code not in (0, 1) or not os.path.exists(result_path):
        fail(f"bench_e2e exited with code {code} and no result")
    with open(result_path) as f:
        result = json.load(f)
    os.remove(result_path)

    missing = [name for name in names if name not in result["metrics"]]
    if missing:
        fail(f"bench_e2e did not report {', '.join(missing)}")
    line = {
        "correct": bool(result["correct"]) and code == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: result["metrics"][name] for name in names},
    }
    print(json.dumps(line), flush=True)
    sys.exit(0 if line["correct"] else 1)


if __name__ == "__main__":
    main()
