#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the benchmark program swperf (perfbench/, which compiles the simulator
sources under src/) into .bench_build/perfbench, then runs one workload:

    python3 perfbench/run.py --workload irregular_sw --seed 1 \
        --seconds 25 --trace 0

Run it from the root of a checkout.  The last line of standard output is
the JSON result of swperf; build logs and progress go to standard error.
Metric definitions are in perfbench/METRICS.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Environment overrides the simulator honours; the benchmark fixes them.
SIM_ENV = ("SW_QUOTA", "SW_WARMUP", "SW_MAXCYCLES", "SW_QUOTA_REG",
           "SW_WARMUP_REG", "SW_JOBS", "SW_LOG_LEVEL")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {cmd[:2]} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {cmd[:2]} exited {done.returncode}")
    return BUILD / "swperf"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--golden-dir", str(BENCH / "golden"),
           "--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    env = {k: v for k, v in os.environ.items() if k not in SIM_ENV}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, cwd=ROOT, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"swperf did not finish: {err}")
    if done.returncode != 0:
        fail(f"swperf exited {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("swperf printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("swperf result has unexpected keys")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
