#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The harness is compiled from ../src into
.bench_build/perfbench (Release), run once, and its metrics are checked
against the lists in BENCHMARK.json.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
full record, with the host and build fingerprint, is kept under
.bench_build/perfbench/results/.  Any failure exits non-zero without
printing a result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "simulator.hpp")):
        fail("liblgg sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    step = ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_commit():
    # Only a checkout that is itself a git work tree is asked; git must not
    # walk up into directories outside it.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True, env=env)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def run(args):
    expected = expected_metrics(args.trace == 1)
    build()
    command = [
        os.path.join(BUILD, "lgg_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(BUILD, "work"),
        "--commit", git_commit(),
    ]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail(f"harness exited with code {result.returncode}")
    record = json.loads(lines[-1])
    metrics = record["metrics"]
    if {name: m["unit"] for name, m in metrics.items()} != expected:
        fail("harness metrics do not match BENCHMARK.json: "
             f"got {sorted(metrics)}, expected {sorted(expected)}")

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for line in lines[:-1]:
        print(line)
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed",
                                  "metrics")}))


def selftest():
    build()
    result = subprocess.run([os.path.join(BUILD, "perfbench_selftest"),
                             os.path.join(BUILD, "work")],
                            timeout=HARNESS_TIMEOUT_S)
    sys.exit(result.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    run(args)


if __name__ == "__main__":
    main()
