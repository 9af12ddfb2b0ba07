#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: fleet_repeat, fleet_fresh, session_churn, sim_backlog (see
perfbench/README.md). The first run configures and builds a Release tree
under .bench_build/perfbench; later runs rebuild only what changed.

The last stdout line is the result object {"correct", "attempted",
"failed", "metrics"}: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The lines before it carry the host stamp of
tools/bench_meta.py and the run's conditions (threads, connections, seed).
Each run also writes .bench_out/result-<workload>-<seed>-trace<t>.json, and
a traced run writes its spans to .bench_out/trace-<workload>-<seed>.ndjson.
"""

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("fleet_repeat", "fleet_fresh", "session_churn", "sim_backlog")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the "
                 "repository, the benchmark builds the library from source")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD)  # configured from another checkout
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr so stdout stays the result stream.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(BUILD, "perfbench")


def host_stamp():
    sys.dont_write_bytecode = True  # leave no __pycache__ in tools/
    path = os.path.join(ROOT, "tools", "bench_meta.py")
    spec = importlib.util.spec_from_file_location("bench_meta", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.host_metadata()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    host = host_stamp()
    os.makedirs(OUT, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", OUT]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        fail(f"{args.workload} failed with exit code {done.returncode}")
    conditions = json.loads(lines[-2])["conditions"]
    result = json.loads(lines[-1])
    record = {"host": host, "conditions": conditions, "result": result}
    path = os.path.join(
        OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(json.dumps({"host": host}))
    print(lines[-2])
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
