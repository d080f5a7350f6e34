#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload compile|run|edit-run \
        --seed N --seconds S --trace 0|1

The build goes to .bench_build/ (CMake, RelWithDebInfo, the repository's
default flags). The benchmark's progress and host metadata go to standard
error; the last line of standard output is the JSON result. The exit code
is non-zero when the build fails, when any request fails its check
against golden.txt, or when a determinism check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
GOLDEN = os.path.join(HERE, "golden.txt")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no compiler sources at src/; run from the "
                 "repository root")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return BINARY


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["compile", "run", "edit-run"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", GOLDEN]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: exited %d without a result" % proc.returncode)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        sys.exit("perfbench: metrics differ from BENCHMARK.json")
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
