#!/usr/bin/env python3
"""Self-test of the benchmark's output check.

Runs each workload briefly against a copy of golden.txt in which one
program's first printed value is changed, and asserts that every check of
that program counts as a failure: the result reports failed > 0 and
ok_frac < 1, and the command exits non-zero. Then runs once against the
real golden file and asserts a clean result. Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def bench(binary, workload, golden):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", "0", "--golden", golden],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=run.RUN_TIMEOUT_S)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def corrupted_golden(victim):
    lines = open(run.GOLDEN).read().splitlines()
    for i, line in enumerate(lines):
        fields = line.split()
        if fields and fields[0] == victim:
            assert int(fields[2]) > 0, "victim prints nothing"
            fields[3] = str(int(fields[3]) + 1)
            lines[i] = " ".join(fields)
            break
    else:
        raise AssertionError("no golden entry for " + victim)
    path = os.path.join(run.BUILD, "golden-corrupted.txt")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def main():
    binary = run.build()
    bad = corrupted_golden("dhrystone")
    for workload in ["compile", "run", "edit-run"]:
        code, result = bench(binary, workload, bad)
        ok_frac = result["metrics"]["ok_frac"]["value"]
        assert code != 0, workload + ": corrupted golden entry exited 0"
        assert not result["correct"], workload + ": reported correct"
        assert result["failed"] > 0, workload + ": no failure counted"
        assert ok_frac < 1, workload + ": ok_frac not below 1"
        print("ok: %s counts %d of %d checks failed (ok_frac %.4f)"
              % (workload, result["failed"], result["attempted"], ok_frac))
    code, result = bench(binary, "compile", run.GOLDEN)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_frac"]["value"] == 1
    print("ok: the committed golden file passes")


if __name__ == "__main__":
    main()
