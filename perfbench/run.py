#!/usr/bin/env python3
"""Builds and runs the host-time benchmark described in NOTES.md.

Run from the root of a checkout:

    python3 perfbench/run.py --workload validate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --list-metrics
    python3 perfbench/run.py --self-check

The first call configures and builds the repo's libraries (from ../src)
and the benchmark binary into .bench_build/perfbench; later calls rebuild only what
changed.  Build output goes to stderr, so the binary's result JSON stays
the last line of stdout.  The exit code is the binary's.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
WORKLOADS = ["validate", "functional", "replay_cold", "replay_warm"]


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def self_check(binary):
    """Every workload must count a planted wrong output and fail."""
    ok = True
    for w in WORKLOADS:
        p = subprocess.run([binary, "--workload", w, "--seed", "1",
                            "--seconds", "0", "--trace", "0",
                            "--plant-mismatch"],
                           stdout=subprocess.PIPE, text=True)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
        result = json.loads(last) if last.startswith("{") else {}
        caught = (p.returncode != 0 and result.get("correct") is False
                  and result.get("failed", 0) >= 1)
        print(f"self-check {w}: exit {p.returncode}, "
              f"failed {result.get('failed')} -> "
              f"{'PASS' if caught else 'FAIL'}")
        ok = ok and caught
    return 0 if ok else 1


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--self-check"]:
        return self_check(binary)
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
