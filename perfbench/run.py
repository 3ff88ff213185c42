#!/usr/bin/env python3
"""Build crsched and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is solve-miss, cache-hot, tier or campaign. The last line of
standard output is the result object; see perfbench/NOTES.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_LIMIT_S = 175


def main():
    os.chdir(ROOT)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/crsched.exe", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([BENCH] + sys.argv[1:], timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
