#!/usr/bin/env python3
"""Build slicetuner_serve and the perfbench client from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload tune-cold|restart-append \
        --seed N --seconds S --trace 0|1

Build output and run scratch go to .bench_build/ under the current directory.
Build logs go to stderr; the last stdout line is the client's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    build()
    binary = os.path.join(BUILD, "perfbench")
    args = [
        binary,
        "--serve-bin=" + os.path.join(BUILD, "slicetuner", "slicetuner_serve"),
        "--work-dir=" + os.path.join(ROOT, ".bench_build", "perfbench-runs"),
    ] + sys.argv[1:]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    main()
