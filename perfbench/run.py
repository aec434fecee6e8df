#!/usr/bin/env python3
"""Builds the end-to-end KRR GWAS benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout of the repository.  It configures and
builds perfbench/ (which builds the kgwas library from the repository's
own CMakeLists.txt) into .bench_build/perfbench, then runs the benchmark
binary with the given arguments.  Build output and the binary's progress
go to stderr; the last line of stdout is the binary's JSON result.  The
exit code is non-zero when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "kgwas_perfbench")
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(HERE):
            # A build tree copied from another checkout; CMake refuses it.
            shutil.rmtree(BUILD)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "kgwas_perfbench", "-j", JOBS],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE,
                         text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
