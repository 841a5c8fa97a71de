#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark from source into
perfbench/.build (Release), trains the acoustic models into
perfbench/.cache on first use, then runs one workload. Everything the
benchmark prints goes to stdout; its last line is the JSON result. Build
output goes to stderr. Exits non-zero without a result when the
repository sources are missing or the build fails.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 600
# The first run in a checkout also trains the models (about 5 minutes
# on one core), which happens inside the benchmark binary.
RUN_TIMEOUT_S = 850


def build():
    """Configure (once) and build the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: repository sources not found next to perfbench/",
              file=sys.stderr)
        return False
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    # One build at a time per checkout, even when runs overlap.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                print(f"perfbench: build step failed: {err}",
                      file=sys.stderr)
                return False
            if done.returncode != 0:
                print("perfbench: build failed", file=sys.stderr)
                return False
    return True


def main(argv):
    if not build():
        return 1
    sys.stdout.flush()
    command = [BINARY, *argv,
               "--cache-dir", os.path.join(HERE, ".cache", "models"),
               "--pins", os.path.join(HERE, "pins.txt"),
               "--out-dir", os.path.join(HERE, ".out")]
    os.makedirs(os.path.join(HERE, ".out"), exist_ok=True)
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
