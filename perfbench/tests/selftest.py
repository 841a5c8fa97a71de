#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/tests/selftest.py

Runs a tiny size (1 s) of every workload, untraced and traced, and
checks that each prints every metric BENCHMARK.json declares with its
unit and passes the correctness gate. Then checks that the gate fires
(correct=false, non-zero exit) on a corrupted transcript, and that the
benchmark exits non-zero without a result when the repository sources
are missing. Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(TESTS)
ROOT = os.path.dirname(BENCH)

sys.dont_write_bytecode = True
sys.path.insert(0, BENCH)
import run  # noqa: E402  (the benchmark's own build step)


def result(args):
    """Run the built benchmark; (exit code, parsed last stdout line)."""
    done = subprocess.run(
        [run.BINARY, *args, "--cache-dir",
         os.path.join(BENCH, ".cache", "models"),
         "--pins", os.path.join(BENCH, "pins.txt"),
         "--out-dir", os.path.join(BENCH, ".out")],
        cwd=ROOT, capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return done.returncode, None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not run.build():
        print("FAIL build")
        return 1
    os.makedirs(os.path.join(BENCH, ".out"), exist_ok=True)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            rc, res = result(["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", trace])
            what = f"{workload} trace {trace}"
            check(rc == 0 and res is not None and res["correct"],
                  f"{what}: exit 0 and correct")
            if res is None:
                continue
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{what}: metrics and units as declared")
            check(res["attempted"] >= 1 and res["failed"] == 0,
                  f"{what}: ledger healthy")
            if trace == "0":
                check(all(v["value"] != 0 for v in res["metrics"].values()),
                      f"{what}: no end-to-end metric is 0")

        rc, res = result(["--workload", workload, "--seed", "7",
                          "--seconds", "1", "--trace", "0", "--corrupt"])
        check(rc != 0 and res is not None and not res["correct"],
              f"{workload}: gate fires on a corrupted transcript")

    # A directory holding only BENCHMARK.json and perfbench/ (without
    # build products) must fail fast without printing a result.
    bare = os.path.join(BENCH, ".out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".build", ".cache", ".out",
                                                  "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True,
        timeout=180)
    check(done.returncode != 0 and not done.stdout.strip(),
          "no repository sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
