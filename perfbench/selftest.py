#!/usr/bin/env python3
"""Small-scale self-test of the DrugTree benchmark.

Run from the root of a DrugTree checkout:

    python3 perfbench/selftest.py

Checks, with one-second windows:
  * every workload, untraced and traced, ends with a JSON line that parses,
    reports correct=true and failed=0, and carries exactly the end_to_end
    (--trace 0) or per_layer (--trace 1) metrics of BENCHMARK.json, each
    with its declared unit;
  * a deliberately corrupted reference result (--corrupt-reference) makes
    every workload report correct=false and exit non-zero;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    run.py exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def run(args, cwd=ROOT, timeout=300):
    return subprocess.run(RUN + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        value = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return value if isinstance(value, dict) else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace in ("0", "1"):
            label = "%s --trace %s" % (name, trace)
            done = run(["--workload", name, "--seed", "3", "--seconds", "1",
                        "--trace", trace])
            result = last_json(done.stdout)
            check(done.returncode == 0, label + ": exit code 0")
            check(result is not None, label + ": last line is a JSON object")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  label + ": result has exactly the four keys")
            check(result.get("correct") is True and result.get("failed") == 0,
                  label + ": outputs correct, nothing failed")
            check(isinstance(result.get("attempted"), int)
                  and result["attempted"] >= 1, label + ": attempted >= 1")
            metrics = result.get("metrics", {})
            check(set(metrics) == set(expected[trace]),
                  label + ": every declared metric and no other")
            for metric, unit in expected[trace].items():
                got = metrics.get(metric, {})
                check(got.get("unit") == unit
                      and isinstance(got.get("value"), (int, float)),
                      "%s: %s has unit %s and a number" % (label, metric, unit))
        done = run(["--workload", name, "--seed", "3", "--seconds", "1",
                    "--trace", "0", "--corrupt-reference"])
        result = last_json(done.stdout)
        check(done.returncode != 0 and result is not None
              and result.get("correct") is False,
              name + ": corrupted reference makes the check fail")

    # Without the DrugTree sources the benchmark must refuse to run.
    isolated = os.path.join(ROOT, ".bench_build", "selftest_isolated")
    shutil.rmtree(isolated, ignore_errors=True)
    os.makedirs(isolated)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(isolated, path))
    env_free = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=isolated, timeout=170)
    check(env_free.returncode != 0 and last_json(env_free.stdout) is None,
          "without sources: non-zero exit and no result")
    shutil.rmtree(isolated, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
