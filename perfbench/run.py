#!/usr/bin/env python3
"""Builds the DrugTree benchmark program from source and runs one workload.

Run from the root of a DrugTree checkout:

    python3 perfbench/run.py --workload screen --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/ (both relative
to the checkout root), as a Release CMake build of perfbench/CMakeLists.txt.
Build output goes to stderr; stdout carries the program's report, whose last
line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Exit codes: 0 when the run completed and its outputs checked out; 1 when a
result disagreed with the reference; 2 when the build or the run failed.
"""

import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
WORKLOADS = ("screen", "serve", "mobile", "ingest")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    known = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    extra = []
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag in known:
            if i + 1 >= len(argv):
                fail("missing value for " + flag)
            known[flag] = argv[i + 1]
            i += 2
        elif flag == "--corrupt-reference":
            extra.append(flag)
            i += 1
        else:
            fail("unknown argument " + flag)
    if known["--workload"] not in WORKLOADS:
        fail("--workload must be one of " + ", ".join(WORKLOADS))
    return known, extra


def build(root):
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no DrugTree sources (src/CMakeLists.txt) under " + root)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured for another checkout cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or os.path.realpath(home[0]) != os.path.realpath(bench_dir):
            shutil.rmtree(build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            fail("build step failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "drugtree_bench")
    if not os.path.isfile(binary):
        fail("build produced no drugtree_bench")
    return binary


def main():
    args, extra = parse_args(sys.argv[1:])
    root = os.getcwd()
    binary = build(root)
    cmd = [binary]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        cmd += [flag, args[flag]]
    cmd += extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode not in (0, 1) or not isinstance(result, dict):
        sys.stderr.write(out)
        fail("workload run failed (exit %d)" % proc.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
