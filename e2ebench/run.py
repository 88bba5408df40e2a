#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark (the repository's
cliffedge library target plus e2ebench/src) in $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload once and prints its result object as
the last line of standard output. Build output and the benchmark's
diagnostics go to standard error. `--selftest` runs only the output
check's self-test. Exits non-zero, without a result, when the library
sources are missing, the build fails, or the run fails or times out.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=1):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "Engine.h")):
        fail(f"cliffedge sources not found under {ROOT}/src", 2)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "e2ebench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + gen,
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode:
        fail("build failed")
    return build_dir


def main():
    args = sys.argv[1:]
    build_dir = build()
    exe = os.path.join(build_dir, "cliffedge-e2ebench")
    cmd = [exe] + args
    if "--selftest" not in args:
        cmd += ["--out-dir", os.path.join(build_dir, "spans")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if "--selftest" in args:
        sys.stdout.write(r.stdout)
        sys.exit(r.returncode)
    if r.returncode:
        fail(f"benchmark exited with {r.returncode}", r.returncode)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result object")
    if set(result) != RESULT_KEYS:
        fail(f"result has keys {sorted(result)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
