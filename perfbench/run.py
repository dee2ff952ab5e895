#!/usr/bin/env python3
"""End-to-end benchmark of the split-computing stack.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (CMake, Release, sources from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then hands the arguments unchanged to the driver, which owns the
workload list and validates them. Build output goes to stderr; the last line
on stdout is the driver's JSON result. Exits non-zero without printing a
result when the sources are missing, the build fails, the driver fails, or
its outputs were wrong.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DEADLINE_S = 170.0  # a run must finish within 180 s, build excluded


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sc", "deployment.hpp")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def main():
    binary = build()
    try:
        proc = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_DEADLINE_S:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited {proc.returncode}", proc.returncode or 2)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver result has unexpected keys")
    if not result["correct"]:
        fail("outputs were not correct", 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
