#!/usr/bin/env python3
"""Build perfbench from the checkout's sources and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spec --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and is incremental; its output goes to stderr
so the benchmark's last stdout line stays its JSON result. The exit
code is the benchmark's, or non-zero when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, target)


def main(argv):
    target = "perfbench_selftest" if argv == ["--self-test"] else "perfbench"
    binary = build(target)
    if binary is None:
        return 3
    cmd = [binary] if target == "perfbench_selftest" else [binary] + argv
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
