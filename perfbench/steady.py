#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of one build agree?

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload spec --workload stress --runs 10

Runs `perfbench/run.py --trace 0` for each workload `--runs` times per
set, alternating between set A and set B, each run for BENCHMARK.json's
run_seconds and with its own seed (1000, 1001, ... in turn: even seeds
in set A, odd in set B). For every end-to-end metric in BENCHMARK.json
it prints each set's median, first and third quartiles
(statistics.quantiles, n=4) and spread (quartile distance over the
median), then whether the sets agree: each spread within the metric's
bound and set B's median no worse than set A's by more than the bound.
It also compares the share of failed operations, which must be equal.
Bounds are set from this output; a later change uses it to tell an
unresolved metric from an unchanged one. Exit code 0 when every metric
agrees, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_BASE = 1000


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("run failed: " + " ".join(cmd))
    return json.loads(lines[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    ok = True
    for workload in args.workload:
        sets = [[], []]
        for i in range(args.runs):
            for s in range(2):
                seed = SEED_BASE + 2 * i + s
                res = run_once(workload, seed, seconds)
                if not res["correct"]:
                    print("%s seed %d: output check failed" % (workload, seed))
                    ok = False
                sets[s].append(res)
                print("%s set %s run %d seed %d: %s" % (
                    workload, "AB"[s], i + 1, seed,
                    " ".join("%s=%.4g" % (m["name"], res["metrics"][m["name"]]["value"])
                             for m in metrics)), flush=True)

        print("\nworkload %s: %d run(s) per set, %d s each" % (workload, args.runs, seconds))
        print("%-20s %-7s %-36s  %-36s  %s" % (
            "metric", "bound", "set A median [q1, q3] spread",
            "set B median [q1, q3] spread", "B vs A  verdict"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            cells = ["%9.4g [%9.4g, %9.4g] %6.1f%%" % (med, q1, q3, 100 * sp)
                     for med, q1, q3, sp in stats]
            a, b = stats[0][0], stats[1][0]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            good = all(sp <= bound for _, _, _, sp in stats) and worse <= bound
            ok = ok and good
            print("%-20s %-7s %s  %+6.1f%%  %s" % (
                name, "%.0f%%" % (100 * bound), "  ".join(cells),
                100 * (b - a) / a, "agree" if good else "DISAGREE"))
        shares = []
        for s, runs in enumerate(sets):
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            shares.append(fail / att)
            print("set %s failed operations: %d of %d" % ("AB"[s], fail, att))
        if shares[0] != shares[1]:
            print("failed shares differ between the sets")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
