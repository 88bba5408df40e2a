#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 e2ebench/steadiness.py [--runs N]

Run from the repository root. For every workload in BENCHMARK.json it makes
two sets of N untraced runs of run_seconds each, alternating A, B, A, B, ...
so slow phases of the host fall on both sets, every run with its own seed
(SEED_BASE, SEED_BASE + 1, ...). Per set and end-to-end metric it prints
the median, the quartiles and the spread (quartile distance over median, as
statistics.quantiles(values, n=4) gives them), the same over both sets
together ("all"), then whether the sets agree: each spread within the
metric's bound in BENCHMARK.json, the two medians apart by no more than the
bound, and the same share of failed operations. Exits 1 when any workload
disagrees or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = 1000


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    if r.returncode:
        sys.exit(f"run failed: {' '.join(cmd)} (exit {r.returncode})")
    return json.loads(r.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(
        values)


def drift(first, second):
    """Distance between two medians, as a share of the better one."""
    return abs(second - first) / min(first, second)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="runs per set")
    args = p.parse_args()
    seconds = bench["run_seconds"]

    all_agree = True
    for w in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for k, name in enumerate("AB"):
                sets[name].append(run_once(w, SEED_BASE + 2 * i + k, seconds))
        print(f"== {w}: {args.runs} runs per set, {seconds} s each")
        print(f"{'metric':28} {'set':3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6}")
        agree = True
        for m in bench["end_to_end"]:
            meds = {}
            for name in "AB":
                vals = [r["metrics"][m["name"]]["value"] for r in sets[name]]
                med, q1, q3, spread = summary(vals)
                meds[name] = med
                print(f"{m['name']:28} {name:3} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f} {m['bound']:6.2f}")
                if spread > m["bound"]:
                    agree = False
            vals = [r["metrics"][m["name"]]["value"]
                    for r in sets["A"] + sets["B"]]
            med, q1, q3, spread = summary(vals)
            print(f"{m['name']:28} {'all':3} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.3f} {m['bound']:6.2f}")
            apart = drift(meds["A"], meds["B"])
            print(f"{'':28} medians of A and B apart by {apart:.3f}")
            if apart > m["bound"]:
                agree = False
        shares = {n: sum(r["failed"] for r in sets[n]) /
                  sum(r["attempted"] for r in sets[n]) for n in "AB"}
        print(f"failed share: A {shares['A']:.6f}, B {shares['B']:.6f}")
        if shares["A"] != shares["B"]:
            agree = False
        print(f"{w}: sets {'agree' if agree else 'DISAGREE'}\n")
        all_agree = all_agree and agree
    sys.exit(0 if all_agree else 1)


if __name__ == "__main__":
    main()
