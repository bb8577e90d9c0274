#!/usr/bin/env python3
"""Run the end-to-end benchmark over several seeds and report its spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py --seeds 1-10 [--workload NAME ...]

For each workload and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the quartile distance
as a share of the median, next to the metric's bound from BENCHMARK.json.
Runs execute one at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steadiness: {workload} seed {seed} failed "
                 f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"steadiness: {workload} seed {seed}: "
                 f"{result['failed']} failed injections")
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    print("| workload | metric | median | Q1 | Q3 | IQR/median | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in args.seeds:
            metrics = run_once(workload, seed, args.seconds)
            for name in values:
                values[name].append(metrics[name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()),
                file=sys.stderr, flush=True)
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"| {workload} | {m['name']} ({m['unit']}) | {med:.4g} "
                  f"| {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.1%} "
                  f"| {m['bound']:.0%} |", flush=True)


if __name__ == "__main__":
    main()
