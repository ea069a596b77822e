#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--seeds 10] [--sets 2] [--seconds 10]

Runs perfbench/run.py untraced on seeds 1..N of every workload in
BENCHMARK.json, once per set. The sets are interleaved: for each seed and
workload, one run of every set back to back, so a slow stretch of the host
falls on all sets alike. For every set and end-to-end metric it prints the
median of the N values and the spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median. Then,
for every set after the first, how much worse its median is than the first
set's, as a share of the first. Both are shown next to the metric's bound
from BENCHMARK.json. Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n"
                 f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = range(1, args.seeds + 1)
    worst_spread = worst_drift = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        # values[set][metric] -> one value per seed
        values = [{} for _ in range(args.sets)]
        for seed in seeds:
            for one_set in values:
                for name, value in run_once(workload, seed,
                                            args.seconds).items():
                    one_set.setdefault(name, []).append(value)
        print(f"## {workload}: seeds 1..{args.seeds}, {args.sets} "
              f"interleaved sets, --seconds {args.seconds}")
        print("| metric | bound | set | median | spread | worse than set 1 "
              "| values |")
        print("|---|---|---|---|---|---|---|")
        for name, metric in metrics.items():
            first = statistics.median(values[0][name])
            for k, one_set in enumerate(values):
                vals = one_set[name]
                med = statistics.median(vals)
                s = spread(vals)
                worst_spread = max(worst_spread, s / metric["bound"])
                drift = ""
                if k > 0:
                    d = worse_by(first, med, metric["better"])
                    worst_drift = max(worst_drift, d / metric["bound"])
                    drift = f"{d:+.4f}"
                print(f"| {name} | {metric['bound']} | {k + 1} | {med:.6g} "
                      f"| {s:.4f} | {drift} | "
                      f"{' '.join(f'{v:.5g}' for v in vals)} |")
        print(flush=True)
    print(f"largest spread as a share of its bound: {worst_spread:.3f}")
    if args.sets > 1:
        print(f"largest worsening of a later set's median as a share of its "
              f"bound: {worst_drift:.3f}")


if __name__ == "__main__":
    main()
