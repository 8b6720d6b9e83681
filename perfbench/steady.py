#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report, for
every end-to-end metric, the median, the quartiles and the quartile
spread as a share of the median, against the metric's bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Run from the root of a checkout. Every workload in BENCHMARK.json is
run for its run_seconds. Quartiles are Python's
statistics.quantiles(values, n=4). Runs are made one after another.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.exit(f"{workload} seed {seed}: run failed ({result})")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                file=sys.stderr)
        print(f"\n{workload} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1})")
        print(f"{'metric':26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  > bound/3"
            print(f"{name:26} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {bounds[name]:6.2f}{flag}")

if __name__ == "__main__":
    main()
