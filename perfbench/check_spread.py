#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/check_spread.py [--runs 10] [--first-seed 1]
        [--workloads world,prove,...] [--seconds S]

Run from the repository root. Runs the benchmark once per seed
(first-seed, first-seed+1, ...) on each workload, untraced, and prints
for every end-to-end metric its median and its spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median. A metric is steady when its spread stays below a
third of its bound in BENCHMARK.json (setup_s is exempt). Also checks
that every run is correct and prints exactly the declared metrics.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in metrics}
        for i in range(args.runs):
            r = run_once(workload, args.first_seed + i, args.seconds)
            if not r["correct"] or r["failed"] or set(r["metrics"]) != set(metrics):
                print(f"{workload} seed {args.first_seed + i}: bad result {r}")
                steady = False
            for name in metrics:
                values[name].append(r["metrics"][name]["value"])
        print(f"\n{workload} ({args.runs} runs, {args.seconds} s each)")
        for name, m in metrics.items():
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = name == "setup_s" or spread < m["bound"] / 3
            steady = steady and ok
            print(f"  {name:16s} median {med:12.4f} {m['unit']:5s} spread {spread:7.4f}"
                  f"  bound {m['bound']:.2f} {'ok' if ok else 'TOO WIDE'}")
            print("    " + " ".join(f"{x:.4g}" for x in v))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
