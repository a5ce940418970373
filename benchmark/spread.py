#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the benchmark N times (default 10) on each workload, each time with
another --seed, and prints per metric x workload the median of the N values
and the distance between their first and third quartile
(statistics.quantiles(values, n=4)) as a share of that median, beside the
metric's bound. A spread above a third of its bound is flagged: the driver
accepts up to the bound, but two sets of runs then disagree too often.

    python3 benchmark/spread.py [--runs N] [--first-seed S] [--workload NAME]...

Run from the repository root. Exits 1 when a spread exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    manifest = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    over_bound = False
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = manifest["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(manifest["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}, {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed} done", file=sys.stderr)
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            median = statistics.median(vs)
            spread = (q3 - q1) / median if median else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag, over_bound = "  OVER BOUND", True
            elif name != "setup_s" and spread > bounds[name] / 3:
                flag = "  above bound/3"
            print(f"{workload:16} {name:26} median {median:12.4f}  "
                  f"spread {spread:7.4f}  bound {bounds[name]:.2f}{flag}")
            print(" " * 17 + " ".join(f"{v:.4g}" for v in vs))
    sys.exit(1 if over_bound else 0)


if __name__ == "__main__":
    main()
