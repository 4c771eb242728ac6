#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads diff,overhead,fuzz]
        [--seeds 10] [--first-seed 1] [--seconds N]

For each workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)), next to the bound that
BENCHMARK.json allows. --seconds defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", workload,
                                      "--seed", str(seed),
                                      "--seconds", str(args.seconds),
                                      "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {out.returncode})")
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"  {workload:9} {name:16} median={med:.5g} "
                  f"spread={spread:.4f} bound={bounds[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
