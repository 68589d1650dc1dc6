#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and reports each metric's spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--workloads pingpong,stream,bulk]
        [--seeds 10] [--seconds S] [--trace 0] [--json out.json]

For every workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.  Runs are
made one after another, never in parallel, so they do not contend.
--seconds defaults to run_seconds in BENCHMARK.json, the run length the
benchmark is judged at.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs failed the checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="pingpong,stream,bulk")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    with open(BENCHMARK_JSON) as f:
        run_seconds = json.load(f)["run_seconds"]
    ap.add_argument("--seconds", type=int, default=run_seconds)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write the raw values and spreads here")
    args = ap.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.seeds):
            seed = args.first_seed + i
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        report[workload] = {}
        for metric in runs[0]:
            values = [r[metric] for r in runs]
            med, rel = spread(values)
            report[workload][metric] = {"median": med, "iqr_frac": rel, "values": values}
            print(f"  {workload:9s} {metric:16s} median {med:14.6g}  iqr/median {rel:7.4f}",
                  flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
