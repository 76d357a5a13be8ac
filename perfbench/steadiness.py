#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs every workload of BENCHMARK.json N times with different seeds, each
run as long as BENCHMARK.json's run_seconds, and prints for every
end-to-end metric the median, the quartiles and the spread (interquartile
range over median) set against the metric's bound. The bounds in
BENCHMARK.json were chosen from this table; run it again to re-check them
on another host or after a change. It stops at the first run that fails
a check.

    python3 perfbench/steadiness.py --runs 10 --seed 601

Run it from the root of the repository.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.stderr.write(out.stdout)
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: a check failed: {result}")
    stolen = re.search(r"([\d.]+)% of the vCPU time stolen", out.stderr)
    return result, stolen.group(1) if stolen else "?"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    opts = parser.parse_args()

    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for i in range(opts.runs):
            seed = opts.seed + i
            r, stolen = run_once(bench["command"], workload, seed, bench["run_seconds"])
            results.append(r)
            values = " ".join(f"{v['value']:.4g}" for v in r["metrics"].values())
            print(f"# {workload} seed {seed}: attempted={r['attempted']} "
                  f"stolen={stolen}% {values}", flush=True)
        print(f"\n{workload}:")
        print(f"{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'ratio':>6}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ratio = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, ratio)
            print(f"{m['name']:<24} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.4f} {m['bound']:>6.3f} {ratio:>6.2f}")
        print(flush=True)
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
