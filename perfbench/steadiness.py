#!/usr/bin/env python3
"""Run each workload repeatedly and show how steady its end-to-end metrics are.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workload NAME ...] [--seconds S]

Each run is one `perfbench/run.py --trace 0` invocation with its own seed.
For every end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)), the spread (q3 - q1) / median
and the metric's bound from BENCHMARK.json.  A spread below a third of the
bound reads "steady"; setup_s is reported but has no spread limit.  It also
checks that the share of failed requests is identical in every run.  Exits
1 when a run fails, is not correct, or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    healthy = True
    for workload in args.workload or names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                print(f"{workload} seed {seed}: run failed ({done.returncode})")
                healthy = False
                continue
            result = json.loads(lines[-1])
            healthy &= result["correct"]
            shares.add((result["failed"], result["attempted"]))
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={values[name][-1]:.6g}" for name in values), flush=True)

        ratios = {f / a for f, a in shares}
        print(f"\n{workload}: {args.runs} runs, failed/attempted "
              f"{sorted(shares)} -> {'identical share' if len(ratios) <= 1 else 'SHARES DIFFER'}")
        healthy &= len(ratios) <= 1
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med
            if metric["name"] == "setup_s":
                verdict = "no spread limit"
            elif spread <= metric["bound"] / 3:
                verdict = "steady"
            elif spread <= metric["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                healthy = False
            print(f"  {metric['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.3f} {metric['bound']:>6}  {verdict}")
        print(flush=True)
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
