#!/usr/bin/env python3
"""The corpus benchmark's own test.

    python3 perfbench/test_bench.py

1. checks_test: the region-rule oracle agrees with the program's spec
   derivation, and every cover with one literal flipped or one cube dropped
   is rejected.
2. Every workload, untraced and traced, runs for one second and prints a
   correct result whose metric names and units are exactly the end_to_end
   (untraced) or per_layer (traced) entries of BENCHMARK.json.
3. On cold-exact exactly two of every 25 requests fail; the traced runs'
   top-level spans cover at least 95% of their wall time.

Exits 0 when everything holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402

FAILURES = []


def expect(condition, what):
    if not condition:
        FAILURES.append(what)
        print(f"FAIL: {what}", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    if not bench_run.build():
        print("FAIL: build")
        return 1

    done = subprocess.run([os.path.join(bench_run.BUILD, "checks_test")], capture_output=True,
                          text=True)
    print(done.stdout.strip())
    expect(done.returncode == 0, "checks_test: " + done.stderr.strip())

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            expect(done.returncode == 0 and lines, f"{label}: exit {done.returncode}")
            if not lines:
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{label}: not correct\n{done.stderr}")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            expected = {m["name"]: m["unit"] for m in bench[section]}
            printed = {name: value["unit"] for name, value in result["metrics"].items()}
            expect(printed == expected, f"{label}: metrics {printed} != {expected}")
            share = (result["failed"], result["attempted"])
            if workload == "cold-exact":
                expect(result["failed"] * 25 == result["attempted"] * 2,
                       f"{label}: failed/attempted {share}, expected 2 of every 25")
            else:
                expect(result["failed"] == 0, f"{label}: failed/attempted {share}")
            if trace:
                stats = [json.loads(line)["trace"] for line in lines if '"trace": {' in line]
                expect(stats and stats[0]["top_level_coverage"] >= 0.95,
                       f"{label}: top-level span coverage {stats}")
            print(f"{label}: ok ({share[1]} requests)", flush=True)

    print(f"test_bench: {len(FAILURES)} failure(s)")
    return 0 if not FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
