#!/usr/bin/env python3
"""Performance-regression gate over BENCH_kernels.json / BENCH_scale.json /
BENCH_serve.json.

Compares a freshly measured bench JSON against the committed one using
the IN-RUN speedup ratios (reference/production, reference/word-parallel,
cold/warm), never absolute milliseconds: both sides of each
ratio were measured in the same process on the same machine, so the
ratios transfer across hosts while wall-clock numbers do not.

Checks, in order:
  1. the fresh run asserts byte_identical (all engines produced the same
     reports — the correctness gate the speedups are conditional on);
  2. every top-level speedup ratio present in both files must satisfy
         fresh >= committed * (1 - tolerance);
  3. every per-case ratio (cases matched by "name" — a smoke run measures
     a subset of the committed tiers, unmatched cases are skipped) must
     satisfy the same floor.

Smoke runs (reps=1, shrunken workloads) are noisy, so CI passes a wide
--tolerance; nightly full runs can tighten it.  Dependency-free on
purpose: CI images carry a bare python3.

Usage: bench_gate.py COMMITTED.json FRESH.json [--tolerance 0.25]
Exits 0 when the gate passes, 1 with one line per violation.
"""

import argparse
import json
import sys

RATIO_KEYS = (
    "conformance_speedup",
    "stress_speedup",
    "total_speedup",
    "largest_tier_combined_speedup",
    # BENCH_serve.json: mean server-side latency of the cold (empty memo)
    # pass over the warm (repeated specs) passes — the shared-cache payoff.
    "warm_over_cold",
)

# Ratios gated per case row (matched by "name" across the two files):
# combined_speedup gates BENCH_scale tiers.
CASE_RATIO_KEYS = ("combined_speedup",)


def case_rows(doc):
    """Per-case rows of a bench JSON (kept under "cases")."""
    return [c for c in doc.get("cases", []) if isinstance(c, dict) and "name" in c]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("committed", help="checked-in BENCH_kernels.json")
    parser.add_argument("fresh", help="freshly measured BENCH_kernels.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative ratio regression (0.25 = fresh may be 25%% below committed)",
    )
    args = parser.parse_args()

    with open(args.committed) as f:
        committed = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    failures = []
    if fresh.get("byte_identical") is not True:
        failures.append("fresh run does not assert byte_identical — engines diverged")

    for key in RATIO_KEYS:
        if key not in committed or key not in fresh:
            continue  # ratio introduced/retired across versions: nothing to compare
        want = committed[key] * (1.0 - args.tolerance)
        got = fresh[key]
        status = "ok" if got >= want else "REGRESSED"
        print(
            f"{key:32s} committed {committed[key]:6.3f}  fresh {got:6.3f}  "
            f"floor {want:6.3f}  {status}"
        )
        if got < want:
            failures.append(
                f"{key}: fresh {got:.3f} below floor {want:.3f} "
                f"(committed {committed[key]:.3f}, tolerance {args.tolerance:.0%})"
            )

    committed_cases = {case["name"]: case for case in case_rows(committed)}
    for case in case_rows(fresh):
        if case.get("name") not in committed_cases:
            continue  # smoke runs measure a subset of the committed tiers
        name = case["name"]
        base = committed_cases[name]
        for key in CASE_RATIO_KEYS:
            if key not in base or key not in case:
                continue
            want = base[key] * (1.0 - args.tolerance)
            got = case[key]
            status = "ok" if got >= want else "REGRESSED"
            label = f"{name}.{key}"
            print(
                f"{label:32s} committed {base[key]:6.3f}  fresh {got:6.3f}  "
                f"floor {want:6.3f}  {status}"
            )
            if got < want:
                failures.append(
                    f"{label}: fresh {got:.3f} below floor {want:.3f} "
                    f"(committed {base[key]:.3f}, tolerance {args.tolerance:.0%})"
                )

    if failures:
        for line in failures:
            print(f"bench_gate: {line}", file=sys.stderr)
        return 1
    print("bench_gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
