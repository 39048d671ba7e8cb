#!/usr/bin/env python3
"""Build and run the corpus benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree.  It builds perfbench/ (which
compiles the libraries under src/) into .bench_build/, then runs
corpus_bench once.  With --trace 0 it also repeats the benchmark's set-up
in separate processes and reports the median set-up time of all of them as
setup_s.  The last line of standard output is the result object.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "corpus_bench")
# Set-up is repeated in this many extra processes per untraced run.
SETUP_REPEATS = 4
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no nshot sources under {ROOT}/src")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "-j", "4"]
    return subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode == 0


def source_stamp():
    """The git commit when the tree is a checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_binary(args):
    return subprocess.run([BINARY] + args, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []

    def repeat_setup(times):
        for _ in range(times):
            done = run_binary(common + ["--setup-only"])
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise RuntimeError("set-up run failed")
            setups.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])

    # Half of the extra set-ups run before the measured run and half after,
    # so the median samples the host at two moments.
    if not args.trace:
        repeat_setup(SETUP_REPEATS // 2)
    done = run_binary(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                "--commit", source_stamp()])
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"corpus_bench exited with {done.returncode}")
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        repeat_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    for line in lines[:-1]:
        print(line)
    if setups:
        print(json.dumps({"setup_s_samples": setups}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
