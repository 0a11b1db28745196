#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

    python3 perfbench/run.py --workload read_wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The first call configures and
builds perfbench/ (its own CMake package, compiling ../src) into
.bench_build/perfbench; later calls rebuild only what changed. Every
run first executes the benchmark's self-tests, then pipeline_bench,
whose last stdout line (one JSON object) is the result. Build output
goes to stderr. The exit code is non-zero when the build, the
self-tests or a correctness check fails; no result line is printed
when nothing was measured.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
WORKLOADS = ("read_wide", "transform_heavy", "dup_zipf", "ingest")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def source_id():
    """git commit if this is a checkout, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def run(cmd, timeout):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return None


def selftest():
    done = run([str(BUILD_DIR / "perfbench_selftest")], 60)
    if done is None:
        return False
    sys.stderr.write(done.stdout + done.stderr)
    return done.returncode == 0


def valid_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    return (isinstance(res, dict)
            and set(res) == {"correct", "attempted", "failed", "metrics"})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run only the self-tests")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    if not build():
        return 2
    if not selftest():
        log("self-tests failed")
        return 2
    if args.selftest:
        return 0

    cmd = [str(BUILD_DIR / "pipeline_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id(), "--out-dir", str(RESULTS_DIR)]
    done = run(cmd, RUN_TIMEOUT_S)
    if done is None:
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if not lines or not valid_result(lines[-1]):
        sys.stderr.write(done.stdout)
        log("pipeline_bench printed no result")
        return done.returncode or 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
