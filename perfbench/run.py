#!/usr/bin/env python3
"""Builds and runs the mintri end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds perfbench_run from the
repository's sources into $CARGO_TARGET_DIR (default .bench_build), runs one
workload, and prints the run's JSON result as the last line of stdout.
Build logs and progress go to stderr. Traced runs (--trace 1) also write a
Chrome trace-event file under <build root>/traces.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_CMAKE = os.path.join(BENCH_DIR, os.pardir, "src", "CMakeLists.txt")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds perfbench_run; returns its path."""
    if not os.path.isfile(SRC_CMAKE):
        raise RuntimeError("no mintri sources next to the benchmark "
                           f"(expected {os.path.normpath(SRC_CMAKE)})")
    build_dir = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench_run",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench_run")


def git_sha():
    """The commit being measured, read at run time (not at configure)."""
    if os.environ.get("MINTRI_GIT_SHA"):
        return os.environ["MINTRI_GIT_SHA"]
    # Only a repository rooted here counts: never look above the checkout.
    here = os.path.realpath(".")
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(here))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != here:
            return "unknown"
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
        return sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 2

    trace_dir = os.path.join(build_root(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(), "--trace-dir", trace_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log(f"no result line (exit code {run.returncode})")
        return run.returncode or 1
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
