#!/usr/bin/env python3
"""Replays `mintri rank` with two binaries and diffs what they print.

Usage:
    rank_replay_diff.py [--jobs=J] PARENT_BIN CHANGE_BIN [DIR...]

Inputs are every tests/data/*.gr plus every *.gr in each DIR (for example
the directories written by `perfbench_run --dump DIR`). Each input runs
under 12 configurations, --tier=auto|exact|heuristic x --cost=width|fill x
--format=summary|td, with --top=100 and the binary's default time limit.
Both binaries' stdout and exit code must match. Every differing (input,
configuration) pair is listed, one DIFF line each, so a change that is
expected to alter some inputs shows all of them. --jobs=J runs J
comparisons at once.

Exit status: 0 when every run matches, 1 when any differs (after listing
them all), 2 on usage errors.
"""

import argparse
import concurrent.futures
import glob
import itertools
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOP = 100
CONFIGS = list(itertools.product(("auto", "exact", "heuristic"),
                                 ("width", "fill"),
                                 ("summary", "td")))


def rank_args(config):
    tier, cost, fmt = config
    return ["rank", f"--tier={tier}", f"--cost={cost}", f"--format={fmt}",
            f"--top={TOP}"]


def run(binary, args, path):
    proc = subprocess.run([binary] + args + [path], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False)
    return proc.returncode, proc.stdout


def compare(parent, change, args, path):
    """Returns None when both binaries agree, else a description."""
    parent_code, parent_out = run(parent, args, path)
    change_code, change_out = run(change, args, path)
    if parent_code != change_code:
        return f"exit code {parent_code} -> {change_code}"
    if parent_out != change_out:
        parent_lines = parent_out.decode(errors="replace").splitlines()
        change_lines = change_out.decode(errors="replace").splitlines()
        for i, (a, b) in enumerate(zip(parent_lines, change_lines)):
            if a != b:
                return f"stdout line {i + 1}: {a!r} -> {b!r}"
        return (f"stdout length {len(parent_lines)} -> "
                f"{len(change_lines)} lines")
    return None


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_bin")
    parser.add_argument("change_bin")
    parser.add_argument("dirs", nargs="*")
    parser.add_argument("--jobs", type=int, default=1)
    opts = parser.parse_args()

    for binary in (opts.parent_bin, opts.change_bin):
        if not os.access(binary, os.X_OK):
            print(f"not an executable: {binary}", file=sys.stderr)
            return 2
    inputs = sorted(glob.glob(os.path.join(REPO, "tests", "data", "*.gr")))
    for d in opts.dirs:
        found = sorted(glob.glob(os.path.join(d, "*.gr")))
        if not found:
            print(f"no .gr files in {d}", file=sys.stderr)
            return 2
        inputs += found

    jobs = [(path, config) for path in inputs for config in CONFIGS]
    with concurrent.futures.ThreadPoolExecutor(max(1, opts.jobs)) as pool:
        results = pool.map(
            lambda job: compare(opts.parent_bin, opts.change_bin,
                                rank_args(job[1]), job[0]),
            jobs)
        diffs = 0
        for (path, config), diff in zip(jobs, results):
            if diff is not None:
                diffs += 1
                print(f"DIFF {path} {' '.join(rank_args(config))}: {diff}",
                      flush=True)
    summary = (f"{len(inputs)} inputs x {len(CONFIGS)} configurations "
               f"({len(jobs)} runs per binary)")
    if diffs:
        print(f"{diffs} of {len(jobs)} runs differ: {summary}")
        return 1
    print(f"identical: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
