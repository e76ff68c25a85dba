#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds perfbench_run the way run.py does, then checks that seeded
generation is deterministic, that the checker rejects corrupted results,
that every metric a run emits matches BENCHMARK.json, that each workload's
k in BENCHMARK.json is the one the runner uses, and that README.md maps
every per-layer metric to the end-to-end metric and workload it should move.
"""

import fnmatch
import filecmp
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build entry point)

ROOT = os.path.join(run.BENCH_DIR, os.pardir)
WORKLOADS = ("stream", "build")


def layer_table_rows():
    """The cells of README.md's layer -> metric -> workload table."""
    with open(os.path.join(run.BENCH_DIR, "README.md")) as f:
        lines = f.read().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| layer (module) |"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def dump(self, workload, seed, into):
        subprocess.run([self.binary, "--workload", workload, "--seed",
                        str(seed), "--dump", into], check=True,
                       stderr=subprocess.DEVNULL)
        return sorted(os.listdir(into))

    def test_same_seed_gives_byte_identical_instances(self):
        with tempfile.TemporaryDirectory(dir=run.build_root()) as tmp:
            for workload in WORKLOADS:
                a, b, c = (os.path.join(tmp, workload + s) for s in "abc")
                files = self.dump(workload, 5, a)
                self.assertEqual(files, self.dump(workload, 5, b))
                self.dump(workload, 6, c)
                match, mismatch, errors = filecmp.cmpfiles(a, b, files,
                                                           shallow=False)
                self.assertEqual((mismatch, errors), ([], []), workload)
                _, differ, _ = filecmp.cmpfiles(a, c, files, shallow=False)
                self.assertTrue(differ, f"{workload}: seed 6 == seed 5")

    def test_k_in_benchmark_json_is_the_runners(self):
        with tempfile.TemporaryDirectory(dir=run.build_root()) as tmp:
            for spec in self.spec["workloads"]:
                declared = re.match(r"k=(\d+),", spec["why"])
                self.assertIsNotNone(declared, spec["name"])
                into = os.path.join(tmp, spec["name"])
                self.dump(spec["name"], 1, into)
                with open(os.path.join(into, "replay.sh")) as f:
                    used = set(re.findall(r"--top=(\d+)", f.read()))
                self.assertEqual(used, {declared.group(1)}, spec["name"])

    def test_every_layer_metric_maps_to_what_it_should_move(self):
        rows = layer_table_rows()
        end_to_end = [m["name"] for m in self.spec["end_to_end"]]
        workloads = {w["name"] for w in self.spec["workloads"]}
        for metric in self.spec["per_layer"]:
            name = metric["name"]
            listed = [row for row in rows if f"`{name}`" in row[1]]
            self.assertEqual(len(listed), 1, f"{name}: one README table row")
            if name == "trace.overhead_ms":
                continue  # the cost of tracing itself, not a layer's
            moves = re.findall(r"`([^`]+)`", listed[0][3])
            self.assertTrue(
                any(fnmatch.fnmatchcase(e, pattern)
                    for pattern in moves for e in end_to_end),
                f"{name}: names no end-to-end metric")
            self.assertTrue(workloads & set(moves),
                            f"{name}: names no workload")

    def test_checker_rejects_corrupted_results(self):
        result = subprocess.run([self.binary, "--self-test"],
                                capture_output=True, text=True)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertNotIn("FAIL", result.stderr)

    def test_metric_names_match_benchmark_json(self):
        in_spec = {
            0: {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in self.spec["per_layer"]},
        }
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(WORKLOADS))
        with tempfile.TemporaryDirectory(dir=run.build_root()) as tmp:
            for workload in WORKLOADS:
                for trace in (0, 1):
                    out = subprocess.run(
                        [self.binary, "--workload", workload, "--seed", "1",
                         "--seconds", "0.5", "--trace", str(trace),
                         "--trace-dir", tmp],
                        capture_output=True, text=True, check=True)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"])
                    emitted = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(emitted, in_spec[trace],
                                     f"{workload} --trace {trace}")


if __name__ == "__main__":
    unittest.main()
