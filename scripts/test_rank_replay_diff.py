#!/usr/bin/env python3
"""Unit test for rank_replay_diff.py (registered as the rank_replay_diff_unit
CTest).

Two stub `mintri` binaries agree on every input except two: on one the
change's stdout differs under --tier=heuristic only, on the other its exit
code differs under every configuration. The diff must list each of those
16 (input, configuration) pairs, nothing else, and exit 1; two copies of
the same stub must come out identical with exit 0.
"""

import os
import stat
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "rank_replay_diff.py")

PARENT_STUB = """#!/bin/sh
echo "same $*"
"""

# The input path is the last argument.
CHANGE_STUB = """#!/bin/sh
for input; do :; done
case "$input" in
  */differs_stdout.gr)
    case "$*" in *--tier=heuristic*) echo "changed $*"; exit 0 ;; esac ;;
  */differs_exit.gr) echo "same $*"; exit 3 ;;
esac
echo "same $*"
"""


def write_executable(path, text):
    with open(path, "w") as f:
        f.write(text)
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)


class RankReplayDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        root = self.tmp.name
        self.parent = os.path.join(root, "parent")
        self.change = os.path.join(root, "change")
        write_executable(self.parent, PARENT_STUB)
        write_executable(self.change, CHANGE_STUB)
        self.inputs = os.path.join(root, "inputs")
        os.mkdir(self.inputs)
        for name in ("agrees.gr", "differs_stdout.gr", "differs_exit.gr"):
            with open(os.path.join(self.inputs, name), "w") as f:
                f.write("p tw 1 0\n")

    def tearDown(self):
        self.tmp.cleanup()

    def run_diff(self, parent, change):
        return subprocess.run(
            [sys.executable, SCRIPT, "--jobs=2", parent, change, self.inputs],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            check=False)

    def test_lists_every_difference_then_exits_one(self):
        proc = self.run_diff(self.parent, self.change)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        diffs = [line for line in proc.stdout.splitlines()
                 if line.startswith("DIFF ")]
        stdout_diffs = [d for d in diffs if "differs_stdout.gr" in d]
        exit_diffs = [d for d in diffs if "differs_exit.gr" in d]
        self.assertEqual(len(stdout_diffs), 4, proc.stdout)
        self.assertTrue(all("--tier=heuristic" in d for d in stdout_diffs))
        self.assertEqual(len(exit_diffs), 12, proc.stdout)
        self.assertTrue(all("exit code 0 -> 3" in d for d in exit_diffs))
        self.assertEqual(len(diffs), 16, proc.stdout)
        self.assertIn("16 of ", proc.stdout)

    def test_identical_binaries_exit_zero(self):
        proc = self.run_diff(self.parent, self.parent)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("identical:", proc.stdout)
        self.assertNotIn("DIFF ", proc.stdout)


if __name__ == "__main__":
    unittest.main()
