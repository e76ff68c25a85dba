#!/usr/bin/env python3
"""Unit tests for validate_bench_json.py (registered as the
validate_bench_json_unit CTest).

The --batch-stats fixtures under testdata/ are one real `mintri batch
--cost=fhw --top=2` run over tpch:5 and a missing file: its --stats-json
aggregate and its records. They must pass, and each kind of drift the CI
bench-smoke job guards against must fail: an old version, a missing field,
an aggregate that is not the records summed, and inconsistent cache
counters.

The report fixture, bench_smoke_v3.json, is one real `mintri bench minseps
ranked ckk --smoke --threads=1` run. It must pass, and so must fail a ckk
entry that beats ranked's first result, a both-complete pair whose counts
differ, a ckk entry with more optimal results than a ranked stream that
moved past them, count_at_best outside [1, count], a v3 entry still
carrying the dropped solver field, a smoke report missing a suite, and
two entries with one bench_diff entry identity.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import validate_bench_json  # noqa: E402

TESTDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "testdata")


def load_fixtures():
    with open(os.path.join(TESTDATA, "batch_stats_v3.json")) as f:
        stats = json.load(f)
    with open(os.path.join(TESTDATA, "batch_records_v3.jsonl")) as f:
        records = [json.loads(line) for line in f if line.strip()]
    return stats, records


def validate(stats, records=None):
    """Runs the validator on the given objects: (passed, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        stats_path = os.path.join(tmp, "stats.json")
        with open(stats_path, "w") as f:
            json.dump(stats, f)
        records_path = None
        if records is not None:
            records_path = os.path.join(tmp, "records.jsonl")
            with open(records_path, "w") as f:
                for r in records:
                    f.write(json.dumps(r) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                validate_bench_json.validate_batch_stats(stats_path,
                                                         records_path)
            except SystemExit as e:
                return e.code == 0, err.getvalue()
        return True, err.getvalue()


def validate_report(report, smoke=True):
    """Runs the report validator on `report`: (passed, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with open(path, "w") as f:
            json.dump(report, f)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                validate_bench_json.validate_report(path, smoke)
            except SystemExit as e:
                return e.code == 0, err.getvalue()
        return True, err.getvalue()


class ReportTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(TESTDATA, "bench_smoke_v3.json")) as f:
            self.report = json.load(f)

    def entry(self, suite, graph):
        for e in self.report["entries"]:
            if e["suite"] == suite and e["graph"] == graph:
                return e
        raise KeyError((suite, graph))

    def assertFails(self, message):
        ok, err = validate_report(self.report)
        self.assertFalse(ok)
        self.assertIn(message, err)

    def test_fixture_passes(self):
        self.assertEqual(validate_report(self.report), (True, ""))

    def test_ckk_below_ranked_first_result_fails(self):
        self.entry("ckk", "grid4x5")["best_cost"] = 3.0
        self.assertFails("ckk best_cost 3.0 is below ranked's first result")

    def test_both_complete_counts_must_agree(self):
        self.assertEqual(self.entry("ranked", "myciel4g")["status"],
                         "complete")
        self.entry("ckk", "myciel4g")["count"] -= 1
        self.assertFails("both complete")

    def test_ckk_cannot_find_more_optima_than_ranked_moved_past(self):
        ranked = self.entry("ranked", "myciel5g")
        self.assertGreater(ranked["count"], ranked["count_at_best"])
        ckk = self.entry("ckk", "myciel5g")
        ckk["count"] = ckk["count_at_best"] = ranked["count_at_best"] + 1
        self.assertFails("although it moved past them")

    def test_count_at_best_above_count_fails(self):
        ranked = self.entry("ranked", "grid5x6")
        ranked["count_at_best"] = ranked["count"] + 1
        self.assertFails("outside [0, count")

    def test_count_at_best_zero_with_results_fails(self):
        self.entry("ranked", "myciel3g")["count_at_best"] = 0
        self.assertFails("count_at_best 0 with count 5")

    def test_v3_entry_with_solver_fails(self):
        self.entry("ranked", "grid5x5")["solver"] = "indexed"
        self.assertFails("still carries 'solver'")

    def test_duplicate_entry_fails(self):
        # `mintri bench minseps minseps` used to write every minseps entry
        # twice.
        self.report["entries"].append(
            copy.deepcopy(self.entry("minseps", "tpch_q2")))
        self.assertFails("duplicates entries[1]")

    def test_smoke_suite_without_entries_fails(self):
        self.report["entries"] = [e for e in self.report["entries"]
                                  if e["suite"] != "ckk"]
        self.assertFails("smoke report has no ckk entries")


class BatchStatsTest(unittest.TestCase):
    def setUp(self):
        self.stats, self.records = load_fixtures()

    def test_fixtures_pass(self):
        self.assertEqual(validate(self.stats), (True, ""))
        self.assertEqual(validate(self.stats, self.records), (True, ""))

    def test_old_version_fails(self):
        self.stats["batch_stats_version"] = 2
        ok, err = validate(self.stats)
        self.assertFalse(ok)
        self.assertIn("unsupported batch_stats_version 2", err)

    def test_missing_nested_field_fails(self):
        del self.stats["stats"]["heuristic"]["pmcs"]
        ok, err = validate(self.stats)
        self.assertFalse(ok)
        self.assertIn("batch stats.stats.heuristic: missing key 'pmcs'", err)
        records = copy.deepcopy(self.records)
        del records[1]["stats"]["solver"]
        ok, err = validate(load_fixtures()[0], records)
        self.assertFalse(ok)
        self.assertIn("records[1].stats: missing key 'solver'", err)

    def test_aggregate_must_be_the_records_summed(self):
        self.stats["stats"]["exact"]["minseps"] += 1
        ok, err = validate(self.stats, self.records)
        self.assertFalse(ok)
        self.assertIn("aggregate stats.exact.minseps", err)

    def test_record_count_must_match(self):
        ok, err = validate(self.stats, self.records[:1])
        self.assertFalse(ok)
        self.assertIn("1 records, aggregate says 2 instances", err)

    def test_cache_counters_must_add_up(self):
        self.stats["stats"]["cache"]["hits"] += 1
        ok, err = validate(self.stats)
        self.assertFalse(ok)
        self.assertIn("cache lookups", err)


if __name__ == "__main__":
    unittest.main()
