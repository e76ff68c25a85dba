#!/usr/bin/env python3
"""Unit tests for validate_bench_json.py --batch-stats (registered as the
validate_bench_json_unit CTest).

The fixtures under testdata/ are one real `mintri batch --cost=fhw --top=2`
run over tpch:5 and a missing file: its --stats-json aggregate and its
records. They must pass, and each kind of drift the CI bench-smoke job
guards against must fail: an old version, a missing field, an aggregate
that is not the records summed, and inconsistent cache counters.
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
