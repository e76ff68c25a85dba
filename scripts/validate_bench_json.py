#!/usr/bin/env python3
"""Schema validation for BENCH_core.json (the `mintri bench` report).

Usage:
  validate_bench_json.py [--smoke] [--compare=BASELINE.json] BENCH_core.json
  validate_bench_json.py --batch-stats STATS.json [RECORDS.jsonl]

Checks the shape produced by src/bench/bench_suites.cc:WriteBenchJson so the
CI bench-smoke job fails loudly when the schema drifts instead of uploading
a silently broken artifact. Exits 0 on success, 1 with a message otherwise.

It also checks the paper's Section 7 claims between each `ckk` entry and
every `ranked` entry of the same graph (costs and counts only, never
timings): CKK's best cost is no better than RankedTriang's first result;
once the ranked stream moved past its optimum (it is complete, or it
returned a worse result), CKK found no more optimal results than it did;
and when both streams are complete they agree on the count and on the
number of optimal results.

No two entries may share bench_diff's entry identity, or the diff would
silently compare only the last of them.

--compare=BASELINE.json is a smoke hook for the bench-diff CI gate: it
matches the report against a baseline using the exact entry identity that
scripts/bench_diff.py diffs with (imported from there, so the two tools
cannot drift apart) and fails when the overlap is empty.

--batch-stats switches to validating the aggregate-stats JSON written by
`mintri batch --stats-json=...` (src/cli/batch.cc:WriteBatchAggregate) and,
when given, the batch's JSON Lines records. The aggregate and every record
carry one "stats" object of the same shape
(src/enumeration/run_stats.cc:WriteRunStatsJson), and the aggregate's
counters must be the records' summed.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402

TOP_LEVEL = {
    "schema_version": int,
    "git_sha": str,
    "time_scale": float,
    "smoke": bool,
    "suites": list,
    "entries": list,
}

ENTRY = {
    "suite": str,
    "family": str,
    "graph": str,
    "n": int,
    "m": int,
    "threads": int,
    "count": int,
    "wall_ms": float,
    "results_per_sec": float,
    "init_seconds": float,
    "cost": str,
    "best_cost": float,
    "count_at_best": int,
    "candidate_evals": int,
    "combine_calls": int,
    "index_updates": int,
    "range_queries": int,
    "cache_hit_rate": float,
    "tier": str,
    "status": str,
}

SCHEMA_VERSION = 3

KNOWN_SUITES = {"minseps", "pmc", "ranked", "ckk", "appcost", "huge"}
# The suites that drain a stream of triangulations; their results_per_sec
# is the after-first-result throughput, so it is 0 when count <= 1, and
# they report the best cost drained and how many results had it.
STREAM_SUITES = {"ranked", "ckk", "appcost", "huge"}
# ms-terminated / pmc-terminated are the Fig. 5 taxonomy of which context
# initialization stage hit its limits; cost-error marks an appcost case
# whose cost model could not be constructed.
KNOWN_STATUSES = {"complete", "truncated", "ms-terminated", "pmc-terminated",
                  "cost-error"}
# The application costs the appcost suite ranks by.
APPCOST_COSTS = {"hypertree", "fhw", "state-space"}
# The tiered pipeline's truthful stream labels (huge-suite entries only;
# every other suite runs the --tier=exact pipeline and emits "").
KNOWN_TIERS = {"exact", "atom-exact", "heuristic"}


def fail(message):
    print(f"validate_bench_json: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_fields(obj, spec, where):
    for key, expected in spec.items():
        if key not in obj:
            fail(f"{where}: missing key {key!r}")
        value = obj[key]
        if isinstance(expected, dict):
            if not isinstance(value, dict):
                fail(f"{where}: {key!r} is not an object")
            check_fields(value, expected, f"{where}.{key}")
            continue
        # ints are acceptable where floats are expected (JSON "1" vs "1.0").
        if expected is float and isinstance(value, int):
            continue
        if not isinstance(value, expected):
            fail(f"{where}: {key!r} has type {type(value).__name__}, "
                 f"expected {expected.__name__}")


# One context-build record: the exact attempts or the heuristic family builds.
BUILD = {
    "builds": int,
    "ms_terminated": int,
    "pmc_terminated": int,
    "seconds": float,
    "minsep_seconds": float,
    "pmc_seconds": float,
    "blocks_seconds": float,
    "wiring_seconds": float,
    "minseps": int,
    "pmcs": int,
    "blocks": int,
}

# One run's stats record, the "stats" object of every batch record and of
# the aggregate (and the line `mintri rank --stats` prints).
RUN_STATS = {
    "preprocess": {
        "seconds": float,
        "atoms": int,
        "vertices_removed": int,
        "largest_atom": int,
        "smallest_atom": int,
    },
    "exact": BUILD,
    "heuristic": BUILD,
    "solver": {
        "optimizer_calls": int,
        "candidate_evals": int,
        "combine_calls": int,
        "index_updates": int,
        "range_queries": int,
    },
    "cache": {
        "lookups": int,
        "hits": int,
        "misses": int,
        "hit_rate": float,
    },
}

# The aggregate shape written by `mintri batch --stats-json=...`.
BATCH_STATS = {
    "batch_stats_version": int,
    "threads": int,
    "inner_threads": int,
    "cost": str,
    "instances": int,
    "ok": int,
    "failed": int,
    "wall_seconds": float,
    "tier_exact": int,
    "tier_atom_exact": int,
    "tier_heuristic": int,
    "stats": RUN_STATS,
}

# One `mintri batch` output line.
BATCH_RECORD = {
    "instance": str,
    "cost": str,
    "status": str,
    "n": int,
    "m": int,
    "tier": str,
    "stats": RUN_STATS,
    "results": list,
}

BATCH_STATUSES = {"ok", "load-error", "cost-error", "init-failed", "timeout"}

# Atom sizes aggregate as max / least non-zero, not as sums.
NOT_SUMMED = {"preprocess.largest_atom", "preprocess.smallest_atom"}


def counters(obj, prefix=""):
    """The integer leaves of a stats object, keyed by dotted path."""
    out = {}
    for key, value in obj.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(counters(value, path + "."))
        elif isinstance(value, int):
            out[path] = value
    return out


def check_run_stats(stats, where):
    for path, value in counters(stats).items():
        if value < 0:
            fail(f"{where}: negative {path}")
    for build in ("exact", "heuristic"):
        b = stats[build]
        if b["ms_terminated"] + b["pmc_terminated"] > b["builds"]:
            fail(f"{where}: {build} has more terminated builds than builds")
        if any(v < 0 for k, v in b.items() if k.endswith("seconds")):
            fail(f"{where}: negative {build} timing")
    if stats["preprocess"]["seconds"] < 0:
        fail(f"{where}: negative preprocess timing")
    cache = stats["cache"]
    if cache["lookups"] != cache["hits"] + cache["misses"]:
        fail(f"{where}: cache lookups {cache['lookups']} != hits + misses")
    if not 0 <= cache["hit_rate"] <= 1:
        fail(f"{where}: cache hit_rate {cache['hit_rate']} outside [0, 1]")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")


def validate_batch_stats(path, records_path=None):
    stats = load_json(path)
    check_fields(stats, BATCH_STATS, "batch stats")
    if stats["batch_stats_version"] != 3:
        fail(f"unsupported batch_stats_version "
             f"{stats['batch_stats_version']}")
    for key in ("threads", "inner_threads"):
        if stats[key] < 1:
            fail(f"{key} must be >= 1, got {stats[key]}")
    if stats["instances"] != stats["ok"] + stats["failed"]:
        fail(f"instances {stats['instances']} != ok {stats['ok']} + "
             f"failed {stats['failed']}")
    if stats["wall_seconds"] < 0:
        fail("negative timing")
    tiers = ("tier_exact", "tier_atom_exact", "tier_heuristic")
    if any(stats[k] < 0 for k in tiers):
        fail("negative tier counter")
    if sum(stats[k] for k in tiers) > stats["instances"]:
        fail(f"tier counters sum to more than {stats['instances']} instances")
    check_run_stats(stats["stats"], "batch stats")

    if records_path is not None:
        validate_batch_records(records_path, stats)
    print(f"validate_bench_json: OK: batch stats for {stats['instances']} "
          f"instances, {stats['ok']} ok / {stats['failed']} failed")


def validate_batch_records(path, aggregate):
    """Each record's shape, and the aggregate as the records summed."""
    try:
        with open(path) as f:
            records = [json.loads(line) for line in f if line.strip()]
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")
    if len(records) != aggregate["instances"]:
        fail(f"{len(records)} records, aggregate says "
             f"{aggregate['instances']} instances")
    summed = {}
    for i, record in enumerate(records):
        where = f"records[{i}]"
        check_fields(record, BATCH_RECORD, where)
        if record["status"] not in BATCH_STATUSES:
            fail(f"{where}: unknown status {record['status']!r}")
        check_run_stats(record["stats"], where)
        for key, value in counters(record["stats"]).items():
            summed[key] = summed.get(key, 0) + value
    ok = sum(r["status"] == "ok" for r in records)
    if ok != aggregate["ok"]:
        fail(f"{ok} ok records, aggregate says {aggregate['ok']}")
    for key, value in counters(aggregate["stats"]).items():
        if key not in NOT_SUMMED and summed.get(key, 0) != value:
            fail(f"aggregate stats.{key} = {value}, records sum to "
                 f"{summed.get(key, 0)}")


def compare_smoke(path, baseline_path):
    """Overlap sanity against a baseline, via bench_diff's entry identity."""
    try:
        baseline = bench_diff.load_report(baseline_path)
        report = bench_diff.load_report(path)
    except bench_diff.BenchDiffError as e:
        fail(str(e))
    base_index = bench_diff.index_entries(baseline["entries"])
    new_index = bench_diff.index_entries(report["entries"])
    matched = len(set(base_index) & set(new_index))
    if matched == 0:
        fail(f"no overlap with baseline {baseline_path} "
             f"(wrong artifact pair?)")
    print(f"validate_bench_json: compare: {matched} entries match baseline, "
          f"{len(base_index) - matched} only in baseline, "
          f"{len(new_index) - matched} only in this report")


def check_entry(entry, suites, where):
    check_fields(entry, ENTRY, where)
    if "solver" in entry:  # v2's ranked solver label, dropped in v3
        fail(f"{where}: schema v{SCHEMA_VERSION} entry still carries "
             f"'solver'")
    if entry["suite"] not in suites:
        fail(f"{where}: suite {entry['suite']!r} not in {suites}")
    if entry["status"] not in KNOWN_STATUSES:
        fail(f"{where}: unknown status {entry['status']!r}")
    if entry["n"] < 0 or entry["m"] < 0 or entry["count"] < 0:
        fail(f"{where}: negative n/m/count")
    if entry["threads"] < 1:
        fail(f"{where}: threads must be >= 1, got {entry['threads']}")
    if entry["wall_ms"] < 0 or entry["results_per_sec"] < 0:
        fail(f"{where}: negative timing")
    if entry["init_seconds"] < 0:
        fail(f"{where}: negative init_seconds")
    if entry["suite"] in STREAM_SUITES:
        if entry["count"] <= 1 and entry["results_per_sec"] != 0:
            fail(f"{where}: {entry['count']} result(s) but results_per_sec "
                 f"{entry['results_per_sec']} (after-first-result "
                 f"throughput needs two)")
        if not 0 <= entry["count_at_best"] <= entry["count"]:
            fail(f"{where}: count_at_best {entry['count_at_best']} outside "
                 f"[0, count {entry['count']}]")
        if (entry["count_at_best"] >= 1) != (entry["count"] >= 1):
            fail(f"{where}: count_at_best {entry['count_at_best']} with "
                 f"count {entry['count']}")
    elif entry["best_cost"] != 0 or entry["count_at_best"] != 0:
        fail(f"{where}: {entry['suite']} entry ranks nothing but has "
             f"best_cost {entry['best_cost']} / count_at_best "
             f"{entry['count_at_best']}")
    if not 0 <= entry["cache_hit_rate"] <= 1:
        fail(f"{where}: cache_hit_rate {entry['cache_hit_rate']} "
             f"outside [0, 1]")
    if any(entry[k] < 0 for k in ("candidate_evals", "combine_calls",
                                  "index_updates", "range_queries")):
        fail(f"{where}: negative solver counter")
    if entry["suite"] == "appcost":
        if entry["cost"] not in APPCOST_COSTS:
            fail(f"{where}: appcost entry has cost {entry['cost']!r}, "
                 f"expected one of {sorted(APPCOST_COSTS)}")
    if entry["suite"] == "ckk":
        if entry["cost"] != "width" or entry["threads"] != 1:
            fail(f"{where}: ckk entry must rank by width at 1 thread, got "
                 f"{entry['cost']!r} at {entry['threads']}")
    if entry["suite"] == "huge":
        if entry["tier"] not in KNOWN_TIERS:
            fail(f"{where}: huge entry has tier {entry['tier']!r}, "
                 f"expected one of {sorted(KNOWN_TIERS)}")
        if entry["n"] < 1000:
            fail(f"{where}: huge entry has n={entry['n']}, "
                 f"expected a PACE-scale graph (n >= 1000)")
    elif entry["tier"]:
        fail(f"{where}: non-huge entry has tier {entry['tier']!r}")


def check_ckk_claims(entries):
    """The paper's claims, per ckk entry against each ranked entry of the
    same graph. Returns the number of pairs checked."""
    ranked = {}
    for entry in entries:
        if entry["suite"] == "ranked":
            ranked.setdefault((entry["family"], entry["graph"]),
                              []).append(entry)
    pairs = 0
    for ckk in (e for e in entries if e["suite"] == "ckk"):
        for r in ranked.get((ckk["family"], ckk["graph"]), []):
            pairs += 1
            where = (f"ckk vs ranked[t={r['threads']}] "
                     f"{ckk['family']}/{ckk['graph']}")
            if r["status"] == "complete" and ckk["status"] == "complete":
                if (ckk["count"], ckk["count_at_best"]) != (
                        r["count"], r["count_at_best"]):
                    fail(f"{where}: both complete, but ckk has "
                         f"{ckk['count']} results ({ckk['count_at_best']} "
                         f"optimal), ranked {r['count']} "
                         f"({r['count_at_best']} optimal)")
            if ckk["count"] == 0 or r["count"] == 0:
                continue
            if ckk["best_cost"] < r["best_cost"]:
                fail(f"{where}: ckk best_cost {ckk['best_cost']} is below "
                     f"ranked's first result {r['best_cost']}")
            # Past its optimum, the ranked stream returned every optimal
            # result; CKK has some only when it reached the same cost.
            moved_past = (r["status"] == "complete"
                          or r["count"] > r["count_at_best"])
            if (moved_past and ckk["best_cost"] == r["best_cost"]
                    and ckk["count_at_best"] > r["count_at_best"]):
                fail(f"{where}: ckk found {ckk['count_at_best']} results "
                     f"at cost {ckk['best_cost']}, ranked only "
                     f"{r['count_at_best']} although it moved past them")
    return pairs


def validate_report(path, smoke=False, compare_baseline=None):
    report = load_json(path)

    check_fields(report, TOP_LEVEL, "top level")
    if report["schema_version"] != SCHEMA_VERSION:
        fail(f"unsupported schema_version {report['schema_version']}")
    if not report["git_sha"]:
        fail("git_sha is empty")
    if report["time_scale"] <= 0:
        fail(f"time_scale must be positive, got {report['time_scale']}")
    if smoke and not report["smoke"]:
        fail("expected a --smoke report")

    suites = report["suites"]
    if not suites or not set(suites) <= KNOWN_SUITES:
        fail(f"suites must be a non-empty subset of {sorted(KNOWN_SUITES)}, "
             f"got {suites}")

    entries = report["entries"]
    if not entries:
        fail("entries is empty")
    # bench_diff indexes entries by their identity, keeping only the last
    # of two that share one.
    first_of = {}
    for i, entry in enumerate(entries):
        check_entry(entry, suites, f"entries[{i}]")
        key = bench_diff.entry_key(entry)
        if key in first_of:
            fail(f"entries[{i}]: duplicates entries[{first_of[key]}] "
                 f"(suite, family, graph, threads, solver, cost, tier) "
                 f"{key}")
        first_of[key] = i
    pairs = check_ckk_claims(entries)

    # In the CI smoke gate a suite without entries silently stopped
    # running, and so did the claims when no ckk entry met a ranked one.
    per_suite = {s: sum(1 for e in entries if e["suite"] == s)
                 for s in suites}
    if smoke:
        for suite, count in per_suite.items():
            if count == 0:
                fail(f"smoke report has no {suite} entries")
        if {"ranked", "ckk"} <= set(suites) and pairs == 0:
            fail("smoke report pairs no ckk entry with a ranked entry")
    print(f"validate_bench_json: OK: {len(entries)} entries "
          f"({', '.join(f'{s}: {c}' for s, c in sorted(per_suite.items()))}), "
          f"{pairs} ckk-vs-ranked pairs checked, git {report['git_sha']}")

    if compare_baseline is not None:
        compare_smoke(path, compare_baseline)


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    smoke = "--smoke" in sys.argv[1:]
    batch_stats = "--batch-stats" in sys.argv[1:]
    compare_baseline = None
    for a in sys.argv[1:]:
        if a.startswith("--compare="):
            compare_baseline = a[len("--compare="):]
    if batch_stats and len(args) in (1, 2):
        validate_batch_stats(*args)
        return
    if batch_stats or len(args) != 1:
        fail("usage: validate_bench_json.py [--smoke] [--compare=BASELINE] "
             "BENCH_core.json | --batch-stats STATS.json [RECORDS.jsonl]")
    validate_report(args[0], smoke, compare_baseline)


if __name__ == "__main__":
    main()
