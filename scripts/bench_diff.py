#!/usr/bin/env python3
"""Diff two BENCH_core.json reports and flag performance regressions.

Usage: bench_diff.py [--threshold=PCT] [--json=FILE] BASELINE.json CURRENT.json

Matches entries across the two reports on (suite, family, graph, threads,
solver, cost, tier), groups the matches by (suite, family), and prints a markdown delta
table of per-family median ratios (solver stays in the key because v1/v2
reports also carry "scan" ranked entries of the retired list-scan solver):

  * results_per_sec — higher is better; the regression gate.
  * init_seconds    — lower is better; gated too, but entries whose baseline
                      init is under a small floor (0.01 s) are skipped as
                      timer noise.
  * cache_hit_rate  — informational only (absolute delta).

With --json=FILE the same per-family rows (plus the git shas, threshold,
and match counts) are additionally written to FILE as one machine-readable
JSON document, so CI can upload the delta as an artifact and the cross-PR
perf trajectory can be assembled by concatenating those files instead of
re-parsing markdown tables.

Exit status: 0 when no family regresses past the threshold (default 25%),
1 when at least one does, 2 on usage/IO errors or when the two reports
share no entries at all (e.g. diffing unrelated artifacts). --json output
is written for statuses 0 and 1 (a regression is still a valid delta).

Schema_version 1, 2 and 3 reports load; v1 entries simply key with empty
solver/cost fields, so a v1-vs-v2 diff degrades to the overlapping subset
instead of erroring out. v3 dropped the solver field, which v2 set to
"indexed" on every current ranked entry; load_report gives v3 ranked
entries that label back, so a v2 baseline still matches a v3 report. validate_bench_json.py imports entry_key /
index_entries from here for its duplicate-entry check and its --compare
smoke hook, so the two tools can never disagree about what "the same benchmark point" means.
"""

import argparse
import json
import statistics
import sys

# Baseline init times under this are dominated by timer resolution; a 25%
# "regression" on 2 ms of setup is noise, not signal.
INIT_FLOOR_SECONDS = 0.01


class BenchDiffError(Exception):
    """IO/usage-level failure: maps to exit status 2."""


def load_report(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise BenchDiffError(f"cannot parse {path}: {e}")
    if not isinstance(report, dict) or not isinstance(
            report.get("entries"), list):
        raise BenchDiffError(f"{path}: not a bench report (no entries list)")
    version = report.get("schema_version")
    if version not in (1, 2, 3):
        raise BenchDiffError(f"{path}: unsupported schema_version {version!r}")
    if version >= 3:
        for entry in report["entries"]:
            if entry.get("suite") == "ranked":
                entry.setdefault("solver", "indexed")
    return report


def entry_key(entry):
    """Identity of one benchmark point, stable across schema versions. The
    family is part of it, so a graph listed under two families counts as two
    points."""
    return (entry.get("suite", ""), entry.get("family", ""),
            entry.get("graph", ""), entry.get("threads", 0),
            entry.get("solver", ""), entry.get("cost", ""),
            entry.get("tier", ""))


def index_entries(entries):
    return {entry_key(e): e for e in entries}


def _family_of(entry):
    return (entry.get("suite", ""), entry.get("family", ""))


def compare(base_report, new_report, threshold_pct,
            init_floor=INIT_FLOOR_SECONDS):
    """Returns {rows, matched, base_only, new_only, regressions}."""
    base_index = index_entries(base_report["entries"])
    new_index = index_entries(new_report["entries"])
    matched_keys = sorted(set(base_index) & set(new_index))

    families = {}
    for key in matched_keys:
        b, n = base_index[key], new_index[key]
        fam = families.setdefault(_family_of(b),
                                  {"count": 0, "throughput": [], "init": [],
                                   "cache": []})
        fam["count"] += 1
        if b.get("results_per_sec", 0) > 0 and n.get("results_per_sec",
                                                     0) > 0:
            fam["throughput"].append(
                n["results_per_sec"] / b["results_per_sec"])
        if b.get("init_seconds", 0) >= init_floor:
            fam["init"].append(n.get("init_seconds", 0) / b["init_seconds"])
        if "cache_hit_rate" in b and "cache_hit_rate" in n:
            fam["cache"].append(n["cache_hit_rate"] - b["cache_hit_rate"])

    throughput_gate = 1.0 - threshold_pct / 100.0
    init_gate = 1.0 + threshold_pct / 100.0
    rows = []
    regressions = []
    for (suite, family), samples in sorted(families.items()):
        label = f"{suite}/{family}" if family else suite
        row = {
            "family": label,
            "count": samples["count"],
            "throughput_ratio": statistics.median(samples["throughput"])
                                if samples["throughput"] else None,
            "init_ratio": statistics.median(samples["init"])
                          if samples["init"] else None,
            "cache_delta": statistics.median(samples["cache"])
                           if samples["cache"] else None,
            "reasons": [],
        }
        if (row["throughput_ratio"] is not None
                and row["throughput_ratio"] < throughput_gate):
            row["reasons"].append(
                f"throughput {row['throughput_ratio']:.2f}x < "
                f"{throughput_gate:.2f}x")
        if row["init_ratio"] is not None and row["init_ratio"] > init_gate:
            row["reasons"].append(
                f"init {row['init_ratio']:.2f}x > {init_gate:.2f}x")
        if row["reasons"]:
            regressions.append(row)
        rows.append(row)

    return {
        "rows": rows,
        "matched": len(matched_keys),
        "base_only": len(base_index) - len(matched_keys),
        "new_only": len(new_index) - len(matched_keys),
        "regressions": regressions,
    }


def _fmt_ratio(value):
    return f"{value:.2f}x" if value is not None else "n/a"


def render_markdown(result, base_report, new_report, threshold_pct):
    lines = [
        f"### Bench diff: `{base_report.get('git_sha', '?')}` → "
        f"`{new_report.get('git_sha', '?')}` "
        f"(median per family, gate ±{threshold_pct:g}%)",
        "",
        "| family | entries | throughput (new/base) | init (new/base) "
        "| cache Δ | verdict |",
        "|---|---|---|---|---|---|",
    ]
    for row in result["rows"]:
        cache = (f"{row['cache_delta']:+.3f}"
                 if row["cache_delta"] is not None else "n/a")
        verdict = ("REGRESSION: " + "; ".join(row["reasons"])
                   if row["reasons"] else "ok")
        lines.append(f"| {row['family']} | {row['count']} "
                     f"| {_fmt_ratio(row['throughput_ratio'])} "
                     f"| {_fmt_ratio(row['init_ratio'])} "
                     f"| {cache} | {verdict} |")
    lines.append("")
    lines.append(f"Matched {result['matched']} entries; "
                 f"{result['base_only']} only in baseline; "
                 f"{result['new_only']} only in current.")
    return "\n".join(lines) + "\n"


def render_json(result, base_report, new_report, threshold_pct):
    """The machine-readable twin of render_markdown: same rows, plus the
    identifying metadata a trajectory collector needs. `reasons` is kept
    verbatim so a regression's verdict survives the round-trip."""
    return {
        "schema_version": 1,
        "kind": "bench_diff",
        "base_git_sha": base_report.get("git_sha", ""),
        "new_git_sha": new_report.get("git_sha", ""),
        "threshold_pct": threshold_pct,
        "matched": result["matched"],
        "base_only": result["base_only"],
        "new_only": result["new_only"],
        "regressed": bool(result["regressions"]),
        "families": result["rows"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_core.json reports.")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=25.0,
                        metavar="PCT",
                        help="regression gate in percent (default 25)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write the per-family delta as JSON to "
                             "FILE (written on exit status 0 and 1)")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2
    if not 0 < args.threshold < 100:
        print("bench_diff: --threshold must be in (0, 100)", file=sys.stderr)
        return 2

    try:
        base_report = load_report(args.baseline)
        new_report = load_report(args.current)
    except BenchDiffError as e:
        print(f"bench_diff: FAIL: {e}", file=sys.stderr)
        return 2

    result = compare(base_report, new_report, args.threshold)
    if result["matched"] == 0:
        print("bench_diff: FAIL: the two reports share no entries "
              "(wrong artifact pair?)", file=sys.stderr)
        return 2

    sys.stdout.write(
        render_markdown(result, base_report, new_report, args.threshold))
    if args.json is not None:
        doc = render_json(result, base_report, new_report, args.threshold)
        try:
            with open(args.json, "w") as f:
                json.dump(doc, f, indent=2)
                f.write("\n")
        except OSError as e:
            print(f"bench_diff: FAIL: cannot write {args.json}: {e}",
                  file=sys.stderr)
            return 2
    if result["regressions"]:
        names = ", ".join(r["family"] for r in result["regressions"])
        print(f"bench_diff: REGRESSION in {names}", file=sys.stderr)
        return 1
    print(f"bench_diff: OK: {result['matched']} entries, "
          f"{len(result['rows'])} families within ±{args.threshold:g}%",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
