#ifndef MINTRI_BENCH_BENCH_SUITES_H_
#define MINTRI_BENCH_BENCH_SUITES_H_

#include <ostream>
#include <string>
#include <vector>

namespace mintri {
namespace bench {

/// One benchmarked (suite, graph) pair of BENCH_core.json.
struct BenchEntry {
  std::string suite;   // one of AllSuiteNames()
  std::string family;  // workload family name (Fig. 5 naming)
  std::string graph;   // graph name within the family
  int n = 0;           // vertices
  int m = 0;           // edges
  int threads = 1;     // enumeration worker threads for this run
  long long count = 0;          // results produced within budget
  /// Wall time of the measured stage: the drain for the stream suites (the
  /// build, when it failed), the listing for minseps, the PMC stage for pmc
  /// (the MinSep stage, when it gave up).
  double wall_ms = 0.0;
  /// The stream suites (ranked, ckk, appcost, huge): results per second
  /// *after the first result*, the paper's Table 2 measure, 0 when
  /// count <= 1. minseps/pmc: count / wall seconds.
  double results_per_sec = 0.0;
  /// Context initialization (seconds, summed over the enumerator's context
  /// builds) for the ranked suites, the enumerator's construction for ckk;
  /// 0 elsewhere.
  double init_seconds = 0.0;
  /// The ranking cost ("width" for ranked/ckk/huge; "hypertree" | "fhw" |
  /// "state-space" for appcost entries; empty for the enumeration-only
  /// suites, which rank nothing).
  std::string cost;
  /// The stream suites: the least cost among the drained results, and how
  /// many results had it (both 0 when nothing came out, and for
  /// minseps/pmc). A ranked stream's first result is optimal and its
  /// optimal results form a prefix; CKK promises neither, which is what
  /// scripts/validate_bench_json.py checks between a graph's ckk and ranked
  /// entries.
  double best_cost = 0.0;
  long long count_at_best = 0;
  /// Memoized bag-score cache hit rate in [0, 1] (appcost entries under
  /// the edge-cover costs; 0 where no cache runs).
  double cache_hit_rate = 0.0;
  /// Solver repair cost of the ranked suites' streams (0 for minseps/pmc):
  /// candidate evaluations, evaluations that reached the base Combine, and
  /// the segment-tree point updates / range-min queries.
  long long candidate_evals = 0;
  long long combine_calls = 0;
  long long index_updates = 0;
  long long range_queries = 0;
  /// "complete" | "truncated" | "ms-terminated" | "pmc-terminated"
  /// (the last two are the Fig. 5 taxonomy of which init stage gave up).
  std::string status;
  /// The tiered pipeline's truthful stream label for the huge suite
  /// ("exact" | "atom-exact" | "heuristic"); empty for the suites that run
  /// --tier=exact.
  std::string tier;
};

/// The machine-readable benchmark report (serialized as BENCH_core.json).
/// Schema history: v2 added the per-entry solver + repair-counter fields,
/// then the huge suite's per-entry tier label (same version: the field is
/// emitted for every entry); v3 added the ckk suite and the per-entry
/// best_cost / count_at_best, and dropped solver.
struct BenchReport {
  int schema_version = 3;
  std::string git_sha;
  double time_scale = 1.0;
  bool smoke = false;
  std::vector<std::string> suites;
  std::vector<BenchEntry> entries;
};

struct BenchRunOptions {
  /// Subset of AllSuiteNames(); empty means all.
  std::vector<std::string> suites;
  /// Smoke mode: a few cheap families, capped graphs per family, and
  /// budgets scaled down — sized for a CI gate, not for trend analysis.
  bool smoke = false;
  /// Worker threads. 0 (the default) sweeps the minseps/pmc/ranked suites
  /// over {1, parallel::DefaultParallelThreads()} so the report always
  /// carries a serial baseline next to the parallel numbers; a positive
  /// value runs every suite but the serial ckk at exactly that count.
  int threads = 0;
};

const std::vector<std::string>& AllSuiteNames();
bool IsKnownSuite(const std::string& name);

/// Runs the selected suites over the src/workloads families. When `progress`
/// is non-null, one line per (suite, graph) is streamed to it.
BenchReport RunBenchSuites(const BenchRunOptions& options,
                           std::ostream* progress);

/// Serializes the report as pretty-printed JSON (the BENCH_core.json
/// schema; see README "Benchmarks" and scripts/validate_bench_json.py).
void WriteBenchJson(const BenchReport& report, std::ostream& out);

/// The git sha of the build (stamped at build time, so it follows HEAD
/// without a reconfigure); the MINTRI_GIT_SHA environment variable
/// overrides it, and "unknown" is the fallback outside a git checkout.
std::string GitSha();

}  // namespace bench
}  // namespace mintri

#endif  // MINTRI_BENCH_BENCH_SUITES_H_
