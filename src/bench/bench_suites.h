#ifndef MINTRI_BENCH_BENCH_SUITES_H_
#define MINTRI_BENCH_BENCH_SUITES_H_

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "enumeration/tiered_enum.h"
#include "graph/graph.h"
#include "triang/context.h"
#include "util/timer.h"

namespace mintri {
namespace bench {

/// All wall-clock budgets in the benchmark harness are the paper's limits
/// scaled down so a full run finishes in minutes (the paper's Section 7 runs
/// take server-days). MINTRI_TIME_SCALE multiplies every budget (e.g.
/// MINTRI_TIME_SCALE=10 for a slower, more faithful run).
double TimeScale();

/// Scaled stand-ins for the paper's limits.
double MinSepBudget();  // paper: 60 s
double PmcBudget();     // paper: 30 min
double EnumBudget();    // paper: 30 min

/// Result-count caps shared by the JSON pipeline and the paper-figure
/// benches, so both harnesses always measure under the same ceilings.
inline constexpr size_t kMaxSeparators = 200000;
inline constexpr size_t kMaxResults = 100000;

/// Context limits for a ranked run: `budget` seconds for each of the
/// MinSep and PMC stages, kMaxSeparators separators, `threads` workers.
ContextOptions BudgetedContextOptions(double budget, int threads);

/// The --tier=exact pipeline (RankedTriang): one exact context per
/// connected component, no Tier 0, no fallback.
TierOptions ExactTier();

/// What one budgeted drain of a ranked stream measured.
struct DrainStats {
  long long count = 0;
  double wall_seconds = 0;          // since the drain started
  double first_result_seconds = 0;  // 0 when nothing came out
  /// Next() ran dry and no deadline cut the stream short.
  bool complete = false;

  /// Results per second after the first one (the paper's Table 2
  /// enumeration rate); 0 unless at least two results came out.
  double ResultsPerSec() const {
    return count > 1 && wall_seconds > first_result_seconds
               ? (count - 1) / (wall_seconds - first_result_seconds)
               : 0.0;
  }
};

/// The one timed drain loop behind every ranked number the benches report,
/// suites and paper figures alike. The budget clock starts here, after the
/// caller built `source`, and the same budget is its solver Deadline. Pulls
/// Next() until the stream runs dry, the budget is spent, or kMaxResults
/// results came out; `on_result(result, seconds)` sees each result with its
/// time since the drain started. `Source` provides Next() (a std::optional),
/// SetDeadline(const Deadline*) and truncated().
template <typename Source, typename OnResult>
DrainStats DrainStream(Source& source, double budget, OnResult&& on_result) {
  DrainStats stats;
  const Deadline deadline(budget);
  source.SetDeadline(&deadline);
  WallTimer timer;
  while (timer.Seconds() < budget &&
         stats.count < static_cast<long long>(kMaxResults)) {
    auto result = source.Next();
    if (!result.has_value()) {
      stats.complete = !source.truncated();
      break;
    }
    const double seconds = timer.Seconds();
    if (++stats.count == 1) stats.first_result_seconds = seconds;
    on_result(*result, seconds);
  }
  stats.wall_seconds = timer.Seconds();
  source.SetDeadline(nullptr);
  return stats;
}

/// One MinSep-then-PMC run, the pmc suite's entry and Fig. 5's tractability
/// probe: the minimal separators under MinSepBudget() and kMaxSeparators,
/// then, only when those completed, the PMCs under PmcBudget() (both
/// budgets times `budget_factor`).
struct PmcProbe {
  bool separators_complete = false;
  bool pmcs_complete = false;  // false too when the PMC stage never ran
  size_t num_separators = 0;
  size_t num_pmcs = 0;
  double minsep_seconds = 0;
  double pmc_seconds = 0;
};
PmcProbe ProbeMinSepsThenPmcs(const Graph& g, int threads,
                              double budget_factor = 1.0);

/// One benchmarked (suite, graph) pair of BENCH_core.json.
struct BenchEntry {
  std::string suite;   // "minseps" | "pmc" | "ranked" | "appcost" | "huge"
  std::string family;  // workload family name (Fig. 5 naming)
  std::string graph;   // graph name within the family
  int n = 0;           // vertices
  int m = 0;           // edges
  int threads = 1;     // enumeration worker threads for this run
  long long count = 0;          // results produced within budget
  /// Wall time of the measured stage: the drain for the ranked suites (the
  /// build, when it failed), the listing for minseps, the PMC stage for pmc
  /// (the MinSep stage, when it gave up).
  double wall_ms = 0.0;
  /// The ranked suites (ranked, appcost, huge): results per second *after
  /// the first result*, the paper's Table 2 measure, 0 when count <= 1.
  /// minseps/pmc: count / wall seconds.
  double results_per_sec = 0.0;
  /// Context initialization (seconds, summed over the enumerator's context
  /// builds) for the ranked suites; 0 elsewhere.
  double init_seconds = 0.0;
  /// The ranking cost ("width" for ranked/huge; "hypertree" | "fhw" |
  /// "state-space" for appcost entries; empty for the enumeration-only
  /// suites, which rank nothing).
  std::string cost;
  /// Memoized bag-score cache hit rate in [0, 1] (appcost entries under
  /// the edge-cover costs; 0 where no cache runs).
  double cache_hit_rate = 0.0;
  /// The ranked suite's repair engine, "indexed"; empty for the other
  /// suites. scripts/bench_diff.py keys entries on it, and older reports
  /// also carry "scan" entries.
  std::string solver;
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
/// emitted for every entry).
struct BenchReport {
  int schema_version = 2;
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
  /// Worker threads. 0 (the default) sweeps the minseps/pmc suites over
  /// {1, parallel::DefaultParallelThreads()} so the report always carries a
  /// serial baseline next to the parallel numbers; a positive value runs
  /// every suite at exactly that thread count.
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
