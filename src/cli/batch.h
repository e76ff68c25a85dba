#ifndef MINTRI_CLI_BATCH_H_
#define MINTRI_CLI_BATCH_H_

#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "cost/bag_cost.h"
#include "cost/cost_model_registry.h"
#include "enumeration/run_stats.h"
#include "enumeration/tiered_enum.h"

namespace mintri {

/// The query settings `mintri rank` and `mintri batch` share, and the
/// batch's fan-out: RunBatch rank-enumerates every instance of a list,
/// fanning instances across a thread pool (parallel *across* queries;
/// per-instance context construction is serial by default and parallel when
/// inner_threads > 1). Output order — and every ranked result — is
/// independent of the thread split.
struct BatchOptions {
  std::string cost = "width";  // registry cost name
  std::string tier = "auto";   // solve pipeline: auto|exact|heuristic
  long long top = 3;           // ranked results per instance
  /// Caps each MinSep/PMC stage, and is the exact budget
  /// (TierOptions::exact_budget_seconds): the wall time from the start of
  /// construction, Tier 0 included, after which no exact build starts.
  double time_limit = 30.0;
  int threads = 1;             // instances processed concurrently
  int inner_threads = 1;       // context-build threads within one instance
  int width_bound = -1;        // MinTriangB width bound (-1: none)
  /// Per-instance wall budget in seconds (0 = none), polled by every stage
  /// of the query.
  double deadline = 0;
};

/// One instance's outcome (one JSON record in the batch report).
struct BatchRecord {
  std::string instance;  // the spec as listed
  std::string cost_name;
  /// "ok" | "load-error" | "cost-error" | "init-failed" | "timeout". A
  /// "timeout" record is an instance the --deadline cut short: it carries
  /// the results emitted before the budget ran out (possibly none).
  std::string status;
  std::string error;  // human-readable detail for non-ok statuses
  int n = 0;
  int m = 0;
  /// The stream's truthful tier label ("exact" | "atom-exact" |
  /// "heuristic"); empty for records that never reached the solver.
  std::string tier;
  /// The query's telemetry; zeros for records that never reached the
  /// solver.
  RunStats stats;
  struct Row {
    int rank = 0;
    CostValue cost = 0;
    int width = 0;
    long long fill = 0;
    int bags = 0;
  };
  std::vector<Row> results;
};

/// The one query path of rank and batch: builds the cost model and the
/// tiered enumerator (the deadline clock starts here), hands each of the
/// first options.top results to on_result with its 1-based rank, and
/// returns the record minus `instance` and `results`. Status "cost-error"
/// includes width-then-fill on a disconnected graph: it encodes (width,
/// fill) in one number, so no CostComposition is exact across components.
BatchRecord RunQuery(
    const CostModelInstance& instance, const BatchOptions& options,
    const std::function<void(int rank, const TieredResult&)>& on_result);

/// The instance specs of a batch list: one per line, trimmed; blank lines
/// and '#' comments are skipped.
std::vector<std::string> ReadInstanceList(std::istream& in);

/// Runs the batch in-process. records[i] always corresponds to specs[i].
std::vector<BatchRecord> RunBatch(const std::vector<std::string>& specs,
                                  const BatchOptions& options);

/// Serializes one JSON object per record, one per line (JSON Lines).
void WriteBatchJson(const std::vector<BatchRecord>& records,
                    std::ostream& out);

/// `mintri batch <file-of-instances>`: args are everything after "batch".
int RunBatchCommand(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err);

}  // namespace mintri

#endif  // MINTRI_CLI_BATCH_H_
