#ifndef MINTRI_CLI_BATCH_H_
#define MINTRI_CLI_BATCH_H_

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "cost/bag_cost.h"
#include "enumeration/run_stats.h"

namespace mintri {

/// The multi-query driver behind `mintri batch`: rank-enumerates every
/// instance of a list, fanning instances across the PR-3 thread pool
/// (parallel *across* queries; per-instance context construction is serial
/// by default and parallel when inner_threads > 1). Output order — and every
/// ranked result — is independent of the thread split.
struct BatchOptions {
  std::string cost = "width";
  long long top = 3;           // ranked results per instance
  double time_limit = 30.0;    // per-stage context budget, seconds
  int threads = 1;             // instances processed concurrently
  int inner_threads = 1;       // context-build threads within one instance
  double deadline = 0;         // per-instance wall budget, seconds (0 = none)
  bool stats = false;          // aggregate stats line on stderr
  std::string stats_json;      // aggregate-stats JSON output path ("" = off)
  std::string tier = "auto";   // solve pipeline: auto|exact|heuristic
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
