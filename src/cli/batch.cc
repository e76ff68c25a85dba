#include "cli/batch.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "cli/flags.h"
#include "parallel/thread_pool.h"
#include "util/json_util.h"
#include "util/timer.h"

namespace mintri {

namespace {

// Infinite costs (uncoverable bags under hypertree/fhw) have no JSON float
// representation; they serialize as null.
void AppendJsonCost(CostValue v, std::ostream& out) {
  if (std::isinf(v) || std::isnan(v)) {
    out << "null";
    return;
  }
  std::ostringstream os;
  os.precision(12);
  os << v;
  out << os.str();
}


// The aggregate over one run, one JSON line: the run's shape, the per-tier
// tallies and every record's stats accumulated. Validated by
// scripts/validate_bench_json.py --batch-stats.
void WriteBatchAggregate(const std::vector<BatchRecord>& records,
                         const BatchOptions& options, double wall_seconds,
                         std::ostream& out) {
  size_t ok = 0;
  std::map<std::string, int> tiers;
  RunStats total;
  for (const BatchRecord& r : records) {
    ok += r.status == "ok";
    ++tiers[r.tier];
    total.Accumulate(r.stats);
  }
  out << "{\"batch_stats_version\": 3, \"threads\": " << options.threads
      << ", \"inner_threads\": " << options.inner_threads << ", \"cost\": ";
  AppendJsonString(options.cost, out);
  out << ", \"instances\": " << records.size() << ", \"ok\": " << ok
      << ", \"failed\": " << records.size() - ok
      << ", \"wall_seconds\": " << wall_seconds
      << ", \"tier_exact\": " << tiers["exact"]
      << ", \"tier_atom_exact\": " << tiers["atom-exact"]
      << ", \"tier_heuristic\": " << tiers["heuristic"] << ", \"stats\": ";
  WriteRunStatsJson(total, out);
  out << "}\n";
}

constexpr char kBatchUsage[] =
    "usage: mintri batch <file-of-instances> [options]\n"
    "\n"
    "Rank-enumerates every instance listed in the file (one spec per line;\n"
    "'#' comments). A spec is a path (.gr graph, .hg hypergraph, .uai\n"
    "factor list) or a builtin: tpch:<q> (TPC-H query hypergraph),\n"
    "tpch-graph:<q> (join graph), gm:<name> (graphical model). Instances\n"
    "fan out across a thread pool — parallel across queries — and one JSON\n"
    "record per instance is emitted in input order, identical at every\n"
    "--threads value.\n"
    "\n"
    "  --cost=NAME        width|fill|width-then-fill|state-space|\n"
    "                     hypertree|fhw              (default width)\n"
    "  --top=K            ranked results per instance (default 3)\n"
    "  --threads=N        instances processed concurrently (default 1)\n"
    "  --inner-threads=N  context-build threads per instance (default 1)\n"
    "  --deadline=SEC     per-instance wall budget that every stage polls;\n"
    "                     an instance cut short is a timeout record with\n"
    "                     the results it emitted so far (default: none)\n"
    "  --time-limit=SEC   per-stage initialization budget (default 30)\n"
    "  --tier=auto|exact|heuristic  solve pipeline per instance (default\n"
    "                     auto); see `mintri rank --help`. Each record\n"
    "                     carries the truthful tier label\n"
    "  --stats            the aggregate stats as one JSON line on stderr\n"
    "  --stats-json=FILE  the same aggregate object, written to FILE\n"
    "                     (validated by scripts/validate_bench_json.py\n"
    "                     --batch-stats)\n"
    "  --out=FILE         output path (default '-' for stdout)\n"
    "  --help             show this message and exit\n";

}  // namespace

BatchRecord RunQuery(
    const CostModelInstance& instance, const BatchOptions& options,
    const std::function<void(int rank, const TieredResult&)>& on_result) {
  // The query's wall budget, polled by every stage.
  const Deadline deadline =
      options.deadline > 0 ? Deadline(options.deadline) : Deadline::Never();
  const Graph& g = instance.graph;
  BatchRecord record;
  record.cost_name = options.cost;
  record.n = g.NumVertices();
  record.m = g.NumEdges();

  std::string error;
  std::optional<CostModel> model =
      MakeCostModel(options.cost, instance, /*enable_cache=*/true, &error);
  if (model.has_value() && options.cost == "width-then-fill" &&
      g.ConnectedComponents().size() > 1) {
    model.reset();
    error = "width-then-fill requires a connected graph";
  }
  if (!model.has_value()) {
    record.status = "cost-error";
    record.error = error;
    return record;
  }
  ContextOptions context;
  context.width_bound = options.width_bound;
  context.separator_limits.time_limit_seconds = options.time_limit;
  context.pmc_limits.time_limit_seconds = options.time_limit;
  context.num_threads = options.inner_threads;
  TierOptions tier;
  if (options.tier == "exact") tier.mode = TierOptions::Mode::kExact;
  if (options.tier == "heuristic") tier.mode = TierOptions::Mode::kHeuristic;
  tier.decomposable_cost = IsTierDecomposableCost(options.cost);
  tier.exact_budget_seconds = options.time_limit;
  tier.deadline = &deadline;
  TieredEnumerator enumerator(g, *model->cost, model->composition, context,
                              SolverOptions{}, tier);

  long long delivered = 0;
  if (enumerator.init_ok()) {
    record.tier = TierName(enumerator.tier());
    for (; delivered < options.top; ++delivered) {
      std::optional<TieredResult> t = enumerator.Next();
      if (!t.has_value()) break;
      on_result(static_cast<int>(delivered + 1), *t);
    }
  }
  record.stats = enumerator.stats();
  if (model->cache != nullptr) record.stats.cache = model->cache->stats();
  // A deadline that cut construction, or the stream before it delivered
  // every requested row.
  if (enumerator.truncated() && delivered < options.top) {
    std::ostringstream detail;
    detail << "--deadline=" << options.deadline
           << " expired before the instance finished";
    record.status = "timeout";
    record.error = detail.str();
  } else if (!enumerator.init_ok()) {
    record.status = "init-failed";
    record.error = record.stats.exact.TerminationName();
  } else {
    record.status = "ok";
  }
  return record;
}

std::vector<std::string> ReadInstanceList(std::istream& in) {
  std::vector<std::string> specs;
  std::string line;
  while (std::getline(in, line)) {
    const size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '#') continue;
    const size_t end = line.find_last_not_of(" \t\r");
    specs.push_back(line.substr(begin, end - begin + 1));
  }
  return specs;
}

std::vector<BatchRecord> RunBatch(const std::vector<std::string>& specs,
                                  const BatchOptions& options) {
  std::vector<BatchRecord> records(specs.size());
  std::atomic<size_t> cursor{0};
  const int threads = std::min(options.threads, static_cast<int>(specs.size()));
  parallel::RunOnThreads(threads, [&](int) {
    while (true) {
      const size_t i = cursor.fetch_add(1);
      if (i >= specs.size()) break;
      BatchRecord& record = records[i];
      std::string error;
      std::optional<CostModelInstance> instance =
          LoadInstance(specs[i], &error);
      if (instance.has_value()) {
        std::vector<BatchRecord::Row> rows;
        record = RunQuery(
            *instance, options, [&](int rank, const TieredResult& t) {
              const Triangulation& h = t.triangulation;
              rows.push_back({rank, h.cost, h.Width(),
                              h.FillIn(instance->graph),
                              static_cast<int>(h.bags.size())});
            });
        record.results = std::move(rows);
      } else {
        record.cost_name = options.cost;
        record.status = "load-error";
        record.error = error;
      }
      record.instance = specs[i];
    }
  });
  return records;
}

void WriteBatchJson(const std::vector<BatchRecord>& records,
                    std::ostream& out) {
  for (const BatchRecord& r : records) {
    out << "{\"instance\": ";
    AppendJsonString(r.instance, out);
    out << ", \"cost\": ";
    AppendJsonString(r.cost_name, out);
    out << ", \"status\": ";
    AppendJsonString(r.status, out);
    out << ", \"n\": " << r.n << ", \"m\": " << r.m << ", \"tier\": ";
    AppendJsonString(r.tier, out);
    if (!r.error.empty()) {
      out << ", \"error\": ";
      AppendJsonString(r.error, out);
    }
    out << ", \"stats\": ";
    WriteRunStatsJson(r.stats, out);
    out << ", \"results\": [";
    for (size_t i = 0; i < r.results.size(); ++i) {
      const BatchRecord::Row& row = r.results[i];
      if (i > 0) out << ", ";
      out << "{\"rank\": " << row.rank << ", \"cost\": ";
      AppendJsonCost(row.cost, out);
      out << ", \"width\": " << row.width << ", \"fill\": " << row.fill
          << ", \"bags\": " << row.bags << "}";
    }
    out << "]}\n";
  }
}

int RunBatchCommand(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  BatchOptions options;
  bool stats = false;
  std::string stats_json;  // aggregate-stats JSON output path ("" = off)
  std::string list_path;
  std::string out_path = "-";
  const std::vector<flags::Flag> table = {
      {"--cost", flags::Text(&options.cost)},
      {"--top", flags::Count(&options.top)},
      {"--threads", flags::Threads(&options.threads)},
      {"--inner-threads", flags::Threads(&options.inner_threads)},
      {"--deadline", flags::Seconds(&options.deadline)},
      {"--time-limit", flags::Seconds(&options.time_limit)},
      {"--tier", flags::OneOf(&options.tier, {"auto", "exact", "heuristic"})},
      {"--stats", nullptr, &stats},
      {"--stats-json",
       [&](const std::string& value) -> std::optional<std::string> {
         stats_json = value;
         if (value.empty()) return "expected a file path";
         return std::nullopt;
       }},
      {"--out", flags::Text(&out_path)},
  };
  if (std::optional<int> exit = flags::Parse(
          args, table, flags::OnePath(&list_path), kBatchUsage, out, err)) {
    return *exit;
  }
  if (list_path.empty()) {
    err << kBatchUsage;
    return 1;
  }

  std::ifstream list(list_path);
  if (!list) {
    err << "cannot open " << list_path << "\n";
    return 1;
  }
  const std::vector<std::string> specs = ReadInstanceList(list);
  if (specs.empty()) {
    err << list_path << ": no instances listed\n";
    return 1;
  }

  std::ofstream file;
  if (out_path != "-") {
    file.open(out_path);
    if (!file) {
      err << "cannot write " << out_path << "\n";
      return 1;
    }
  }
  std::ostream& sink = out_path == "-" ? out : file;

  WallTimer timer;
  const std::vector<BatchRecord> records = RunBatch(specs, options);
  WriteBatchJson(records, sink);
  std::ostringstream aggregate;
  WriteBatchAggregate(records, options, timer.Seconds(), aggregate);

  size_t failed = 0;
  for (const BatchRecord& r : records) {
    if (r.status == "ok") continue;
    ++failed;
    err << r.instance << ": " << r.status
        << (r.error.empty() ? "" : " (" + r.error + ")") << "\n";
  }
  if (stats) err << aggregate.str();
  if (!stats_json.empty()) {
    std::ofstream stats_file(stats_json);
    if (!stats_file) {
      err << "cannot write " << stats_json << "\n";
      return 1;
    }
    stats_file << aggregate.str();
  }
  err << records.size() - failed << "/" << records.size()
      << " instances ranked (cost " << options.cost << ", " << options.threads
      << " threads)\n";
  return failed == 0 ? 0 : 2;
}

}  // namespace mintri
