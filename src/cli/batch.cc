#include "cli/batch.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "cli/flags.h"
#include "cli/tiered_query.h"
#include "cost/cost_model_registry.h"
#include "enumeration/tiered_enum.h"
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

// Marks a record the --deadline cut short.
void SetTimedOut(const BatchOptions& options, BatchRecord* record) {
  std::ostringstream error;
  error << "--deadline=" << options.deadline
        << " expired before the instance finished";
  record->status = "timeout";
  record->error = error.str();
}

BatchRecord RunOneInstance(const std::string& spec,
                           const BatchOptions& options) {
  // The instance's wall budget, polled by every stage of its query.
  const Deadline deadline =
      options.deadline > 0 ? Deadline(options.deadline) : Deadline::Never();
  BatchRecord record;
  record.instance = spec;
  record.cost_name = options.cost;

  std::string error;
  std::optional<CostModelInstance> instance = LoadInstance(spec, &error);
  if (!instance.has_value()) {
    record.status = "load-error";
    record.error = error;
    return record;
  }
  record.n = instance->graph.NumVertices();
  record.m = instance->graph.NumEdges();

  std::optional<CostModel> model =
      MakeCostModel(options.cost, *instance, /*enable_cache=*/true, &error);
  if (!model.has_value()) {
    record.status = "cost-error";
    record.error = error;
    return record;
  }
  TieredQuery query{options.cost, options.tier, options.time_limit,
                    options.inner_threads};
  query.deadline = &deadline;
  std::unique_ptr<TieredEnumerator> started =
      StartTieredQuery(instance->graph, *model, query, &error);
  if (started == nullptr) {
    record.status = "cost-error";
    record.error = error;
    return record;
  }
  TieredEnumerator& enumerator = *started;
  record.init_seconds = enumerator.init_seconds();
  if (!enumerator.init_ok()) {
    if (enumerator.truncated()) {
      SetTimedOut(options, &record);
    } else {
      record.status = "init-failed";
      record.error = enumerator.init_info().TerminationName();
    }
    return record;
  }
  record.tier = TierName(enumerator.tier());
  record.atoms = enumerator.preprocess_info().num_atoms;
  record.reduced_vertices = enumerator.preprocess_info().vertices_removed;
  record.preprocess_seconds = enumerator.preprocess_info().seconds;
  record.tier1_seconds = enumerator.tier1_seconds();
  record.tier2_seconds = enumerator.tier2_seconds();
  for (long long rank = 1; rank <= options.top; ++rank) {
    std::optional<TieredResult> t = enumerator.Next();
    if (!t.has_value()) break;
    BatchRecord::Row row;
    row.rank = static_cast<int>(rank);
    row.cost = t->triangulation.cost;
    row.width = t->triangulation.Width();
    row.fill = t->triangulation.FillIn(instance->graph);
    row.bags = static_cast<int>(t->triangulation.bags.size());
    record.results.push_back(row);
  }
  if (model->cache != nullptr) {
    const BagScoreCache::Stats stats = model->cache->stats();
    record.cache_lookups = stats.lookups;
    record.cache_hits = stats.hits;
    record.cache_misses = stats.misses;
  }
  // A stream the deadline cut before it delivered every requested row.
  if (enumerator.truncated() &&
      static_cast<long long>(record.results.size()) < options.top) {
    SetTimedOut(options, &record);
  } else {
    record.status = "ok";
  }
  return record;
}

/// Aggregate statistics over one `mintri batch` run. Serialized by
/// WriteBatchStatsJson and validated by scripts/validate_bench_json.py
/// --batch-stats.
struct BatchAggregateStats {
  int threads = 1;
  int inner_threads = 1;
  std::string cost;
  int instances = 0;
  int ok = 0;
  int failed = 0;
  double wall_seconds = 0;         // wall clock for the whole run
  double init_seconds_total = 0;   // summed over ok records
  long long cache_lookups = 0;     // summed bag-score cache counters
  long long cache_hits = 0;
  long long cache_misses = 0;
  // Tiered-pipeline tallies, summed over ok records: how many streams
  // resolved at each tier plus the Tier-0 and per-tier build wall clock.
  long long tier_exact = 0;
  long long tier_atom_exact = 0;
  long long tier_heuristic = 0;
  long long atoms_total = 0;
  long long reduced_vertices_total = 0;
  double preprocess_seconds_total = 0;
  double tier1_seconds_total = 0;
  double tier2_seconds_total = 0;

  double CacheHitRate() const {
    return cache_lookups > 0
               ? static_cast<double>(cache_hits) / cache_lookups
               : 0.0;
  }
};

BatchAggregateStats AggregateStats(const std::vector<BatchRecord>& records,
                                   const BatchOptions& options,
                                   double wall_seconds) {
  BatchAggregateStats stats;
  stats.threads = options.threads;
  stats.inner_threads = options.inner_threads;
  stats.cost = options.cost;
  stats.instances = static_cast<int>(records.size());
  stats.wall_seconds = wall_seconds;
  for (const BatchRecord& r : records) {
    if (r.status == "ok") {
      ++stats.ok;
      stats.init_seconds_total += r.init_seconds;
    } else {
      ++stats.failed;
    }
    stats.cache_lookups += r.cache_lookups;
    stats.cache_hits += r.cache_hits;
    stats.cache_misses += r.cache_misses;
    if (r.tier == "exact") ++stats.tier_exact;
    if (r.tier == "atom-exact") ++stats.tier_atom_exact;
    if (r.tier == "heuristic") ++stats.tier_heuristic;
    stats.atoms_total += r.atoms;
    stats.reduced_vertices_total += r.reduced_vertices;
    stats.preprocess_seconds_total += r.preprocess_seconds;
    stats.tier1_seconds_total += r.tier1_seconds;
    stats.tier2_seconds_total += r.tier2_seconds;
  }
  return stats;
}

// The human-readable --stats summary.
void PrintBatchStats(const BatchAggregateStats& stats, std::ostream& err) {
  err << "batch: " << stats.instances << " instances, " << stats.ok
      << " ok, " << stats.failed << " failed; threads=" << stats.threads
      << " inner-threads=" << stats.inner_threads
      << "; wall=" << stats.wall_seconds
      << "s init_total=" << stats.init_seconds_total << "s\n";
  err << "tiers: exact=" << stats.tier_exact
      << " atom-exact=" << stats.tier_atom_exact
      << " heuristic=" << stats.tier_heuristic
      << "; preprocess: atoms=" << stats.atoms_total
      << " reduced_vertices=" << stats.reduced_vertices_total
      << " wall=" << stats.preprocess_seconds_total
      << "s; builds: tier1=" << stats.tier1_seconds_total
      << "s tier2=" << stats.tier2_seconds_total << "s\n";
  err << "bag-score cache (aggregate): lookups=" << stats.cache_lookups
      << " hits=" << stats.cache_hits << " misses=" << stats.cache_misses
      << " hit_rate=" << stats.CacheHitRate() << "\n";
}

// The machine-readable --stats-json output.
void WriteBatchStatsJson(const BatchAggregateStats& stats,
                         std::ostream& out) {
  out << "{\"batch_stats_version\": 2, \"threads\": " << stats.threads
      << ", \"inner_threads\": " << stats.inner_threads << ", \"cost\": ";
  AppendJsonString(stats.cost, out);
  out << ", \"instances\": " << stats.instances << ", \"ok\": " << stats.ok
      << ", \"failed\": " << stats.failed
      << ", \"wall_seconds\": " << stats.wall_seconds
      << ", \"init_seconds_total\": " << stats.init_seconds_total
      << ", \"cache_lookups\": " << stats.cache_lookups
      << ", \"cache_hits\": " << stats.cache_hits
      << ", \"cache_misses\": " << stats.cache_misses
      << ", \"cache_hit_rate\": " << stats.CacheHitRate()
      << ", \"tier_exact\": " << stats.tier_exact
      << ", \"tier_atom_exact\": " << stats.tier_atom_exact
      << ", \"tier_heuristic\": " << stats.tier_heuristic
      << ", \"atoms\": " << stats.atoms_total
      << ", \"reduced_vertices\": " << stats.reduced_vertices_total
      << ", \"preprocess_seconds_total\": " << stats.preprocess_seconds_total
      << ", \"tier1_seconds_total\": " << stats.tier1_seconds_total
      << ", \"tier2_seconds_total\": " << stats.tier2_seconds_total
      << "}\n";
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
    "  --stats            aggregate summary on stderr\n"
    "  --stats-json=FILE  machine-readable aggregate stats (validated by\n"
    "                     scripts/validate_bench_json.py --batch-stats)\n"
    "  --mask-timings     zero init_seconds in records, for byte-exact\n"
    "                     output comparison (testing hook)\n"
    "  --out=FILE         output path (default '-' for stdout)\n"
    "  --help             show this message and exit\n";

}  // namespace

std::vector<BatchRecord> RunBatch(const std::vector<std::string>& specs,
                                  const BatchOptions& options) {
  std::vector<BatchRecord> records(specs.size());
  std::atomic<size_t> cursor{0};
  const int threads = std::max(
      1, std::min(options.threads, static_cast<int>(specs.size())));
  parallel::RunOnThreads(threads, [&](int) {
    while (true) {
      const size_t i = cursor.fetch_add(1);
      if (i >= specs.size()) break;
      records[i] = RunOneInstance(specs[i], options);
    }
  });
  if (options.mask_timings) {
    for (BatchRecord& r : records) {
      r.init_seconds = 0;
      r.preprocess_seconds = 0;
      r.tier1_seconds = 0;
      r.tier2_seconds = 0;
    }
  }
  return records;
}

namespace {

void WriteBatchRecord(const BatchRecord& r, std::ostream& out) {
  out << "{\"instance\": ";
  AppendJsonString(r.instance, out);
  out << ", \"cost\": ";
  AppendJsonString(r.cost_name, out);
  out << ", \"status\": ";
  AppendJsonString(r.status, out);
  out << ", \"n\": " << r.n << ", \"m\": " << r.m << ", \"init_seconds\": ";
  AppendJsonCost(r.init_seconds, out);
  out << ", \"cache_lookups\": " << r.cache_lookups
      << ", \"cache_hits\": " << r.cache_hits
      << ", \"cache_misses\": " << r.cache_misses << ", \"tier\": ";
  AppendJsonString(r.tier, out);
  out << ", \"atoms\": " << r.atoms
      << ", \"reduced_vertices\": " << r.reduced_vertices
      << ", \"preprocess_seconds\": ";
  AppendJsonCost(r.preprocess_seconds, out);
  out << ", \"tier1_seconds\": ";
  AppendJsonCost(r.tier1_seconds, out);
  out << ", \"tier2_seconds\": ";
  AppendJsonCost(r.tier2_seconds, out);
  if (!r.error.empty()) {
    out << ", \"error\": ";
    AppendJsonString(r.error, out);
  }
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

}  // namespace

void WriteBatchJson(const std::vector<BatchRecord>& records,
                    std::ostream& out) {
  for (const BatchRecord& r : records) WriteBatchRecord(r, out);
}

int RunBatchCommand(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  BatchOptions options;
  std::string list_path;
  std::string out_path = "-";
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      out << kBatchUsage;
      return 0;
    } else if (arg.rfind("--cost=", 0) == 0) {
      options.cost = arg.substr(7);
    } else if (arg.rfind("--top=", 0) == 0) {
      if (!flags::ParseCount(arg.substr(6), &options.top)) {
        err << "invalid value for --top: " << arg.substr(6)
            << " (expected an integer >= 1)\n";
        return 1;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!flags::ParseThreads(arg.substr(10), &options.threads)) {
        err << "invalid value for --threads: " << arg.substr(10)
            << " (expected an integer in 1.." << flags::MaxThreads()
            << ")\n";
        return 1;
      }
    } else if (arg.rfind("--inner-threads=", 0) == 0) {
      if (!flags::ParseThreads(arg.substr(16), &options.inner_threads)) {
        err << "invalid value for --inner-threads: " << arg.substr(16)
            << " (expected an integer in 1.." << flags::MaxThreads()
            << ")\n";
        return 1;
      }
    } else if (arg.rfind("--deadline=", 0) == 0) {
      if (!flags::ParseSeconds(arg.substr(11), &options.deadline)) {
        err << "invalid value for --deadline: " << arg.substr(11)
            << " (expected a positive number of seconds)\n";
        return 1;
      }
    } else if (arg.rfind("--time-limit=", 0) == 0) {
      if (!flags::ParseSeconds(arg.substr(13), &options.time_limit)) {
        err << "invalid value for --time-limit: " << arg.substr(13)
            << " (expected a positive number of seconds)\n";
        return 1;
      }
    } else if (arg.rfind("--tier=", 0) == 0) {
      options.tier = arg.substr(7);
      if (options.tier != "auto" && options.tier != "exact" &&
          options.tier != "heuristic") {
        err << "invalid value for --tier: " << options.tier
            << " (expected auto, exact, or heuristic)\n";
        return 1;
      }
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (arg.rfind("--stats-json=", 0) == 0) {
      options.stats_json = arg.substr(13);
      if (options.stats_json.empty()) {
        err << "invalid value for --stats-json: expected a file path\n";
        return 1;
      }
    } else if (arg == "--mask-timings") {
      options.mask_timings = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (!arg.empty() && arg[0] == '-') {
      err << "unknown option: " << arg << "\n";
      return 1;
    } else if (list_path.empty()) {
      list_path = arg;
    } else {
      err << "unexpected argument: " << arg << "\n";
      return 1;
    }
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
  std::vector<std::string> specs;
  std::string line;
  while (std::getline(list, line)) {
    const size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '#') continue;
    const size_t end = line.find_last_not_of(" \t\r");
    specs.push_back(line.substr(begin, end - begin + 1));
  }
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
  const BatchAggregateStats stats =
      AggregateStats(records, options, timer.Seconds());

  for (const BatchRecord& r : records) {
    if (r.status == "ok") continue;
    err << r.instance << ": " << r.status
        << (r.error.empty() ? "" : " (" + r.error + ")") << "\n";
  }
  if (options.stats) PrintBatchStats(stats, err);
  if (!options.stats_json.empty()) {
    std::ofstream stats_file(options.stats_json);
    if (!stats_file) {
      err << "cannot write " << options.stats_json << "\n";
      return 1;
    }
    WriteBatchStatsJson(stats, stats_file);
  }
  err << stats.ok << "/" << stats.instances << " instances ranked (cost "
      << options.cost << ", " << options.threads << " threads)\n";
  return stats.failed == 0 ? 0 : 2;
}

}  // namespace mintri
