#include "cli/cli.h"

#include <algorithm>
#include <climits>
#include <fstream>
#include <optional>

#include "bench/bench_suites.h"
#include "cli/batch.h"
#include "cli/flags.h"
#include "cost/cost_model_registry.h"
#include "enumeration/ckk.h"
#include "enumeration/run_stats.h"
#include "enumeration/tiered_enum.h"
#include "enumeration/tree_decomposition.h"
#include "graph/graph_io.h"

namespace mintri {

namespace {

constexpr char kUsage[] =
    "usage: mintri [rank] [options] [instance]\n"
    "       mintri batch <file-of-instances> [options]  (mintri batch"
    " --help)\n"
    "       mintri bench [suite...] [options]           (mintri bench"
    " --help)\n"
    "\n"
    "Reads a problem instance and prints its minimal triangulations in\n"
    "ranked order. The instance is a path — .gr (DIMACS/PACE graph), .hg\n"
    "(hypergraph; its primal graph is triangulated), .uai (factor list;\n"
    "its moral graph is triangulated) — or a builtin spec: tpch:<q> (the\n"
    "TPC-H query-q hypergraph), tpch-graph:<q>, gm:<name>. With no\n"
    "instance argument, stdin is parsed per --input.\n"
    "\n"
    "  --cost=NAME        width|fill|width-then-fill|state-space|\n"
    "                     hypertree|fhw                 (default width)\n"
    "                     hypertree/fhw need a hypergraph instance;\n"
    "                     state-space uses the model's domain sizes when\n"
    "                     the instance carries them (uniform 2 otherwise)\n"
    "  --top=K            stop after K results          (default 5)\n"
    "  --algo=ranked|ckk  ranked enumeration or the CKK baseline (which\n"
    "                     rejects --bound, --tier and --threads)\n"
    "  --bound=B          width bound (MinTriangB contexts)\n"
    "  --format=summary|td   per-result line, or PACE .td blocks\n"
    "  --input=gr|hg|uai  stdin format                  (default gr)\n"
    "  --time-limit=SEC   initialization budget in seconds (default 30);\n"
    "                     under --algo=ckk, the budget of the whole stream\n"
    "  --threads=N        worker threads for the separator/PMC enumeration\n"
    "                     during initialization (default 1 = serial)\n"
    "  --tier=auto|exact|heuristic  solve pipeline (default auto): exact is\n"
    "                     the classic full enumeration, one context per\n"
    "                     connected component (fails on graphs whose\n"
    "                     MinSep/PMC enumeration exceeds the budget);\n"
    "                     auto preprocesses, solves per atom, and degrades\n"
    "                     to the LB-Triang-seeded heuristic family when an\n"
    "                     atom blows the budget; heuristic skips the exact\n"
    "                     attempts. Every result line carries the truthful\n"
    "                     tier label (exact|atom-exact|heuristic)\n"
    "  --stats            print the run's stats (Tier 0, the exact and\n"
    "                     heuristic builds apart, solver and cache\n"
    "                     counters) as one JSON line on stderr\n"
    "  --help             show this message and exit\n";

constexpr char kBenchUsage[] =
    "usage: mintri bench [suite...] [options]\n"
    "\n"
    "Runs the named benchmark suites over the built-in workload families and\n"
    "writes a machine-readable BENCH_core.json report. Suites: minseps (one\n"
    "ListMinimalSeparators pass per graph), pmc (minimal separators + PMC\n"
    "enumeration), ranked (ranked enumeration of minimal triangulations,\n"
    "context init at the entry's thread count), ckk (the CKK baseline on the\n"
    "ranked suite's connected graphs, serial), appcost (ranked enumeration\n"
    "under the application costs — hypertree/fhw over the TPC-H query\n"
    "hypergraphs, state-space over the graphical-model instances — with\n"
    "bag-score cache hit rates), huge (the tiered pipeline on PACE-scale\n"
    "graphs of >= 1000 vertices, with the per-entry tier label). The ranked\n"
    "and appcost suites run the --tier=exact pipeline. Every stream entry\n"
    "reports init_seconds, the best cost drained and how many results had\n"
    "it, and, with the budget clock started after init, results per second\n"
    "after the first result. With no suite arguments (or the keyword\n"
    "'all'), all suites run.\n"
    "\n"
    "  --out=FILE   output path (default BENCH_core.json; '-' for stdout)\n"
    "  --smoke      CI-sized run: few families, capped graphs, short budgets\n"
    "  --threads=N  run every suite at exactly N threads; default is the\n"
    "               sweep {1, hardware_concurrency} for minseps/pmc/ranked;\n"
    "               ckk always runs at 1\n"
    "  --quiet      no per-graph progress on stderr\n"
    "  --help       show this message and exit\n"
    "\n"
    "Budgets scale with the MINTRI_TIME_SCALE environment variable; the\n"
    "report's git_sha is the HEAD the binary was built from (stamped at\n"
    "build time; MINTRI_GIT_SHA overrides).\n";

int RunBenchCommand(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  bench::BenchRunOptions options;
  std::string out_path = "BENCH_core.json";
  bool quiet = false;
  bool all_suites = false;
  const std::vector<flags::Flag> table = {
      {"--smoke", nullptr, &options.smoke},
      {"--quiet", nullptr, &quiet},
      {"--threads", flags::Threads(&options.threads)},
      {"--out", flags::Text(&out_path)},
  };
  // A suite named twice runs once.
  const auto suite = [&](const std::string& arg) -> std::optional<std::string> {
    std::vector<std::string>& suites = options.suites;
    if (arg == "all") {
      all_suites = true;
    } else if (!bench::IsKnownSuite(arg)) {
      return "unknown suite: " + arg +
             " (expected minseps, pmc, ranked, ckk, appcost, huge, or all)";
    } else if (std::find(suites.begin(), suites.end(), arg) == suites.end()) {
      suites.push_back(arg);
    }
    return std::nullopt;
  };
  if (std::optional<int> exit =
          flags::Parse(args, table, suite, kBenchUsage, out, err)) {
    return *exit;
  }
  if (all_suites) options.suites.clear();  // empty = every suite

  bench::BenchReport report =
      bench::RunBenchSuites(options, quiet ? nullptr : &err);
  if (out_path == "-") {
    bench::WriteBenchJson(report, out);
  } else {
    std::ofstream file(out_path);
    if (!file) {
      err << "cannot write " << out_path << "\n";
      return 1;
    }
    bench::WriteBenchJson(report, file);
    err << "wrote " << out_path << " (" << report.entries.size()
        << " entries, git " << report.git_sha << ")\n";
  }
  return 0;
}

void PrintResult(bool td, const Graph& g, int rank, const Triangulation& t,
                 std::ostream& out, const char* tier = nullptr) {
  if (td) {
    out << "c result " << rank << " cost " << t.cost << " width "
        << t.Width() << " fill " << t.FillIn(g);
    if (tier != nullptr) out << " tier " << tier;
    out << "\n";
    WritePaceTd(CliqueTreeOf(t), g.NumVertices(), out);
  } else {
    out << "#" << rank << " cost=" << t.cost << " width=" << t.Width()
        << " fill=" << t.FillIn(g) << " bags=" << t.bags.size();
    if (tier != nullptr) out << " tier=" << tier;
    out << "\n";
  }
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::istream& in,
           std::ostream& out, std::ostream& err) {
  const std::string command = args.empty() ? "" : args[0];
  const std::vector<std::string> rest(args.begin() + !args.empty(),
                                      args.end());
  if (command == "bench") return RunBenchCommand(rest, out, err);
  if (command == "batch") return RunBatchCommand(rest, out, err);
  // `mintri rank ...` is the canonical spelling; the bare invocation stays
  // supported as the historical alias.
  std::string algo = "ranked";
  std::string format = "summary";
  std::string input = "gr";  // stdin format
  bool stats = false;
  std::string file;  // empty: stdin
  BatchOptions query;  // rank's query settings
  query.top = 5;
  // The first flag given that only the ranked pipeline reads: CKK has no
  // context to bound, no tiers and no parallel initialization.
  std::string ranked_only;
  const auto ranked_flag = [&ranked_only](const char* name,
                                          flags::Setter set) -> flags::Setter {
    return [&ranked_only, name, set](const std::string& value) {
      if (ranked_only.empty()) ranked_only = name;
      return set(value);
    };
  };
  const std::vector<flags::Flag> table = {
      {"--cost", flags::Text(&query.cost)},
      {"--top", flags::Count(&query.top)},
      {"--algo", flags::Text(&algo)},
      {"--bound",
       ranked_flag("--bound", [&](const std::string& value)
                                  -> std::optional<std::string> {
         // A value that is no int is rejected without the expected text.
         long long bound;
         if (!flags::ParseNumber(value, &bound) || bound < INT_MIN ||
             bound > INT_MAX) {
           return "";
         }
         if (bound < 0) return " (expected an integer >= 0)";
         query.width_bound = static_cast<int>(bound);
         return std::nullopt;
       })},
      {"--format", flags::OneOf(&format, {"summary", "td"})},
      {"--input", flags::OneOf(&input, {"gr", "hg", "uai"})},
      {"--time-limit", flags::Seconds(&query.time_limit)},
      {"--threads",
       ranked_flag("--threads", flags::Threads(&query.inner_threads))},
      {"--tier", ranked_flag("--tier", flags::OneOf(&query.tier,
                                                    {"auto", "exact",
                                                     "heuristic"}))},
      {"--stats", nullptr, &stats},
  };
  if (std::optional<int> exit = flags::Parse(
          command == "rank" ? rest : args, table,
          flags::OnePath(&file), kUsage, out, err)) {
    return *exit;
  }
  if (algo == "ckk" && !ranked_only.empty()) {
    err << ranked_only << " does not apply to --algo=ckk\n";
    return 1;
  }

  std::string error;
  const InstanceKind kind = input == "hg"    ? InstanceKind::kHypergraph
                            : input == "uai" ? InstanceKind::kModel
                                             : InstanceKind::kGraph;
  const std::optional<CostModelInstance> instance =
      file.empty() ? ReadInstance(in, kind, "<stdin>", &error)
                   : LoadInstance(file, &error);
  if (!instance.has_value()) {
    err << error << "\n";
    return 1;
  }
  const Graph& g = instance->graph;
  // --stats: the run's record as one JSON line.
  const auto print_stats = [&](const RunStats& run) {
    if (!stats) return;
    WriteRunStatsJson(run, err);
    err << "\n";
  };

  if (algo == "ckk") {
    std::optional<CostModel> model =
        MakeCostModel(query.cost, *instance, /*enable_cache=*/true, &error);
    if (model.has_value() && !g.IsConnected()) {
      model.reset();
      error = "the CKK baseline requires a connected graph";
    }
    if (!model.has_value()) {
      err << error << "\n";
      return 1;
    }
    CkkEnumerator e(g, model->cost.get());
    // CKK has no initialization, so --time-limit bounds the whole stream.
    const Deadline deadline(query.time_limit);
    e.SetDeadline(&deadline);
    long long printed = 0;
    while (printed < query.top) {
      auto t = e.Next();
      if (!t.has_value()) break;
      PrintResult(format == "td", g, static_cast<int>(++printed), *t, out);
    }
    RunStats run;
    if (model->cache != nullptr) run.cache = model->cache->stats();
    if (e.truncated()) {
      err << "CKK stream cut by --time-limit=" << query.time_limit
          << "s after " << printed << " results\n";
    }
    print_stats(run);
    return e.truncated() ? 2 : 0;
  }
  if (algo != "ranked") {
    err << "unknown algorithm: " << algo << "\n";
    return 1;
  }

  const BatchRecord record =
      RunQuery(*instance, query, [&](int rank, const TieredResult& t) {
        PrintResult(format == "td", g, rank, t.triangulation, out,
                    TierName(t.tier));
      });
  if (record.status == "cost-error") {
    err << record.error << "\n";
    return 1;
  }
  if (record.status == "init-failed") {
    const ContextBuildInfo& info = record.stats.exact;
    err << "initialization " << info.TerminationName() << " after "
        << info.total_seconds << "s (budget " << query.time_limit
        << "s per stage; minseps " << info.minsep_seconds << "s/"
        << info.num_minseps << ", pmcs " << info.pmc_seconds << "s/"
        << info.num_pmcs << ") — graph not poly-MS feasible at this budget\n";
  }
  print_stats(record.stats);
  return record.status == "ok" ? 0 : 2;
}

}  // namespace mintri
