#include "bench/bench_suites.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "cost/cost_model_registry.h"
#include "cost/standard_costs.h"
#include "enumeration/tiered_enum.h"
#include "mintri_git_sha.h"  // generated at build time
#include "parallel/thread_pool.h"
#include "pmc/potential_maximal_cliques.h"
#include "separators/minimal_separators.h"
#include "util/json_util.h"
#include "util/timer.h"
#include "workloads/families.h"
#include "workloads/inference_models.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"
#include "workloads/tpch_queries.h"

namespace mintri {
namespace bench {

namespace {

// Smoke mode trims the sweep to a CI-sized gate: cheap, deterministic,
// always-tractable families, few graphs each, tight budgets.
constexpr int kSmokeGraphsPerFamily = 3;
constexpr double kSmokeBudgetFactor = 0.25;
const char* const kSmokeFamilies[] = {"Grids", "CSP", "TPC-H"};

struct SuiteContext {
  bool smoke = false;
  double budget_factor = 1.0;
  int threads = 1;
};

bool SmokeIncludesFamily(const std::string& name) {
  for (const char* f : kSmokeFamilies) {
    if (name == f) return true;
  }
  return false;
}

BenchEntry MakeEntry(const std::string& suite, const SuiteContext& ctx,
                     const std::string& family, const std::string& graph,
                     const Graph& g) {
  BenchEntry e;
  e.suite = suite;
  e.family = family;
  e.graph = graph;
  e.n = g.NumVertices();
  e.m = g.NumEdges();
  e.threads = ctx.threads;
  return e;
}

BenchEntry MakeEntry(const std::string& suite, const SuiteContext& ctx,
                     const workloads::DatasetFamily& family,
                     const workloads::DatasetGraph& dg) {
  return MakeEntry(suite, ctx, family.name, dg.name, dg.graph);
}

void FinishEntry(BenchEntry* e, long long count, double wall_seconds,
                 const std::string& status) {
  e->count = count;
  e->wall_ms = wall_seconds * 1000.0;
  e->results_per_sec = wall_seconds > 0 ? count / wall_seconds : 0.0;
  e->status = status;
}

BenchEntry RunMinSeps(const SuiteContext& ctx,
                      const workloads::DatasetFamily& family,
                      const workloads::DatasetGraph& dg) {
  BenchEntry e = MakeEntry("minseps", ctx, family, dg);
  EnumerationLimits limits;
  limits.time_limit_seconds = MinSepBudget() * ctx.budget_factor;
  limits.max_results = kMaxSeparators;
  limits.num_threads = ctx.threads;
  WallTimer timer;
  MinimalSeparatorsResult r = ListMinimalSeparators(dg.graph, limits);
  FinishEntry(&e, static_cast<long long>(r.separators.size()),
              timer.Seconds(),
              r.status == EnumerationStatus::kComplete ? "complete"
                                                       : "truncated");
  return e;
}

BenchEntry RunPmc(const SuiteContext& ctx,
                  const workloads::DatasetFamily& family,
                  const workloads::DatasetGraph& dg) {
  BenchEntry e = MakeEntry("pmc", ctx, family, dg);
  const PmcProbe probe =
      ProbeMinSepsThenPmcs(dg.graph, ctx.threads, ctx.budget_factor);
  if (!probe.separators_complete) {
    FinishEntry(&e, 0, probe.minsep_seconds, "ms-terminated");
  } else {
    FinishEntry(&e, static_cast<long long>(probe.num_pmcs), probe.pmc_seconds,
                probe.pmcs_complete ? "complete" : "truncated");
  }
  return e;
}

// The ranked suites' one runner: build the tiered enumerator (its context
// builds are init_seconds; a failed build is the entry's wall time and
// status), then drain it through DrainStream for the enumeration budget.
void RunTiered(BenchEntry* e, const SuiteContext& ctx, const Graph& g,
               const BagCost& cost, CostComposition composition,
               const TierOptions& tier_options) {
  const double budget = EnumBudget() * ctx.budget_factor;
  WallTimer timer;
  TieredEnumerator enumerator(g, cost, composition,
                              BudgetedContextOptions(budget, ctx.threads),
                              SolverOptions{}, tier_options);
  e->init_seconds = enumerator.init_seconds();
  if (!enumerator.init_ok()) {
    FinishEntry(e, 0, timer.Seconds(),
                enumerator.stats().exact.TerminationName());
    return;
  }
  // Only the auto-mode suite labels its tier: the exact-mode ones would
  // always read "exact".
  if (tier_options.mode != TierOptions::Mode::kExact) {
    e->tier = TierName(enumerator.tier());
  }
  const DrainStats stats =
      DrainStream(enumerator, budget, [](const TieredResult&, double) {});
  e->count = stats.count;
  e->wall_ms = stats.wall_seconds * 1000.0;
  e->results_per_sec = stats.ResultsPerSec();
  e->status = stats.complete ? "complete" : "truncated";
  const RunStats run = enumerator.stats();
  e->candidate_evals = run.candidate_evals;
  e->combine_calls = run.combine_calls;
  e->index_updates = run.index_updates;
  e->range_queries = run.range_queries;
}

// The ranked and appcost suites run the --tier=exact pipeline: one exact
// context per connected component, recombined as a ranked product. The
// ranked suite is the Fig. 5 / Table 2 experiment class end to end:
// context initialization at the entry's thread count, then ranked
// enumeration.
BenchEntry RunRanked(const SuiteContext& ctx,
                     const workloads::DatasetFamily& family,
                     const workloads::DatasetGraph& dg) {
  BenchEntry e = MakeEntry("ranked", ctx, family, dg);
  e.cost = "width";
  e.solver = "indexed";
  WidthCost cost;
  RunTiered(&e, ctx, dg.graph, cost, CostComposition::kMax, ExactTier());
  return e;
}

// The huge suite's own family: PACE-scale graphs (>= 1000 vertices) that
// the direct exact stack cannot initialize within the scaled budgets —
// the tiered pipeline's territory. Not part of workloads::AllFamilies(),
// so the exact-path suites never stall on them. Smoke keeps only the grid.
std::vector<workloads::DatasetFamily> HugeFamilies(bool smoke) {
  workloads::DatasetFamily f;
  f.name = "Huge";
  f.graphs.push_back({"grid-32x32", workloads::Grid(32, 32)});
  if (!smoke) {
    f.graphs.push_back({"cycle-2000", workloads::Cycle(2000)});
    f.graphs.push_back({"tree-4096", workloads::RandomTree(4096, 7)});
    f.graphs.push_back(
        {"er-1500", workloads::ConnectedErdosRenyi(1500, 0.002, 11)});
  }
  return {std::move(f)};
}

// The huge suite: the tiered pipeline (auto mode) on PACE-scale graphs.
// Construction deliberately spends the exact budget before degrading; the
// point of the suite is the post-degradation ranked stream.
BenchEntry RunHuge(const SuiteContext& ctx,
                   const workloads::DatasetFamily& family,
                   const workloads::DatasetGraph& dg) {
  BenchEntry e = MakeEntry("huge", ctx, family, dg);
  e.cost = "width";
  TierOptions tier_options;
  tier_options.decomposable_cost = true;  // width
  tier_options.exact_budget_seconds = EnumBudget() * ctx.budget_factor;
  WidthCost cost;
  RunTiered(&e, ctx, dg.graph, cost, CostComposition::kMax, tier_options);
  return e;
}

// One appcost instance: an application cost over a loaded problem instance
// (the paper's headline workloads — TPC-H conjunctive queries under the
// edge-cover costs, graphical models under the junction-tree state space).
struct AppCostCase {
  std::string family;
  std::string graph;
  std::string cost;
  CostModelInstance instance;
};

std::vector<AppCostCase> AppCostCases() {
  std::vector<AppCostCase> cases;
  // Grouped by family (the smoke cap counts per contiguous family run).
  for (const char* cost : {"hypertree", "fhw"}) {
    for (const workloads::TpchQuery& q : workloads::AllTpchQueries()) {
      if (q.graph.NumEdges() == 0) continue;  // joinless: nothing to cover
      CostModelInstance instance;
      instance.name = "q" + std::to_string(q.number);
      Hypergraph h = workloads::TpchQueryHypergraph(q);
      instance.graph = h.PrimalGraph();
      instance.hypergraph = std::move(h);
      cases.push_back({std::string("TPC-H-") + cost, instance.name, cost,
                       std::move(instance)});
    }
  }
  for (workloads::NamedModel& nm : workloads::InferenceModels()) {
    CostModelInstance instance;
    instance.name = nm.name;
    instance.graph = nm.model.MarkovGraph();
    instance.model = std::move(nm.model);
    cases.push_back(
        {"GraphicalModels", instance.name, "state-space", std::move(instance)});
  }
  return cases;
}

// The appcost suite: ranked enumeration under the application costs, with
// the memoized bag-score cache in front of the edge-cover scores — the
// reported hit rate is the fraction of candidate evaluations the ranked
// stack avoided re-solving.
BenchEntry RunAppCost(const SuiteContext& ctx, const AppCostCase& acase) {
  BenchEntry e = MakeEntry("appcost", ctx, acase.family, acase.graph,
                           acase.instance.graph);
  e.cost = acase.cost;
  std::string error;
  std::optional<CostModel> model =
      MakeCostModel(acase.cost, acase.instance, /*enable_cache=*/true,
                    &error);
  if (!model.has_value()) {
    // A case list entry whose instance lacks the payload its cost needs
    // (registry bug or a future mis-wired case) — report, don't crash.
    FinishEntry(&e, 0, 0.0, "cost-error");
    return e;
  }
  RunTiered(&e, ctx, acase.instance.graph, *model->cost, model->composition,
            ExactTier());
  if (model->cache != nullptr) {
    e.cache_hit_rate = model->cache->stats().HitRate();
  }
  return e;
}

std::string FormatDouble(double v) {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed << v;
  std::string s = os.str();
  // Trim trailing zeros (keep at least one decimal digit so the value stays
  // a JSON float).
  size_t last = s.find_last_not_of('0');
  if (s[last] == '.') ++last;
  return s.substr(0, last + 1);
}

}  // namespace

double TimeScale() {
  const char* env = std::getenv("MINTRI_TIME_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

double MinSepBudget() { return 0.5 * TimeScale(); }
double PmcBudget() { return 2.5 * TimeScale(); }
double EnumBudget() { return 1.5 * TimeScale(); }

TierOptions ExactTier() {
  TierOptions tier_options;
  tier_options.mode = TierOptions::Mode::kExact;
  return tier_options;
}

ContextOptions BudgetedContextOptions(double budget, int threads) {
  ContextOptions options;
  options.separator_limits.time_limit_seconds = budget;
  options.separator_limits.max_results = kMaxSeparators;
  options.pmc_limits.time_limit_seconds = budget;
  options.num_threads = threads;
  return options;
}

PmcProbe ProbeMinSepsThenPmcs(const Graph& g, int threads,
                              double budget_factor) {
  PmcProbe probe;
  EnumerationLimits sep_limits;
  sep_limits.time_limit_seconds = MinSepBudget() * budget_factor;
  sep_limits.max_results = kMaxSeparators;
  sep_limits.num_threads = threads;
  WallTimer timer;
  MinimalSeparatorsResult seps = ListMinimalSeparators(g, sep_limits);
  probe.minsep_seconds = timer.Seconds();
  probe.num_separators = seps.separators.size();
  probe.separators_complete = seps.status == EnumerationStatus::kComplete;
  if (!probe.separators_complete) return probe;

  PmcOptions options;
  options.limits.time_limit_seconds = PmcBudget() * budget_factor;
  options.limits.num_threads = threads;
  timer.Reset();
  PmcResult pmcs = ListPotentialMaximalCliques(g, seps.separators, options);
  probe.pmc_seconds = timer.Seconds();
  probe.num_pmcs = pmcs.pmcs.size();
  probe.pmcs_complete = pmcs.status == EnumerationStatus::kComplete;
  return probe;
}

const std::vector<std::string>& AllSuiteNames() {
  static const std::vector<std::string> kNames = {
      "minseps", "pmc", "ranked", "appcost", "huge"};
  return kNames;
}

bool IsKnownSuite(const std::string& name) {
  const std::vector<std::string>& all = AllSuiteNames();
  return std::find(all.begin(), all.end(), name) != all.end();
}

std::string GitSha() {
  const char* env = std::getenv("MINTRI_GIT_SHA");
  if (env != nullptr && env[0] != '\0') return env;
  return MINTRI_GIT_SHA;
}

BenchReport RunBenchSuites(const BenchRunOptions& options,
                           std::ostream* progress) {
  BenchReport report;
  report.git_sha = GitSha();
  report.time_scale = TimeScale();
  report.smoke = options.smoke;
  report.suites = options.suites.empty() ? AllSuiteNames() : options.suites;

  SuiteContext ctx;
  ctx.smoke = options.smoke;
  ctx.budget_factor = options.smoke ? kSmokeBudgetFactor : 1.0;

  // One progress line per entry: suite, threads, and the cost / tier when
  // the entry carries one.
  const auto emit = [&](BenchEntry entry) {
    if (progress != nullptr) {
      *progress << entry.suite << "[t=" << entry.threads;
      if (!entry.cost.empty()) *progress << ", " << entry.cost;
      if (!entry.tier.empty()) *progress << ", " << entry.tier;
      *progress << "] " << entry.family << "/" << entry.graph << ": "
                << entry.count << " results in "
                << FormatDouble(entry.wall_ms) << " ms (" << entry.status
                << ")\n";
    }
    report.entries.push_back(std::move(entry));
  };

  for (const std::string& suite : report.suites) {
    // The appcost suite runs its own instance list (application costs over
    // TPC-H hypergraphs and graphical models), and the huge suite its own
    // PACE-scale family, each at one thread count (the tier-2 path is
    // serial; the exact attempts inside still honor --threads).
    if (suite == "appcost" || suite == "huge") {
      ctx.threads = options.threads > 0 ? options.threads : 1;
    }
    if (suite == "appcost") {
      int used_in_family = 0;
      std::string current_family;
      for (const AppCostCase& acase : AppCostCases()) {
        if (acase.family != current_family) {
          current_family = acase.family;
          used_in_family = 0;
        }
        if (ctx.smoke && used_in_family >= kSmokeGraphsPerFamily) continue;
        ++used_in_family;
        emit(RunAppCost(ctx, acase));
      }
      continue;
    }
    if (suite == "huge") {
      for (const workloads::DatasetFamily& family :
           HugeFamilies(ctx.smoke)) {
        for (const workloads::DatasetGraph& dg : family.graphs) {
          emit(RunHuge(ctx, family, dg));
        }
      }
      continue;
    }
    // The parallel-capable suites sweep serial vs. all-hardware so every
    // report carries its own baseline; --threads=N pins a single point. The
    // ranked suite sweeps too — its thread count drives the context
    // initialization phase (the enumeration itself is serial).
    std::vector<int> thread_points = {1, parallel::DefaultParallelThreads()};
    if (options.threads > 0) thread_points = {options.threads};
    for (int threads : thread_points) {
      ctx.threads = threads;
      for (const workloads::DatasetFamily& family :
           workloads::AllFamilies()) {
        if (ctx.smoke && !SmokeIncludesFamily(family.name)) continue;
        int used = 0;
        for (const workloads::DatasetGraph& dg : family.graphs) {
          if (ctx.smoke && used >= kSmokeGraphsPerFamily) break;
          ++used;
          if (suite == "minseps") {
            emit(RunMinSeps(ctx, family, dg));
          } else if (suite == "pmc") {
            emit(RunPmc(ctx, family, dg));
          } else {
            emit(RunRanked(ctx, family, dg));
          }
        }
      }
    }
  }
  return report;
}

void WriteBenchJson(const BenchReport& report, std::ostream& out) {
  out << "{\n";
  out << "  \"schema_version\": " << report.schema_version << ",\n";
  out << "  \"git_sha\": ";
  AppendJsonString(report.git_sha, out);
  out << ",\n";
  out << "  \"time_scale\": " << FormatDouble(report.time_scale) << ",\n";
  out << "  \"smoke\": " << (report.smoke ? "true" : "false") << ",\n";
  out << "  \"suites\": [";
  for (size_t i = 0; i < report.suites.size(); ++i) {
    if (i > 0) out << ", ";
    AppendJsonString(report.suites[i], out);
  }
  out << "],\n";
  out << "  \"entries\": [\n";
  for (size_t i = 0; i < report.entries.size(); ++i) {
    const BenchEntry& e = report.entries[i];
    out << "    {\"suite\": ";
    AppendJsonString(e.suite, out);
    out << ", \"family\": ";
    AppendJsonString(e.family, out);
    out << ", \"graph\": ";
    AppendJsonString(e.graph, out);
    out << ", \"n\": " << e.n << ", \"m\": " << e.m
        << ", \"threads\": " << e.threads << ", \"count\": " << e.count
        << ", \"wall_ms\": " << FormatDouble(e.wall_ms)
        << ", \"results_per_sec\": " << FormatDouble(e.results_per_sec)
        << ", \"init_seconds\": " << FormatDouble(e.init_seconds)
        << ", \"cost\": ";
    AppendJsonString(e.cost, out);
    out << ", \"solver\": ";
    AppendJsonString(e.solver, out);
    out << ", \"candidate_evals\": " << e.candidate_evals
        << ", \"combine_calls\": " << e.combine_calls
        << ", \"index_updates\": " << e.index_updates
        << ", \"range_queries\": " << e.range_queries
        << ", \"cache_hit_rate\": " << FormatDouble(e.cache_hit_rate)
        << ", \"tier\": ";
    AppendJsonString(e.tier, out);
    out << ", \"status\": ";
    AppendJsonString(e.status, out);
    out << "}" << (i + 1 < report.entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace bench
}  // namespace mintri
