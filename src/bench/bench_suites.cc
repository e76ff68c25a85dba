#include "bench/bench_suites.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "cost/cost_model_registry.h"
#include "cost/standard_costs.h"
#include "enumeration/ckk.h"
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

// All wall-clock budgets are the paper's limits scaled down so a full run
// finishes in minutes (the paper's Section 7 runs take server-days).
// MINTRI_TIME_SCALE multiplies every budget (e.g. MINTRI_TIME_SCALE=10 for
// a slower, more faithful run).
double TimeScale() {
  const char* env = std::getenv("MINTRI_TIME_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

double MinSepBudget() { return 0.5 * TimeScale(); }  // paper: 60 s
double PmcBudget() { return 2.5 * TimeScale(); }     // paper: 30 min
double EnumBudget() { return 1.5 * TimeScale(); }    // paper: 30 min

// Result-count caps of every suite.
constexpr size_t kMaxSeparators = 200000;
constexpr size_t kMaxResults = 100000;

// Context limits for a ranked run: `budget` seconds for each of the MinSep
// and PMC stages, kMaxSeparators separators, `threads` workers.
ContextOptions BudgetedContextOptions(double budget, int threads) {
  ContextOptions options;
  options.separator_limits.time_limit_seconds = budget;
  options.separator_limits.max_results = kMaxSeparators;
  options.pmc_limits.time_limit_seconds = budget;
  options.num_threads = threads;
  return options;
}

// The --tier=exact pipeline (RankedTriang): one exact context per connected
// component, no Tier 0, no fallback.
TierOptions ExactTier() {
  TierOptions tier_options;
  tier_options.mode = TierOptions::Mode::kExact;
  return tier_options;
}

CostValue CostOf(const TieredResult& r) { return r.triangulation.cost; }
CostValue CostOf(const Triangulation& t) { return t.cost; }

// What one budgeted drain of a stream measured.
struct DrainStats {
  long long count = 0;
  double wall_seconds = 0;          // since the drain started
  double first_result_seconds = 0;  // 0 when nothing came out
  // Next() ran dry and no deadline cut the stream short.
  bool complete = false;
  // The least cost drained and how many results had it (0 and 0 when
  // nothing came out).
  CostValue best_cost = 0;
  long long count_at_best = 0;

  // Results per second after the first one (the paper's Table 2
  // enumeration rate); 0 unless at least two results came out.
  double ResultsPerSec() const {
    return count > 1 && wall_seconds > first_result_seconds
               ? (count - 1) / (wall_seconds - first_result_seconds)
               : 0.0;
  }
};

// The one timed drain loop behind every stream entry. The budget clock
// starts here, after the caller built `source`, and the same budget is its
// Deadline. Pulls Next() until the stream runs dry, the budget is spent, or
// kMaxResults results came out. `Source` provides Next() (a std::optional
// of a result CostOf reads), SetDeadline(const Deadline*) and truncated().
template <typename Source>
DrainStats DrainStream(Source& source, double budget) {
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
    if (++stats.count == 1) stats.first_result_seconds = timer.Seconds();
    const CostValue cost = CostOf(*result);
    if (stats.count_at_best == 0 || cost < stats.best_cost) {
      stats.best_cost = cost;
      stats.count_at_best = 1;
    } else if (cost == stats.best_cost) {
      ++stats.count_at_best;
    }
  }
  stats.wall_seconds = timer.Seconds();
  source.SetDeadline(nullptr);
  return stats;
}

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

// The minseps suite's listing, and the pmc suite's first stage.
MinimalSeparatorsResult ListSeparators(const SuiteContext& ctx,
                                       const Graph& g) {
  EnumerationLimits limits;
  limits.time_limit_seconds = MinSepBudget() * ctx.budget_factor;
  limits.max_results = kMaxSeparators;
  limits.num_threads = ctx.threads;
  return ListMinimalSeparators(g, limits);
}

BenchEntry RunMinSeps(const SuiteContext& ctx,
                      const workloads::DatasetFamily& family,
                      const workloads::DatasetGraph& dg) {
  BenchEntry e = MakeEntry("minseps", ctx, family, dg);
  WallTimer timer;
  MinimalSeparatorsResult r = ListSeparators(ctx, dg.graph);
  FinishEntry(&e, static_cast<long long>(r.separators.size()),
              timer.Seconds(),
              r.status == EnumerationStatus::kComplete ? "complete"
                                                       : "truncated");
  return e;
}

// The pmc suite: the minimal separators, then, only when those completed,
// the PMCs under PmcBudget(). The entry times the PMC stage, or the MinSep
// stage when that gave up.
BenchEntry RunPmc(const SuiteContext& ctx,
                  const workloads::DatasetFamily& family,
                  const workloads::DatasetGraph& dg) {
  BenchEntry e = MakeEntry("pmc", ctx, family, dg);
  WallTimer timer;
  MinimalSeparatorsResult seps = ListSeparators(ctx, dg.graph);
  if (seps.status != EnumerationStatus::kComplete) {
    FinishEntry(&e, 0, timer.Seconds(), "ms-terminated");
    return e;
  }
  PmcOptions options;
  options.limits.time_limit_seconds = PmcBudget() * ctx.budget_factor;
  options.limits.num_threads = ctx.threads;
  timer.Reset();
  PmcResult pmcs =
      ListPotentialMaximalCliques(dg.graph, seps.separators, options);
  FinishEntry(&e, static_cast<long long>(pmcs.pmcs.size()), timer.Seconds(),
              pmcs.status == EnumerationStatus::kComplete ? "complete"
                                                          : "truncated");
  return e;
}

void FinishDrain(BenchEntry* e, const DrainStats& stats) {
  e->count = stats.count;
  e->wall_ms = stats.wall_seconds * 1000.0;
  e->results_per_sec = stats.ResultsPerSec();
  e->status = stats.complete ? "complete" : "truncated";
  e->best_cost = stats.best_cost;
  e->count_at_best = stats.count_at_best;
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
  FinishDrain(e, DrainStream(enumerator, budget));
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
  WidthCost cost;
  RunTiered(&e, ctx, dg.graph, cost, CostComposition::kMax, ExactTier());
  return e;
}

// The ckk suite: the CKK baseline the paper compares against (Table 2,
// Figs. 8-9), on the ranked suite's graphs under the same cost and drain,
// so each graph's ckk and ranked entries answer the paper's claims: CKK's
// best width is no better than RankedTriang's first result, and CKK finds
// no more of the optimal triangulations. Its construction (one LB-Triang
// call) is init_seconds.
BenchEntry RunCkk(const SuiteContext& ctx,
                  const workloads::DatasetFamily& family,
                  const workloads::DatasetGraph& dg) {
  BenchEntry e = MakeEntry("ckk", ctx, family, dg);
  e.cost = "width";
  WidthCost cost;
  WallTimer timer;
  CkkEnumerator enumerator(dg.graph, &cost);
  e.init_seconds = timer.Seconds();
  FinishDrain(&e, DrainStream(enumerator, EnumBudget() * ctx.budget_factor));
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

const std::vector<std::string>& AllSuiteNames() {
  static const std::vector<std::string> kNames = {
      "minseps", "pmc", "ranked", "ckk", "appcost", "huge"};
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
    // initialization phase (the enumeration itself is serial). CKK is
    // serial throughout and needs a connected graph.
    std::vector<int> thread_points = {1, parallel::DefaultParallelThreads()};
    if (options.threads > 0) thread_points = {options.threads};
    if (suite == "ckk") thread_points = {1};
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
          } else if (suite == "ckk") {
            if (dg.graph.IsConnected()) emit(RunCkk(ctx, family, dg));
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
    out << ", \"best_cost\": " << FormatDouble(e.best_cost)
        << ", \"count_at_best\": " << e.count_at_best
        << ", \"candidate_evals\": " << e.candidate_evals
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
