// perfbench_run: the end-to-end benchmark runner. It times fixed work on
// the path `mintri rank` takes in its default --tier=auto mode
// (ReadInstance -> MakeCostModel -> TieredEnumerator ->
// Next() until k results), checks every result outside the timed region,
// and prints one JSON result line. See README.md in this directory.
//
//   perfbench_run --workload stream --seed 1 --seconds 10 --trace 0
//   perfbench_run --workload build --seed 7 --dump DIR   # write the inputs
//   perfbench_run --self-test                             # checker tests

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "checker.h"
#include "chordal/minimality.h"
#include "cost/cost_model_registry.h"
#include "enumeration/ranked_enum.h"
#include "enumeration/tiered_enum.h"
#include "pmc/potential_maximal_cliques.h"
#include "preprocess/preprocess.h"
#include "separators/minimal_separators.h"
#include "trace.h"
#include "triang/context.h"
#include "triang/min_triang.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string trace_dir = ".";
  std::string dump_dir;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* a, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a->trace = value == "1";
      if (value != "0" && value != "1") *error = "--trace takes 0 or 1";
    } else if (flag == "--git-sha") {
      a->git_sha = value;
    } else if (flag == "--trace-dir") {
      a->trace_dir = value;
    } else if (flag == "--dump") {
      a->dump_dir = value;
    } else {
      *error = "unknown flag " + flag;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      *error = "bad number for " + flag + ": " + value;
    }
    if (!error->empty()) return false;
  }
  if (!a->self_test && a->workload.empty()) *error = "--workload is required";
  if (a->seconds <= 0) *error = "--seconds must be positive";
  return error->empty();
}

// The loaded instance and its cost. Never moved once built: the cost
// closures reference the instance's graph in place.
struct Loaded {
  mintri::CostModelInstance instance;
  mintri::CostModel model;
  Loaded() = default;
  Loaded(const Loaded&) = delete;
  Loaded& operator=(const Loaded&) = delete;
};

bool LoadInstance(const Instance& inst, Loaded* out, std::string* error) {
  std::istringstream in(inst.text);
  std::optional<mintri::CostModelInstance> ci = mintri::ReadInstance(
      in, mintri::InstanceKind::kGraph, inst.name, error);
  if (!ci.has_value()) return false;
  out->instance = std::move(*ci);
  return true;
}

bool MakeCost(const Instance& inst, Loaded* out, std::string* error) {
  std::optional<mintri::CostModel> model = mintri::MakeCostModel(
      inst.cost, out->instance, /*enable_cache=*/true, error);
  if (!model.has_value()) return false;
  out->model = std::move(*model);
  return true;
}

bool LoadAndCost(const Instance& inst, Loaded* out, std::string* error) {
  return LoadInstance(inst, out, error) && MakeCost(inst, out, error);
}

// The options `mintri rank --threads=T --time-limit=L` builds.
mintri::ContextOptions ContextOptionsFor(const Workload& w, int threads) {
  mintri::ContextOptions options;
  options.separator_limits.time_limit_seconds = w.time_limit;
  options.pmc_limits.time_limit_seconds = w.time_limit;
  options.num_threads = threads;
  return options;
}

mintri::TierOptions TierOptionsFor(const Workload& w,
                                   const std::string& cost) {
  mintri::TierOptions options;
  options.mode = mintri::TierOptions::Mode::kAuto;
  options.decomposable_cost = mintri::IsTierDecomposableCost(cost);
  options.exact_budget_seconds = w.time_limit;
  return options;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * (v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// One timed instance run.
struct Sample {
  double total_s = 0;        // load + cost model + enumeration to k
  double ttfr_s = 0;         // TieredEnumerator construction -> 1st result
  double ttk_s = 0;          // construction -> k-th result (or stream end)
  double after_first_s = 0;  // 1st result -> k-th result
  long long results = 0;
  double first_cost = 0;
  int instance = 0;
};

// Replay readouts of the library's own counters (traced run).
struct ReplayLayers {
  long long instances = 0;
  long long results = 0;
  double ctor_s = 0;
  double tier1_s = 0;
  long long units = 0;
  long long optimizer_calls = 0;
  long long candidate_evals = 0;
  long long combine_calls = 0;
  std::vector<double> next_us;
};

// Full checks on first sight of an instance, digest comparisons on
// repeats (a mismatch falls back to a full check).
class Verifier {
 public:
  explicit Verifier(size_t instances)
      : digest_(instances), optimum_(instances), optimum_known_(instances) {}

  std::vector<std::string> Check(
      const Workload& w, int index, const Loaded& loaded,
      const StreamFacts& facts,
      const std::vector<mintri::TieredResult>& results) {
    const mintri::Graph& g = loaded.instance.graph;
    const uint64_t digest = StreamDigest(g, results);
    if (digest_[index].has_value() && *digest_[index] == digest) {
      ++digest_checks;
      return {};
    }
    ++full_checks;
    std::optional<mintri::CostValue> optimum;
    if (facts.tier != mintri::SolveTier::kHeuristic) {
      if (!optimum_known_[index]) {
        optimum_[index] = DirectOptimum(g, *loaded.model.cost, w.check_limit);
        optimum_known_[index] = true;
        if (optimum_[index].has_value()) ++direct_checks;
      }
      optimum = optimum_[index];
    }
    std::vector<std::string> violations =
        CheckStream(g, *loaded.model.cost, facts, results, optimum, &stats);
    if (violations.empty()) digest_[index] = digest;
    return violations;
  }

  CheckStats stats;
  long long full_checks = 0;
  long long digest_checks = 0;
  long long direct_checks = 0;

 private:
  std::vector<std::optional<uint64_t>> digest_;
  std::vector<std::optional<mintri::CostValue>> optimum_;
  std::vector<bool> optimum_known_;
};

// Runs instance `index` of `w` to its k-th result (timed), then checks the
// stream (untimed). Returns false, with *error set, on any failure.
bool RunInstance(const Workload& w, int index, Tracer* tracer,
                 Verifier* verifier, Sample* sample, ReplayLayers* layers,
                 std::string* error) {
  const Instance& inst = w.instances[index];
  Loaded loaded;
  std::optional<mintri::TieredEnumerator> e;
  std::vector<mintri::TieredResult> results;
  results.reserve(static_cast<size_t>(std::min<long long>(w.k, 4096)));
  Clock::time_point t_first;

  const Clock::time_point t_load = Clock::now();
  Clock::time_point t0;
  {
    ScopedSpan root(tracer, "instance", index);
    {
      ScopedSpan span(tracer, "load", index);
      if (!LoadInstance(inst, &loaded, error)) return false;
    }
    {
      ScopedSpan span(tracer, "cost.model", index);
      if (!MakeCost(inst, &loaded, error)) return false;
    }
    t0 = Clock::now();
    {
      ScopedSpan span(tracer, "tiered.ctor", index);
      e.emplace(loaded.instance.graph, *loaded.model.cost,
                loaded.model.composition, ContextOptionsFor(w, w.threads),
                mintri::SolverOptions{},
                TierOptionsFor(w, inst.cost));
    }
    if (layers != nullptr) layers->ctor_s += Since(t0);
    while (static_cast<long long>(results.size()) < w.k) {
      const Clock::time_point t_next = Clock::now();
      std::optional<mintri::TieredResult> r;
      {
        ScopedSpan span(tracer, "tiered.next", index);
        r = e->Next();
      }
      if (layers != nullptr) layers->next_us.push_back(Since(t_next) * 1e6);
      if (!r.has_value()) break;
      if (results.empty()) t_first = Clock::now();
      results.push_back(std::move(*r));
    }
  }
  const Clock::time_point t_end = Clock::now();

  sample->total_s = std::chrono::duration<double>(t_end - t_load).count();
  sample->ttk_s = std::chrono::duration<double>(t_end - t0).count();
  sample->results = static_cast<long long>(results.size());
  if (results.empty()) {
    *error = inst.name + ": empty stream";
    return false;
  }
  sample->ttfr_s = std::chrono::duration<double>(t_first - t0).count();
  sample->after_first_s =
      std::chrono::duration<double>(t_end - t_first).count();
  sample->first_cost = results[0].triangulation.cost;

  const mintri::ContextBuildInfo& info = e->init_info();
  const mintri::PreprocessInfo& pre = e->preprocess_info();
  const size_t terminated = info.num_ms_terminated + info.num_pmc_terminated;
  if (layers != nullptr) {
    ++layers->instances;
    layers->results += sample->results;
    layers->tier1_s += e->tier1_seconds();
    layers->units += static_cast<long long>(info.num_builds - terminated);
    layers->optimizer_calls += e->num_optimizer_calls();
    layers->candidate_evals += e->num_candidate_evals();
    layers->combine_calls += e->num_combine_calls();
  }

  ScopedSpan span(tracer, "check", index);
  if (static_cast<long long>(results.size()) < w.k && e->truncated()) {
    *error = inst.name + ": stream truncated before k";
    return false;
  }
  StreamFacts facts;
  facts.tier = e->tier();
  facts.degraded = terminated > 0;
  facts.lifted =
      mintri::IsTierDecomposableCost(inst.cost) &&
      (pre.vertices_removed > 0 ||
       static_cast<size_t>(pre.num_atoms) >
           loaded.instance.graph.ConnectedComponents().size());
  const std::vector<std::string> violations =
      verifier->Check(w, index, loaded, facts, results);
  if (!violations.empty()) {
    *error = inst.name + ": " + violations.front() + " (" +
             std::to_string(violations.size()) + " violations)";
    return false;
  }
  return true;
}

// One set-up: generate the instances, load and cost every one of them, and
// warm up on the first instance's first result.
double SetupOnce(const Args& args, Workload* w, std::string* error) {
  const Clock::time_point start = Clock::now();
  if (!MakeWorkload(args.workload, args.seed, w)) {
    *error = "unknown workload " + args.workload;
    return -1;
  }
  for (const Instance& inst : w->instances) {
    Loaded loaded;
    if (!LoadAndCost(inst, &loaded, error)) return -1;
  }
  Loaded loaded;
  const Instance& first = w->instances.front();
  if (!LoadAndCost(first, &loaded, error)) return -1;
  mintri::TieredEnumerator e(
      loaded.instance.graph, *loaded.model.cost, loaded.model.composition,
      ContextOptionsFor(*w, w->threads), mintri::SolverOptions{},
      TierOptionsFor(*w, first.cost));
  if (!e.Next().has_value()) {
    *error = first.name + ": empty stream during warm-up";
    return -1;
  }
  return Since(start);
}

// Host speed. The shared VMs this runs on change speed by up to 1.8x, for
// seconds to minutes at a time, as their neighbours get busy; a slow phase
// often covers a whole run, so no choice of samples inside a run can undo
// it. A fixed reference kernel, which calls no mintri code, runs untimed
// before every timed instance and set-up, and each pass's (and the set-up
// phase's) times are scaled by kReferenceKernelSeconds over the median
// kernel time measured in that pass: every time is reported at the host's
// reference speed. A change to mintri moves the timed work and leaves the
// kernel alone. The kernel works on a table it has just warmed, so what the
// previous instance left in the caches does not move it.
constexpr double kReferenceKernelSeconds = 0.00068;

volatile uint32_t kernel_sink;  // keeps the kernel's work observable

double ReferenceKernelSeconds() {
  static std::vector<uint32_t> table(1 << 12);
  for (size_t i = 0; i < table.size(); i += 16) kernel_sink = table[i];
  uint32_t x = 12345, sum = 0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < 400000; ++i) {
    x = x * 1103515245u + 12345u;
    uint32_t& slot = table[(x >> 9) & (table.size() - 1)];
    if (slot & 1) {
      sum += slot;
    } else {
      slot += x;
    }
  }
  const double seconds = Since(start);
  kernel_sink = sum;
  return seconds;
}

// kReferenceKernelSeconds over the median of `kernel_s`.
double SpeedScale(std::vector<double> kernel_s) {
  return kReferenceKernelSeconds / Percentile(std::move(kernel_s), 0.5);
}

// Closed-loop passes over the workload (one client, one instance at a
// time) until `seconds` have elapsed; `max_passes` > 0 fixes the count.
struct LoopResult {
  std::vector<Sample> samples;
  std::vector<double> pass_s;  // timed total of each complete pass
  std::vector<double> scale;   // each pass's SpeedScale
  long long attempted = 0;
  long long failed = 0;
};

void RunPasses(const Workload& w, double seconds, int max_passes,
               Tracer* tracer, Verifier* verifier, ReplayLayers* layers,
               LoopResult* out) {
  const Clock::time_point start = Clock::now();
  for (int pass = 0; max_passes <= 0 || pass < max_passes; ++pass) {
    const size_t first = out->samples.size();
    std::vector<double> kernel_s;
    for (int i = 0; i < static_cast<int>(w.instances.size()); ++i) {
      Sample s;
      s.instance = i;
      kernel_s.push_back(ReferenceKernelSeconds());
      std::string error;
      ++out->attempted;
      if (!RunInstance(w, i, tracer, verifier, &s, layers, &error)) {
        ++out->failed;
        std::cerr << "perfbench: FAILED " << error << "\n";
        continue;
      }
      out->samples.push_back(s);
    }
    const double scale = SpeedScale(kernel_s);
    double pass_s = 0;
    for (size_t j = first; j < out->samples.size(); ++j) {
      Sample& s = out->samples[j];
      for (double* t : {&s.total_s, &s.ttfr_s, &s.ttk_s, &s.after_first_s}) {
        *t *= scale;
      }
      pass_s += s.total_s;
    }
    out->pass_s.push_back(pass_s);
    out->scale.push_back(scale);
    if (max_passes <= 0) {
      // Stop at the pass boundary nearest to `seconds`.
      const double elapsed = Since(start);
      const double per_pass = elapsed / (pass + 1);
      if (elapsed + per_pass / 2 >= seconds) break;
    }
  }
}

// The probe pass of the traced run: the lower-layer public functions,
// called directly on the same instances and (for decomposable costs) on
// the same atoms the tiered path solves.
struct ProbeLayers {
  long long instances = 0;
  double preprocess_s = 0;
  long long vertices_removed = 0;
  long long atoms = 0;
  double separators_s = 0;
  long long separators = 0;
  double pmc_s = 0;
  long long pmcs = 0;
  double context_s = 0;
  double blocks_s = 0;
  double wiring_s = 0;
  long long blocks = 0;
  double pmc_1t_s = 0, pmc_nt_s = 0;
  double wiring_1t_s = 0, wiring_nt_s = 0;
  double full_pass_s = 0;
  std::vector<double> ranked_next_us;
};

void ProbeUnit(const Workload& w, int index, const mintri::Graph& sub,
               const mintri::BagCost& cost, Tracer* tracer, ProbeLayers* p) {
  mintri::EnumerationLimits limits;
  limits.time_limit_seconds = w.time_limit;
  limits.num_threads = w.threads;
  Clock::time_point t = Clock::now();
  mintri::MinimalSeparatorsResult seps;
  {
    ScopedSpan span(tracer, "separators", index);
    seps = mintri::ListMinimalSeparators(sub, limits);
  }
  p->separators_s += Since(t);
  p->separators += static_cast<long long>(seps.separators.size());
  if (seps.status != mintri::EnumerationStatus::kComplete) return;

  mintri::PmcOptions pmc_options;
  pmc_options.limits = limits;
  t = Clock::now();
  mintri::PmcResult pmcs;
  {
    ScopedSpan span(tracer, "pmc", index);
    pmcs = mintri::ListPotentialMaximalCliques(sub, seps.separators,
                                               pmc_options);
  }
  p->pmc_s += Since(t);
  p->pmcs += static_cast<long long>(pmcs.pmcs.size());
  if (pmcs.status != mintri::EnumerationStatus::kComplete) return;

  mintri::ContextBuildInfo info;
  t = Clock::now();
  std::optional<mintri::TriangulationContext> ctx;
  {
    ScopedSpan span(tracer, "context", index);
    ctx = mintri::TriangulationContext::Build(
        sub, ContextOptionsFor(w, w.threads), &info);
  }
  p->context_s += Since(t);
  if (!ctx.has_value()) return;
  p->blocks_s += info.blocks_seconds;
  p->wiring_s += info.wiring_seconds;
  p->blocks += static_cast<long long>(info.num_blocks);

  // The same build at the other thread count: 1 vs ContextThreads().
  const int other = w.threads == 1 ? ContextThreads() : 1;
  mintri::ContextBuildInfo other_info;
  {
    ScopedSpan span(tracer, "parallel", index);
    mintri::TriangulationContext::Build(sub, ContextOptionsFor(w, other),
                                        &other_info);
  }
  const mintri::ContextBuildInfo& one = w.threads == 1 ? info : other_info;
  const mintri::ContextBuildInfo& many = w.threads == 1 ? other_info : info;
  p->pmc_1t_s += one.pmc_seconds;
  p->pmc_nt_s += many.pmc_seconds;
  p->wiring_1t_s += one.wiring_seconds;
  p->wiring_nt_s += many.wiring_seconds;

  t = Clock::now();
  {
    ScopedSpan span(tracer, "solver.full_pass", index);
    mintri::MinTriang(*ctx, cost);
  }
  p->full_pass_s += Since(t);

  mintri::RankedTriangulationEnumerator ranked(*ctx, cost);
  for (long long r = 0; r < w.k; ++r) {
    t = Clock::now();
    std::optional<mintri::Triangulation> next;
    {
      ScopedSpan span(tracer, "ranked.next", index);
      next = ranked.Next();
    }
    p->ranked_next_us.push_back(Since(t) * 1e6);
    if (!next.has_value()) break;
  }
}

bool ProbeInstance(const Workload& w, int index, Tracer* tracer,
                   ProbeLayers* p, std::string* error) {
  const Instance& inst = w.instances[index];
  ScopedSpan root(tracer, "probe", index);
  Loaded loaded;
  if (!LoadAndCost(inst, &loaded, error)) return false;
  const mintri::Graph& g = loaded.instance.graph;
  const mintri::BagCost& cost = *loaded.model.cost;
  ++p->instances;

  Clock::time_point t = Clock::now();
  mintri::PreprocessResult pre;
  {
    ScopedSpan span(tracer, "preprocess", index);
    pre = mintri::Preprocess(g);
  }
  p->preprocess_s += Since(t);
  p->vertices_removed += pre.info.vertices_removed;
  p->atoms += pre.info.num_atoms;

  // The units the tiered path solves: the atoms for decomposable costs,
  // the connected components otherwise.
  const bool decomposable = mintri::IsTierDecomposableCost(inst.cost);
  const mintri::Graph& host = decomposable ? pre.reduced : g;
  const std::vector<mintri::VertexSet> units =
      decomposable ? pre.atoms : g.ConnectedComponents();
  for (const mintri::VertexSet& unit : units) {
    std::vector<int> old_to_new;
    const mintri::Graph sub = host.InducedSubgraph(unit, &old_to_new);
    std::vector<int> old_of_new(sub.NumVertices());
    for (int v = 0; v < g.NumVertices(); ++v) {
      if (old_to_new[v] >= 0) old_of_new[old_to_new[v]] = v;
    }
    std::unique_ptr<mintri::BagCost> restricted =
        sub.NumVertices() == g.NumVertices()
            ? nullptr
            : cost.RestrictTo(old_of_new, g.NumVertices());
    ProbeUnit(w, index, sub, restricted != nullptr ? *restricted : cost,
              tracer, p);
  }
  return true;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, long long attempted, long long failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// The fastest quarter (rounded up) of each instance's samples, ranked by
// their timed work at reference speed. Interrupts, page faults and speed
// changes shorter than a pass only ever add time, so an instance's fastest
// runs measure the code and the rest mostly measure the neighbours. A
// change to the code moves every sample alike. Every sample is still
// checked and counted.
constexpr int kKeepOneIn = 4;

size_t Kept(size_t samples) { return (samples + kKeepOneIn - 1) / kKeepOneIn; }

std::vector<const Sample*> FastestPerInstance(const LoopResult& loop) {
  std::map<int, std::vector<const Sample*>> by_instance;
  for (const Sample& s : loop.samples) by_instance[s.instance].push_back(&s);
  std::vector<const Sample*> kept;
  for (auto& [instance, samples] : by_instance) {
    std::sort(samples.begin(), samples.end(),
              [](const Sample* a, const Sample* b) {
                return a->total_s < b->total_s;
              });
    kept.insert(kept.end(), samples.begin(),
                samples.begin() + Kept(samples.size()));
  }
  return kept;
}

std::vector<Metric> EndToEndMetrics(double setup_s, const LoopResult& loop) {
  std::vector<double> ttfr, ttk;
  std::map<int, std::vector<double>> total_by_instance;
  double after_first = 0;
  long long streamed = 0;
  for (const Sample* s : FastestPerInstance(loop)) {
    ttfr.push_back(s->ttfr_s * 1e3);
    ttk.push_back(s->ttk_s * 1e3);
    total_by_instance[s->instance].push_back(s->total_s);
    if (s->results >= 2) {
      streamed += s->results - 1;
      after_first += s->after_first_s;
    }
  }
  // One pass's timed work: every instance once, at its median kept time.
  double wall = 0;
  for (const auto& [instance, totals] : total_by_instance) {
    wall += Percentile(totals, 0.5);
  }
  double first_cost = 0;
  for (const Sample& s : loop.samples) first_cost += s.first_cost;
  const double n =
      static_cast<double>(std::max<size_t>(loop.samples.size(), 1));
  return {
      {"setup_s", setup_s, "s"},
      {"ttfr_ms.p50", Percentile(ttfr, 0.5), "ms"},
      {"ttfr_ms.p90", Percentile(ttfr, 0.9), "ms"},
      {"ttk_ms.p50", Percentile(ttk, 0.5), "ms"},
      {"ttk_ms.p90", Percentile(ttk, 0.9), "ms"},
      {"stream_rps", Ratio(static_cast<double>(streamed), after_first), "1/s"},
      {"wall_s", wall, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"quality.first_cost_mean", first_cost / n, "cost"},
  };
}

std::vector<Metric> PerLayerMetrics(const ReplayLayers& r, const ProbeLayers& p,
                                    const CheckStats& check,
                                    double overhead_ms) {
  const double ri = static_cast<double>(std::max<long long>(r.instances, 1));
  const double pi = static_cast<double>(std::max<long long>(p.instances, 1));
  return {
      {"preprocess.ms", p.preprocess_s * 1e3 / pi, "ms"},
      {"preprocess.vertices_removed", p.vertices_removed / pi, "count"},
      {"preprocess.atoms", p.atoms / pi, "count"},
      {"separators.ms", p.separators_s * 1e3 / pi, "ms"},
      {"separators.count", p.separators / pi, "count"},
      {"separators.per_s", Ratio(p.separators, p.separators_s), "1/s"},
      {"pmc.ms", p.pmc_s * 1e3 / pi, "ms"},
      {"pmc.count", p.pmcs / pi, "count"},
      {"pmc.per_s", Ratio(p.pmcs, p.pmc_s), "1/s"},
      {"context.build_ms", p.context_s * 1e3 / pi, "ms"},
      {"context.blocks_ms", p.blocks_s * 1e3 / pi, "ms"},
      {"context.wiring_ms", p.wiring_s * 1e3 / pi, "ms"},
      {"context.blocks", p.blocks / pi, "count"},
      {"parallel.pmc_speedup", Ratio(p.pmc_1t_s, p.pmc_nt_s), "x"},
      {"parallel.wiring_speedup", Ratio(p.wiring_1t_s, p.wiring_nt_s), "x"},
      {"solver.full_pass_ms", p.full_pass_s * 1e3 / pi, "ms"},
      {"solver.calls_per_result",
       Ratio(static_cast<double>(r.optimizer_calls), r.results), "count"},
      {"solver.evals_per_call",
       Ratio(static_cast<double>(r.candidate_evals), r.optimizer_calls),
       "count"},
      {"solver.combine_ratio",
       Ratio(static_cast<double>(r.combine_calls), r.candidate_evals), "ratio"},
      {"ranked.next_us.p50", Percentile(p.ranked_next_us, 0.5), "us"},
      {"ranked.next_us.p90", Percentile(p.ranked_next_us, 0.9), "us"},
      {"tiered.ctor_ms", r.ctor_s * 1e3 / ri, "ms"},
      {"tiered.tier1_ms", r.tier1_s * 1e3 / ri, "ms"},
      {"tiered.units", r.units / ri, "count"},
      {"tiered.next_us.p50", Percentile(r.next_us, 0.5), "us"},
      {"tiered.next_us.p90", Percentile(r.next_us, 0.9), "us"},
      {"cost.evaluate_us",
       Ratio(check.evaluate_seconds * 1e6,
             static_cast<double>(check.evaluations)),
       "us"},
      {"trace.overhead_ms", overhead_ms, "ms"},
  };
}

int Run(const Args& args) {
  std::string error;
  if (!args.dump_dir.empty()) {
    Workload w;
    if (!MakeWorkload(args.workload, args.seed, &w)) {
      std::cerr << "perfbench: unknown workload " << args.workload << "\n";
      return 2;
    }
    if (!DumpWorkload(w, args.dump_dir)) {
      std::cerr << "perfbench: cannot write " << args.dump_dir << "\n";
      return 1;
    }
    std::cerr << "wrote " << w.instances.size() << " instances to "
              << args.dump_dir << "\n";
    return 0;
  }

  // Set-up, repeated back to back: at least kMinSetups times and for at
  // least kMinSetupSeconds, each after a run of the reference kernel. At
  // the host's reference speed, setup_s reads them like the timings read
  // an instance's samples: the median of the fastest quarter.
  constexpr int kMinSetups = 9;
  constexpr int kMaxSetups = 1000;
  constexpr double kMinSetupSeconds = 1.0;
  Workload w;
  std::vector<double> setups, setup_kernel_s;
  const Clock::time_point setup_start = Clock::now();
  while (static_cast<int>(setups.size()) < kMinSetups ||
         (Since(setup_start) < kMinSetupSeconds &&
          static_cast<int>(setups.size()) < kMaxSetups)) {
    setup_kernel_s.push_back(ReferenceKernelSeconds());
    const double s = SetupOnce(args, &w, &error);
    if (s < 0) {
      std::cerr << "perfbench: set-up failed: " << error << "\n";
      return 2;
    }
    setups.push_back(s);
  }
  std::sort(setups.begin(), setups.end());
  setups.resize(Kept(setups.size()));
  const double setup_scale = SpeedScale(setup_kernel_s);
  const double setup_s = Percentile(setups, 0.5) * setup_scale;

  Verifier verifier(w.instances.size());
  LoopResult loop;
  std::vector<Metric> metrics;
  const Clock::time_point start = Clock::now();
  if (!args.trace) {
    RunPasses(w, args.seconds, 0, nullptr, &verifier, nullptr, &loop);
    metrics = EndToEndMetrics(setup_s, loop);
  } else {
    // Untraced passes for a quarter of the window, then as many traced
    // passes of the same instances: the difference is the tracing overhead.
    LoopResult untraced;
    RunPasses(w, args.seconds / 4, 0, nullptr, &verifier, nullptr, &untraced);
    const int passes = static_cast<int>(untraced.pass_s.size());
    Tracer tracer;
    ReplayLayers replay;
    RunPasses(w, 0, passes, &tracer, &verifier, &replay, &loop);
    double untraced_s = 0, traced_s = 0;
    for (double s : untraced.pass_s) untraced_s += s;
    for (double s : loop.pass_s) traced_s += s;
    const double overhead_ms = (traced_s - untraced_s) * 1e3 / passes;
    loop.attempted += untraced.attempted;
    loop.failed += untraced.failed;

    ProbeLayers probe;
    for (int i = 0; i < static_cast<int>(w.instances.size()); ++i) {
      if (Since(start) > 2 * args.seconds) break;  // keep the run bounded
      if (!ProbeInstance(w, i, &tracer, &probe, &error)) {
        ++loop.failed;
        std::cerr << "perfbench: probe FAILED " << error << "\n";
      }
    }
    metrics = PerLayerMetrics(replay, probe, verifier.stats, overhead_ms);

    const std::string base = args.trace_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed);
    const std::map<std::string, std::string> meta = {
        {"git_sha", args.git_sha},
        {"workload", w.name},
        {"seed", std::to_string(args.seed)},
        {"passes", std::to_string(passes)}};
    if (!tracer.WriteChromeTrace(base + ".trace.json", meta)) {
      std::cerr << "perfbench: cannot write " << base << ".trace.json\n";
    }
    std::cerr << "self time by layer (ms), git " << args.git_sha << ":\n";
    for (const auto& [layer, ms] : tracer.SelfTimeMs()) {
      std::cerr << "  " << std::left << std::setw(20) << layer << ms << "\n";
    }
    std::cerr << "  tracing overhead " << overhead_ms << " ms per pass of "
              << w.instances.size() << " instances (" << passes
              << " passes each way); trace: " << base << ".trace.json\n";
  }

  std::cerr << "perfbench: " << w.name << " seed=" << args.seed
            << " samples=" << loop.samples.size()
            << " passes=" << loop.pass_s.size() << " pass_s=["
            << *std::min_element(loop.pass_s.begin(), loop.pass_s.end())
            << ", " << Percentile(loop.pass_s, 0.5) << ", "
            << *std::max_element(loop.pass_s.begin(), loop.pass_s.end())
            << "] speed scale=[" << setup_scale << "; "
            << *std::min_element(loop.scale.begin(), loop.scale.end()) << ", "
            << Percentile(loop.scale, 0.5) << ", "
            << *std::max_element(loop.scale.begin(), loop.scale.end())
            << "] k=" << w.k
            << " threads=" << w.threads << " full_checks="
            << verifier.full_checks << " digest_checks="
            << verifier.digest_checks << " direct_optimum_checks="
            << verifier.direct_checks << "\n";
  const bool correct = loop.failed == 0;
  PrintResult(correct, loop.attempted, loop.failed, metrics);
  return correct ? 0 : 1;
}

// The benchmark's own tests: seeded generation is deterministic, and the
// checker rejects corrupted results.
int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::cerr << (ok ? "PASS " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };

  for (const std::string& name : WorkloadNames()) {
    Workload a, b, c;
    MakeWorkload(name, 42, &a);
    MakeWorkload(name, 42, &b);
    MakeWorkload(name, 43, &c);
    bool same = a.instances.size() == b.instances.size();
    bool differs = false;
    for (size_t i = 0; same && i < a.instances.size(); ++i) {
      same = a.instances[i].text == b.instances[i].text;
      differs = differs || a.instances[i].text != c.instances[i].text;
    }
    expect(same, name + ": same seed gives byte-identical instances");
    expect(differs, name + ": another seed gives other instances");
  }

  // A correct stream, then corruptions of it.
  Workload w;
  MakeWorkload("stream", 1, &w);
  const Instance& inst = w.instances.front();
  Loaded loaded;
  std::string error;
  if (!LoadAndCost(inst, &loaded, &error)) {
    expect(false, "load " + inst.name + ": " + error);
    return 1;
  }
  const mintri::Graph& g = loaded.instance.graph;
  const mintri::BagCost& cost = *loaded.model.cost;
  mintri::TieredEnumerator e(
      g, cost, loaded.model.composition, ContextOptionsFor(w, 1),
      mintri::SolverOptions{},
      TierOptionsFor(w, inst.cost));
  std::vector<mintri::TieredResult> results;
  for (int i = 0; i < 20; ++i) results.push_back(*e.Next());
  StreamFacts facts;
  facts.tier = e.tier();
  const std::optional<mintri::CostValue> optimum = DirectOptimum(g, cost, 10);
  CheckStats stats;
  auto rejects = [&](const std::vector<mintri::TieredResult>& stream,
                     const StreamFacts& f) {
    return !CheckStream(g, cost, f, stream, optimum, &stats).empty();
  };
  expect(optimum.has_value(), "a direct context builds for " + inst.name);
  expect(!rejects(results, facts), "the checker accepts a correct stream");

  {
    // An extra fill edge: the result is no longer a minimal triangulation.
    auto bad = results;
    mintri::Graph& filled = bad[3].triangulation.filled;
    bool added = false;
    for (int u = 0; u < g.NumVertices() && !added; ++u) {
      for (int v = u + 1; v < g.NumVertices() && !added; ++v) {
        if (!filled.HasEdge(u, v)) {
          filled.AddEdge(u, v);
          added = true;
        }
      }
    }
    expect(added && rejects(bad, facts), "rejects an extra fill edge");
    bool agree = true;
    for (const auto& stream : {results, bad}) {
      for (const mintri::TieredResult& r : stream) {
        const mintri::Graph& h = r.triangulation.filled;
        agree = agree && IsMinimalByCommonNeighbourhoods(g, h) ==
                             mintri::IsMinimalTriangulation(g, h);
      }
    }
    expect(agree, "the local minimality test agrees with the library's");
  }
  {
    auto bad = results;
    bad[5].triangulation.cost += 1;
    expect(rejects(bad, facts), "rejects a wrong cost");
  }
  {
    auto bad = results;
    bad[7] = bad[6];
    expect(rejects(bad, facts), "rejects a repeated fill set");
  }
  {
    auto bad = results;
    std::swap(bad[0], bad.back());
    expect(results.front().triangulation.cost ==
                   results.back().triangulation.cost ||
               rejects(bad, facts),
           "rejects a decreasing cost in an ordered stream");
    std::vector<mintri::TieredResult> worse(results.begin() + 1,
                                            results.end());
    expect(worse.front().triangulation.cost == *optimum ||
               rejects(worse, facts),
           "rejects a first cost above the MinTriang optimum");
  }
  {
    auto bad = results;
    bad[2].tier = mintri::SolveTier::kHeuristic;
    expect(rejects(bad, facts), "rejects a result with another tier label");
    StreamFacts degraded = facts;
    degraded.degraded = true;
    expect(rejects(results, degraded),
           "rejects an exact label on a degraded stream");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::cerr << "perfbench_run: " << error << "\n";
    return 2;
  }
  if (args.self_test) return perfbench::SelfTest();
  return perfbench::Run(args);
}
