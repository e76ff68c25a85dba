#ifndef MINTRI_BENCH_BENCH_UTIL_H_
#define MINTRI_BENCH_BENCH_UTIL_H_

#include <optional>
#include <vector>

#include "bench/bench_suites.h"
#include "cost/standard_costs.h"
#include "enumeration/ckk.h"
#include "enumeration/tiered_enum.h"

namespace mintri {
namespace bench {

// The budgets (TimeScale(), MinSepBudget(), ...), the result caps, the
// MinSep→PMC probe and the drain loop live in src/bench/bench_suites.h,
// shared with the `mintri bench` JSON pipeline.

/// One time-budgeted enumeration run (either algorithm), in the shape the
/// paper's Table 2 needs: per-result timestamps, widths and fill-ins.
struct EnumRun {
  bool init_ok = false;     // the enumerator's construction succeeded
  double init_seconds = 0;  // construction time (RankedTriang: the context)
  bool finished = false;    // the full enumeration completed within budget
  std::vector<double> result_seconds;  // time since construction began
  std::vector<int> widths;
  std::vector<long long> fills;
  size_t num_separators = 0;  // RankedTriang's context (0 for CKK)
  size_t num_pmcs = 0;

  long long count() const {
    return static_cast<long long>(result_seconds.size());
  }
  /// Average delay between results, counting initialization.
  double AvgDelay() const {
    return result_seconds.empty()
               ? 0.0
               : result_seconds.back() / static_cast<double>(
                                             result_seconds.size());
  }
  /// Average delay after initialization.
  double AvgDelayNoInit() const {
    if (result_seconds.empty()) return 0.0;
    return (result_seconds.back() - init_seconds) /
           static_cast<double>(result_seconds.size());
  }
  int MinWidth() const {
    int m = -1;
    for (int w : widths) m = (m < 0 || w < m) ? w : m;
    return m;
  }
  long long MinFill() const {
    long long m = -1;
    for (long long f : fills) m = (m < 0 || f < m) ? f : m;
    return m;
  }
  long long CountWidthAtMost(double bound) const {
    long long c = 0;
    for (int w : widths) c += (w <= bound) ? 1 : 0;
    return c;
  }
  long long CountFillAtMost(double bound) const {
    long long c = 0;
    for (long long f : fills) c += (f <= bound) ? 1 : 0;
    return c;
  }
};

inline const Triangulation& TriangulationOf(const Triangulation& t) {
  return t;
}
inline const Triangulation& TriangulationOf(const TieredResult& r) {
  return r.triangulation;
}

/// Drains a built enumerator for `budget` seconds through DrainStream,
/// recording every result's time, width and fill.
template <typename Source>
void Record(const Graph& g, Source& source, double budget, EnumRun* run) {
  const DrainStats stats =
      DrainStream(source, budget, [&](const auto& result, double seconds) {
        const Triangulation& t = TriangulationOf(result);
        run->result_seconds.push_back(run->init_seconds + seconds);
        run->widths.push_back(t.Width());
        run->fills.push_back(t.FillIn(g));
      });
  run->finished = stats.complete;
}

/// RankedTriang⟨cost⟩: the exact ranked stack (TieredEnumerator in
/// Mode::kExact) built under the budget as its per-stage context limit —
/// width-bounded (MinTriangB) when width_bound >= 0 — then drained for
/// `budget` seconds.
inline EnumRun RunRankedTriang(const Graph& g, const BagCost& cost,
                               CostComposition composition, double budget,
                               int width_bound = -1) {
  EnumRun run;
  ContextOptions options = BudgetedContextOptions(budget, 1);
  options.width_bound = width_bound;
  WallTimer timer;
  TieredEnumerator e(g, cost, composition, options, SolverOptions{},
                     ExactTier());
  run.init_seconds = timer.Seconds();
  run.num_separators = e.init_info().num_minseps;
  run.num_pmcs = e.init_info().num_pmcs;
  run.init_ok = e.init_ok();
  if (run.init_ok) Record(g, e, budget, &run);
  return run;
}

/// The CKK baseline as a drainable source: it has no deadline to honour
/// and never truncates, so only Next() ends its stream.
struct CkkSource {
  explicit CkkSource(const Graph& g) : enumerator(g) {}
  std::optional<Triangulation> Next() { return enumerator.Next(); }
  void SetDeadline(const Deadline*) {}
  bool truncated() const { return false; }
  CkkEnumerator enumerator;
};

/// Runs the CKK baseline for `budget` seconds.
inline EnumRun RunCkk(const Graph& g, double budget) {
  EnumRun run;
  WallTimer timer;
  CkkSource ckk(g);
  run.init_seconds = timer.Seconds();
  run.init_ok = true;  // CKK has no initialization step to fail
  Record(g, ckk, budget, &run);
  return run;
}

}  // namespace bench
}  // namespace mintri

#endif  // MINTRI_BENCH_BENCH_UTIL_H_
