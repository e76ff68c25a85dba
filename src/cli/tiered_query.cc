#include "cli/tiered_query.h"

namespace mintri {

std::unique_ptr<TieredEnumerator> StartTieredQuery(const Graph& g,
                                                   const CostModel& model,
                                                   const TieredQuery& query,
                                                   std::string* error) {
  if (query.cost == "width-then-fill" && g.ConnectedComponents().size() > 1) {
    *error = "width-then-fill requires a connected graph";
    return nullptr;
  }
  ContextOptions options;
  options.width_bound = query.width_bound;
  options.separator_limits.time_limit_seconds = query.time_limit;
  options.pmc_limits.time_limit_seconds = query.time_limit;
  options.num_threads = query.threads;
  TierOptions tier_options;
  if (query.tier == "exact") {
    tier_options.mode = TierOptions::Mode::kExact;
  } else if (query.tier == "heuristic") {
    tier_options.mode = TierOptions::Mode::kHeuristic;
  }
  tier_options.decomposable_cost = IsTierDecomposableCost(query.cost);
  tier_options.exact_budget_seconds = query.time_limit;
  tier_options.deadline = query.deadline;
  return std::make_unique<TieredEnumerator>(g, *model.cost, model.composition,
                                            options, SolverOptions{},
                                            tier_options);
}

}  // namespace mintri
