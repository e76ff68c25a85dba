#ifndef MINTRI_CLI_TIERED_QUERY_H_
#define MINTRI_CLI_TIERED_QUERY_H_

#include <memory>
#include <string>

#include "cost/cost_model_registry.h"
#include "enumeration/tiered_enum.h"

namespace mintri {

/// The solve settings `mintri rank` and `mintri batch` share.
struct TieredQuery {
  std::string cost = "width";  // registry cost name
  std::string tier = "auto";   // auto | exact | heuristic
  double time_limit = 30.0;    // per-stage context budget and exact budget
  int threads = 1;             // context-build threads
  int width_bound = -1;        // MinTriangB width bound (-1: none)
  /// The query's wall budget (null: none), polled by every stage.
  const Deadline* deadline = nullptr;
};

/// Builds the query's tiered enumerator over g, ranked by `model` (made
/// from query.cost). Returns null with *error set, building nothing, when
/// the cost cannot rank g: width-then-fill encodes (width, fill) in one
/// number, so no CostComposition is exact across components and the graph
/// must be connected.
std::unique_ptr<TieredEnumerator> StartTieredQuery(const Graph& g,
                                                   const CostModel& model,
                                                   const TieredQuery& query,
                                                   std::string* error);

}  // namespace mintri

#endif  // MINTRI_CLI_TIERED_QUERY_H_
