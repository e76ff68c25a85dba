#include "triang/min_triang.h"

#include <utility>

#include "triang/min_triang_solver.h"

namespace mintri {

std::optional<Triangulation> MinTriang(const TriangulationContext& ctx,
                                       const BagCost& cost) {
  // One full DP pass of the stateful solver (constraints, if any, live
  // inside `cost` — e.g. a ConstrainedCost — exactly as before).
  MinTriangSolver solver(ctx, cost);
  std::optional<TriangulationTree> tree = solver.Solve({}, {});
  if (!tree.has_value()) return std::nullopt;
  return Saturate(ctx.graph(), std::move(*tree));
}

}  // namespace mintri
