#ifndef MINTRI_HYPERGRAPH_EDGE_COVER_H_
#define MINTRI_HYPERGRAPH_EDGE_COVER_H_

#include <memory>

#include "cost/standard_costs.h"
#include "hypergraph/hypergraph.h"

namespace mintri {

/// MinIntegralEdgeCover's result when ThreadDeadline() (util/timer.h)
/// expired before the search finished: no cover size is known.
inline constexpr int kAbandonedCover = -2;

/// The minimum number of hyperedges whose union contains `bag` (exact
/// branch-and-bound set cover, seeded with the greedy bound). Returns -1
/// when some vertex of the bag is in no hyperedge. This is the bag score of
/// generalized hypertree width (Gottlob–Leone–Scarcello). The search is
/// exponential in the bag size, so it polls ThreadDeadline() and returns
/// kAbandonedCover once that has expired.
int MinIntegralEdgeCover(const Hypergraph& h, const VertexSet& bag);

/// The minimum total weight of a fractional edge cover of `bag`
/// (Grohe–Marx): min Σ x_e subject to Σ_{e ∋ v} x_e >= 1 for every v in the
/// bag, x >= 0. Solved exactly through the LP dual (see linear_program.h).
/// Returns -1 when uncoverable. This is the bag score of fractional
/// hypertree width.
double MinFractionalEdgeCover(const Hypergraph& h, const VertexSet& bag);

/// The edge-cover optima as WeightedWidthCost bag scores, with the
/// uncoverable `-1` and the kAbandonedCover sentinels mapped to
/// kInfiniteCost. Feeding a raw sentinel into a cost would make the bag
/// look like the *cheapest* one; infinity makes the DP reject it instead. These are the functions
/// the cost factories below (and the memoized bag-score cache) evaluate.
CostValue HypertreeBagScore(const Hypergraph& h, const VertexSet& bag);
CostValue FractionalEdgeCoverBagScore(const Hypergraph& h,
                                      const VertexSet& bag);

/// Split-monotone bag costs over tree decompositions of h's primal graph
/// (Section 3 of the paper: "c(b) can be the minimal number of hyperedges
/// needed to cover b, or the minimal weight of a fractional edge cover of
/// b, thereby establishing ... hypertree width and fractional hypertree
/// width"). The hypergraph must outlive the returned cost; bags containing
/// a vertex in no hyperedge score kInfiniteCost.
std::unique_ptr<WeightedWidthCost> HypertreeWidthCost(const Hypergraph& h);
std::unique_ptr<WeightedWidthCost> FractionalHypertreeWidthCost(
    const Hypergraph& h);

}  // namespace mintri

#endif  // MINTRI_HYPERGRAPH_EDGE_COVER_H_
