#include "hypergraph/edge_cover.h"

#include <algorithm>

#include "hypergraph/linear_program.h"
#include "util/timer.h"

namespace mintri {

namespace {

// Hyperedges restricted to the bag, deduplicated and maximal-only (an edge
// whose bag-restriction is contained in another's is never needed).
std::vector<VertexSet> RelevantRestrictions(const Hypergraph& h,
                                            const VertexSet& bag) {
  std::vector<VertexSet> restricted;
  for (const VertexSet& e : h.Edges()) {
    VertexSet r = e.Intersect(bag);
    if (!r.Empty()) restricted.push_back(std::move(r));
  }
  std::vector<VertexSet> maximal;
  for (size_t i = 0; i < restricted.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < restricted.size() && !dominated; ++j) {
      if (i == j) continue;
      if (restricted[i].IsSubsetOf(restricted[j]) &&
          !(restricted[j] == restricted[i] && i < j)) {
        dominated = true;
      }
    }
    if (!dominated) maximal.push_back(restricted[i]);
  }
  return maximal;
}

// Greedy cover for the branch-and-bound's initial upper bound.
int GreedyCover(const std::vector<VertexSet>& sets, const VertexSet& bag) {
  VertexSet uncovered = bag;
  int used = 0;
  while (!uncovered.Empty()) {
    int best = -1, best_gain = 0;
    for (size_t i = 0; i < sets.size(); ++i) {
      int gain = sets[i].Intersect(uncovered).Count();
      if (gain > best_gain) {
        best_gain = gain;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) return -1;  // uncoverable
    uncovered.MinusWith(sets[best]);
    ++used;
  }
  return used;
}

// Exact set cover by branch and bound. The search polls `deadline` every
// 1024 nodes; once it has expired, `abandoned` latches and the search
// unwinds without finishing.
struct CoverSearch {
  const std::vector<VertexSet>& sets;
  const Deadline* deadline;
  unsigned nodes = 0;
  bool abandoned = false;
};

void BranchAndBound(CoverSearch* search, const VertexSet& uncovered, int used,
                    int* best) {
  if (uncovered.Empty()) {
    *best = std::min(*best, used);
    return;
  }
  if (used + 1 >= *best) return;  // even one more set cannot improve
  if (search->deadline != nullptr && (++search->nodes & 1023u) == 0 &&
      search->deadline->Expired()) {
    search->abandoned = true;
  }
  if (search->abandoned) return;
  // Branch on the covering sets of the first uncovered vertex.
  int v = uncovered.First();
  for (const VertexSet& s : search->sets) {
    if (!s.Contains(v)) continue;
    BranchAndBound(search, uncovered.Minus(s), used + 1, best);
  }
}

}  // namespace

int MinIntegralEdgeCover(const Hypergraph& h, const VertexSet& bag) {
  if (bag.Empty()) return 0;
  const Deadline* deadline = ThreadDeadline();
  if (IsExpired(deadline)) return kAbandonedCover;
  std::vector<VertexSet> sets = RelevantRestrictions(h, bag);
  int best = GreedyCover(sets, bag);
  if (best < 0) return -1;
  CoverSearch search{sets, deadline};
  BranchAndBound(&search, bag, 0, &best);
  return search.abandoned ? kAbandonedCover : best;
}

double MinFractionalEdgeCover(const Hypergraph& h, const VertexSet& bag) {
  if (bag.Empty()) return 0.0;
  std::vector<VertexSet> sets = RelevantRestrictions(h, bag);
  // Coverability check.
  VertexSet covered(bag.capacity());
  for (const VertexSet& s : sets) covered.UnionWith(s);
  if (!bag.IsSubsetOf(covered)) return -1.0;

  // Solve the dual:  max Σ_v y_v  s.t.  Σ_{v ∈ e} y_v <= 1 per edge, y >= 0.
  // By strong duality its optimum equals the minimum fractional cover.
  std::vector<int> members = bag.ToVector();
  std::vector<std::vector<double>> a;
  a.reserve(sets.size());
  for (const VertexSet& s : sets) {
    std::vector<double> row(members.size(), 0.0);
    for (size_t j = 0; j < members.size(); ++j) {
      if (s.Contains(members[j])) row[j] = 1.0;
    }
    a.push_back(std::move(row));
  }
  LinearProgram lp(std::move(a), std::vector<double>(sets.size(), 1.0),
                   std::vector<double>(members.size(), 1.0));
  auto sol = lp.Maximize();
  // The dual of a feasible, bounded covering LP is always bounded.
  return sol.has_value() ? sol->objective : -1.0;
}

CostValue HypertreeBagScore(const Hypergraph& h, const VertexSet& bag) {
  // An abandoned search scores +inf as well: the DP pass it ran in is cut
  // by the same deadline and thrown away.
  const int cover = MinIntegralEdgeCover(h, bag);
  return cover < 0 ? kInfiniteCost : static_cast<CostValue>(cover);
}

CostValue FractionalEdgeCoverBagScore(const Hypergraph& h,
                                      const VertexSet& bag) {
  const double cover = MinFractionalEdgeCover(h, bag);
  return cover < 0 ? kInfiniteCost : cover;
}

std::unique_ptr<WeightedWidthCost> HypertreeWidthCost(const Hypergraph& h) {
  return std::make_unique<WeightedWidthCost>(
      [&h](const VertexSet& bag) { return HypertreeBagScore(h, bag); },
      "hypertree-width");
}

std::unique_ptr<WeightedWidthCost> FractionalHypertreeWidthCost(
    const Hypergraph& h) {
  return std::make_unique<WeightedWidthCost>(
      [&h](const VertexSet& bag) {
        return FractionalEdgeCoverBagScore(h, bag);
      },
      "fractional-hypertree-width");
}

}  // namespace mintri
