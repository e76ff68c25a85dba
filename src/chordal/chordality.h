#ifndef MINTRI_CHORDAL_CHORDALITY_H_
#define MINTRI_CHORDAL_CHORDALITY_H_

#include <vector>

#include "graph/graph.h"

namespace mintri {

/// Maximum Cardinality Search (Tarjan–Yannakakis). Returns the visit order
/// (first visited vertex first). Visiting the graph in this order and
/// eliminating in the *reverse* order is a perfect elimination ordering iff
/// the graph is chordal.
std::vector<int> MaximumCardinalitySearch(const Graph& g);

/// True iff `elimination_order` (first-eliminated vertex first, containing
/// every vertex exactly once) is a perfect elimination ordering of g: for
/// every vertex v, the neighbors of v eliminated after v form a clique.
bool IsPerfectEliminationOrdering(const Graph& g,
                                  const std::vector<int>& elimination_order);

/// Linear(-ish)-time chordality test: MCS followed by the PEO check.
bool IsChordal(const Graph& g);

}  // namespace mintri

#endif  // MINTRI_CHORDAL_CHORDALITY_H_
