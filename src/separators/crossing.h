#ifndef MINTRI_SEPARATORS_CROSSING_H_
#define MINTRI_SEPARATORS_CROSSING_H_

#include <vector>

#include "graph/graph.h"

namespace mintri {

/// Component labeling of G \ removed; answers "is T parallel to `removed`"
/// queries in O(|T|) after O(n + m) setup. Used heavily by the CKK baseline
/// and by tests (the crossing relation of Parra–Scheffler, Theorem 2.5).
class ComponentLabeling {
 public:
  ComponentLabeling(const Graph& g, const VertexSet& removed);

  /// True iff all of t's vertices outside `removed` lie in one component —
  /// i.e., `removed` (as a separator S) is parallel to T.
  bool IsParallelTo(const VertexSet& t) const;

 private:
  std::vector<int> labels_;  // component id, or -1 inside `removed`
};

/// S and T are parallel iff T ∖ S is contained in a single component of
/// G ∖ S. Crossing is the symmetric complement (Section 2 of the paper).
bool AreParallel(const Graph& g, const VertexSet& s, const VertexSet& t);
inline bool AreCrossing(const Graph& g, const VertexSet& s,
                        const VertexSet& t) {
  return !AreParallel(g, s, t);
}

/// True iff every two members of `seps` are parallel.
bool IsPairwiseParallel(const Graph& g, const std::vector<VertexSet>& seps);

/// True iff `seps` is a *maximal* set of pairwise-parallel minimal
/// separators within `universe` (every member of `universe` not in `seps`
/// crosses some member). `seps` must be a subset of `universe`.
bool IsMaximalPairwiseParallel(const Graph& g,
                               const std::vector<VertexSet>& seps,
                               const std::vector<VertexSet>& universe);

}  // namespace mintri

#endif  // MINTRI_SEPARATORS_CROSSING_H_
