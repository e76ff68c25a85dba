#ifndef MINTRI_PMC_POTENTIAL_MAXIMAL_CLIQUES_H_
#define MINTRI_PMC_POTENTIAL_MAXIMAL_CLIQUES_H_

#include <vector>

#include "graph/graph.h"
#include "separators/minimal_separators.h"

namespace mintri {

/// Local test for potential maximal cliques (Bouchitté–Todinca): Ω is a PMC
/// of g iff
///   (1) G \ Ω has no full component w.r.t. Ω (no component C with
///       N(C) = Ω), and
///   (2) Ω is "cliquish": every two non-adjacent x, y ∈ Ω are both in N(C)
///       for some component C of G \ Ω (so saturating the associated
///       minimal separators turns Ω into a clique).
/// This characterization is exact; the enumerators below rely on it for
/// soundness.
bool IsPmc(const Graph& g, const VertexSet& omega);

struct PmcResult {
  std::vector<VertexSet> pmcs;
  EnumerationStatus status = EnumerationStatus::kComplete;
};

struct PmcOptions {
  EnumerationLimits limits;
  /// Only PMCs of size <= max_size are kept (and candidate generation is
  /// pruned accordingly). Used by MinTriangB with max_size = b + 1.
  int max_size = std::numeric_limits<int>::max();
  /// If true, the S ∪ (T ∩ C) candidate generation iterates over all pairs
  /// of minimal separators instead of restricting T to separators containing
  /// the newly added vertex. Slower; used as a safety valve and in tests.
  bool exhaustive_pairs = false;
};

/// Enumerates the potential maximal cliques of a *connected* graph with the
/// vertex-incremental scheme of Bouchitté and Todinca (TCS 2002): vertices
/// are added one at a time (in a connectivity-preserving order); the PMCs of
/// each prefix graph are obtained from the PMCs of the previous prefix and
/// the minimal separators of both, filtered through IsPmc.
///
/// `separators` (the minimal separators of g) is not read: the last prefix
/// step enumerates MinSep(g) again. The parameter stays for callers that
/// already pass the list.
PmcResult ListPotentialMaximalCliques(const Graph& g,
                                      const std::vector<VertexSet>& separators,
                                      const PmcOptions& options = {});

/// Reference implementation for tests: checks IsPmc on every vertex subset.
/// Exponential; intended for n <= ~16.
std::vector<VertexSet> PmcsBruteForce(const Graph& g);

}  // namespace mintri

#endif  // MINTRI_PMC_POTENTIAL_MAXIMAL_CLIQUES_H_
