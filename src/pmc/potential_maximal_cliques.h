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
  /// IsPmc tests the enumeration ran (distinct candidates within the size
  /// bound, summed over the prefix steps): the work the pruning saves.
  long long num_tests = 0;
};

struct PmcOptions {
  EnumerationLimits limits;
  /// Only PMCs of size <= max_size are kept (and candidate generation is
  /// pruned accordingly). Used by MinTriangB with max_size = b + 1.
  int max_size = std::numeric_limits<int>::max();
  /// If true, candidate generation runs unpruned: every prefix PMC is also
  /// lifted, case 3 takes every separator, and the case-4 products
  /// S ∪ (T ∩ C) range over all pairs of minimal separators (see
  /// ListPotentialMaximalCliques). Slower; the oracle the tests compare
  /// the pruned enumeration against.
  bool exhaustive_pairs = false;
};

/// Enumerates the potential maximal cliques of a *connected* graph with the
/// vertex-incremental scheme of Bouchitté and Todinca (TCS 2002,
/// ONE_MORE_VERTEX): vertices are added one at a time (in a
/// connectivity-preserving order), and the PMCs of G_{i+1} = G_i + a come
/// from PMC(G_i), Δ(G_i) and Δ(G_{i+1}) (Δ = the minimal separators), each
/// candidate filtered through IsPmc:
///   (1, 2) each p′ ∈ PMC(G_i), and p′ ∪ {a} — only when p′ itself was not
///          accepted: PMCs form an antichain, so p′ ∪ {a} ⊋ p′ is no PMC
///          when p′ is one;
///   (3)    S ∪ {a} for each S ∈ Δ(G_{i+1}) with a ∉ S (for a ∈ S it is S,
///          a minimal separator, never a PMC);
///   (4)    S ∪ (T ∩ C) for each S ∈ Δ(G_{i+1}) that is new — S \ {a} ∉
///          Δ(G_i) — each T ∈ Δ(G_{i+1}) with a ∈ T, and each component C
///          of G_{i+1} \ S.
/// PmcOptions::exhaustive_pairs drops all four restrictions.
///
/// `separators` is the complete MinSep(g), without duplicates, or empty to
/// have the engine enumerate it: the last prefix step is g itself and takes
/// the list instead of listing MinSep(g) a second time. A partial list (e.g.
/// size-bounded) would lose PMCs; pass {} instead. A disconnected g does
/// not read it: each component enumerates its own.
PmcResult ListPotentialMaximalCliques(const Graph& g,
                                      const std::vector<VertexSet>& separators,
                                      const PmcOptions& options = {});

/// Reference implementation for tests: checks IsPmc on every vertex subset.
/// Exponential; intended for n <= ~16.
std::vector<VertexSet> PmcsBruteForce(const Graph& g);

}  // namespace mintri

#endif  // MINTRI_PMC_POTENTIAL_MAXIMAL_CLIQUES_H_
