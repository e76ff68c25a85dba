#ifndef MINTRI_TRIANG_TRIANGULATION_H_
#define MINTRI_TRIANG_TRIANGULATION_H_

#include <utility>
#include <vector>

#include "cost/bag_cost.h"
#include "graph/graph.h"

namespace mintri {

/// A clique tree of a minimal triangulation H of a graph G, without H
/// itself: what the DP solver and the ranked layers compute and pass around.
/// H is the saturation of G by the bags (see Saturate), built only where a
/// result is handed to a user.
///
/// Invariants (checked by the test suite):
///  - `bags` are exactly the maximal cliques of H and (bags, parent) is a
///    clique tree (a proper tree decomposition, Thm 2.2) — in the ranked
///    layers' results, a forest with one root per connected component of G;
///  - `separators` are the distinct non-empty clique-tree adhesions, sorted,
///    which by Parra–Scheffler (Thm 2.5) equal MinSep(H) — the maximal set
///    of pairwise-parallel minimal separators of G identifying H.
struct TriangulationTree {
  std::vector<VertexSet> bags;
  /// Clique-tree structure: parent[i] is the index of the parent bag, -1 for
  /// a root. parent.size() == bags.size().
  std::vector<int> parent;
  std::vector<VertexSet> separators;
  CostValue cost = 0;

  int Width() const;
};

/// A minimal triangulation H of a graph G together with a clique tree of H.
/// This is the answer type of MinTriang, RankedTriang and the CKK baseline.
/// `filled` is H, a minimal triangulation of the original graph; the tree
/// invariants are TriangulationTree's.
struct Triangulation : TriangulationTree {
  Graph filled;

  long long FillIn(const Graph& original) const;

  /// A canonical identity for deduplication: the sorted fill-edge set is a
  /// bijective key for minimal triangulations of a fixed graph.
  std::vector<std::pair<int, int>> FillEdgesSorted(const Graph& original)
      const;
};

/// Makes `node` the root of its tree in the parent-array forest `parent`
/// (-1 marks a root) by reversing its path to the old root.
void Reroot(std::vector<int>* parent, int node);

/// Completes a clique tree of a triangulation of `original` into a
/// Triangulation: `filled` is `original` with every bag saturated.
Triangulation Saturate(const Graph& original, TriangulationTree tree);

/// The clique tree of a chordal graph `h`, from one maximum-cardinality
/// search (Blair–Peyton): `bags` are exactly the maximal cliques of `h`,
/// (bags, parent) is a clique tree — a forest with one root per connected
/// component — and `separators` are its sorted, distinct, non-empty
/// adhesions, i.e. the minimal separators of `h`. `cost` is left 0.
/// Precondition: IsChordal(h). O(n²/64 + m) beyond the search itself.
TriangulationTree CliqueTreeOfChordal(const Graph& h);

/// Packages a chordal graph `h` (a triangulation the caller already holds,
/// e.g. the CKK baseline's) as a Triangulation with `filled` = h and the
/// tree of CliqueTreeOfChordal. The ranked layers never call it; they
/// already have clique trees.
Triangulation TriangulationFromChordal(Graph h);

}  // namespace mintri

#endif  // MINTRI_TRIANG_TRIANGULATION_H_
