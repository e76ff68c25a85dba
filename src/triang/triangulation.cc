#include "triang/triangulation.h"

#include <algorithm>
#include <set>
#include <utility>

#include "chordal/clique_tree.h"

namespace mintri {

int TriangulationTree::Width() const {
  int w = -1;
  for (const VertexSet& b : bags) w = std::max(w, b.Count() - 1);
  return w;
}

long long Triangulation::FillIn(const Graph& original) const {
  return filled.NumEdges() - original.NumEdges();
}

std::vector<std::pair<int, int>> Triangulation::FillEdgesSorted(
    const Graph& original) const {
  std::vector<std::pair<int, int>> fill;
  for (const auto& [u, v] : filled.Edges()) {
    if (!original.HasEdge(u, v)) fill.emplace_back(u, v);
  }
  std::sort(fill.begin(), fill.end());
  return fill;
}

Triangulation Saturate(const Graph& original, TriangulationTree tree) {
  Triangulation t;
  static_cast<TriangulationTree&>(t) = std::move(tree);
  t.filled = original;
  for (const VertexSet& bag : t.bags) t.filled.SaturateSet(bag);
  return t;
}

Triangulation TriangulationFromChordal(const Graph& original, Graph h,
                                       CostValue cost) {
  (void)original;  // kept in the signature to document the contract
  Triangulation t;
  CliqueTree tree = BuildCliqueTree(h);
  t.filled = std::move(h);
  t.bags = std::move(tree.cliques);
  t.cost = cost;

  // Orient the clique tree as parent pointers rooted at bag 0.
  const int k = static_cast<int>(t.bags.size());
  std::vector<std::vector<int>> adj(k);
  for (const auto& [i, j] : tree.edges) {
    adj[i].push_back(j);
    adj[j].push_back(i);
  }
  t.parent.assign(k, -2);
  std::vector<int> stack;
  for (int root = 0; root < k; ++root) {
    if (t.parent[root] != -2) continue;
    t.parent[root] = -1;
    stack.push_back(root);
    while (!stack.empty()) {
      int u = stack.back();
      stack.pop_back();
      for (int v : adj[u]) {
        if (t.parent[v] == -2) {
          t.parent[v] = u;
          stack.push_back(v);
        }
      }
    }
  }

  std::set<VertexSet> seps;
  for (int i = 0; i < k; ++i) {
    if (t.parent[i] < 0) continue;
    VertexSet adhesion = t.bags[i].Intersect(t.bags[t.parent[i]]);
    if (!adhesion.Empty()) seps.insert(std::move(adhesion));
  }
  t.separators.assign(seps.begin(), seps.end());
  return t;
}

}  // namespace mintri
