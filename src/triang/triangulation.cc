#include "triang/triangulation.h"

#include <algorithm>
#include <utility>

#include "chordal/chordality.h"

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

void Reroot(std::vector<int>* parent, int node) {
  int prev = -1;
  for (int cur = node; cur >= 0;) {
    const int next = (*parent)[cur];
    (*parent)[cur] = prev;
    prev = cur;
    cur = next;
  }
}

Triangulation Saturate(const Graph& original, TriangulationTree tree) {
  Triangulation t;
  static_cast<TriangulationTree&>(t) = std::move(tree);
  t.filled = original;
  for (const VertexSet& bag : t.bags) t.filled.SaturateSet(bag);
  return t;
}

TriangulationTree CliqueTreeOfChordal(const Graph& h) {
  const int n = h.NumVertices();
  TriangulationTree tree;
  std::vector<int> bag_of(n);
  std::vector<int> visit_index(n);
  VertexSet visited(n);
  int prev_size = 0;
  const std::vector<int> order = MaximumCardinalitySearch(h);
  for (int i = 0; i < n; ++i) {
    const int v = order[i];
    // madj(v): the neighbours visited before v. In MCS order on a chordal
    // graph it either extends the current bag (it is that whole bag) or
    // starts a new maximal clique whose adhesion to its parent is madj(v).
    VertexSet madj = h.Neighbors(v).Intersect(visited);
    const int size = madj.Count();
    if (tree.bags.empty() || size <= prev_size) {
      // The parent is the bag of madj(v)'s last-visited vertex; an empty
      // madj starts a new component's root.
      int last = -1;
      madj.ForEach([&](int u) {
        if (last < 0 || visit_index[u] > visit_index[last]) last = u;
      });
      tree.parent.push_back(last < 0 ? -1 : bag_of[last]);
      if (last >= 0) tree.separators.push_back(madj);
      madj.Insert(v);
      tree.bags.push_back(std::move(madj));
    } else {
      tree.bags.back().Insert(v);
    }
    bag_of[v] = static_cast<int>(tree.bags.size()) - 1;
    visit_index[v] = i;
    visited.Insert(v);
    prev_size = size;
  }
  std::sort(tree.separators.begin(), tree.separators.end());
  tree.separators.erase(
      std::unique(tree.separators.begin(), tree.separators.end()),
      tree.separators.end());
  return tree;
}

Triangulation TriangulationFromChordal(Graph h) {
  Triangulation t;
  static_cast<TriangulationTree&>(t) = CliqueTreeOfChordal(h);
  t.filled = std::move(h);
  return t;
}

}  // namespace mintri
