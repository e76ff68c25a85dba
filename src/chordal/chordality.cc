#include "chordal/chordality.h"

#include <algorithm>
#include <cassert>

namespace mintri {

std::vector<int> MaximumCardinalitySearch(const Graph& g) {
  const int n = g.NumVertices();
  std::vector<int> weight(n, 0);
  std::vector<bool> visited(n, false);
  std::vector<int> order;
  order.reserve(n);
  for (int step = 0; step < n; ++step) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      if (!visited[v] && (best == -1 || weight[v] > weight[best])) best = v;
    }
    visited[best] = true;
    order.push_back(best);
    g.Neighbors(best).ForEach([&](int u) {
      if (!visited[u]) ++weight[u];
    });
  }
  return order;
}

bool IsPerfectEliminationOrdering(const Graph& g,
                                  const std::vector<int>& elimination_order) {
  const int n = g.NumVertices();
  assert(static_cast<int>(elimination_order.size()) == n);
  std::vector<int> position(n);
  for (int i = 0; i < n; ++i) position[elimination_order[i]] = i;

  // Standard check: for each v, let L(v) be the neighbors eliminated after v
  // and u the member of L(v) eliminated first. Then L(v) \ {u} must be
  // adjacent to u. This is equivalent to L(v) being a clique for all v.
  for (int i = 0; i < n; ++i) {
    int v = elimination_order[i];
    int u = -1;
    VertexSet later(n);
    g.Neighbors(v).ForEach([&](int w) {
      if (position[w] > i) {
        later.Insert(w);
        if (u == -1 || position[w] < position[u]) u = w;
      }
    });
    if (u == -1) continue;
    later.Erase(u);
    if (!later.IsSubsetOf(g.Neighbors(u))) return false;
  }
  return true;
}

bool IsChordal(const Graph& g) {
  std::vector<int> order = MaximumCardinalitySearch(g);
  std::reverse(order.begin(), order.end());
  return IsPerfectEliminationOrdering(g, order);
}

}  // namespace mintri
