#ifndef MINTRI_TESTS_TEST_UTIL_H_
#define MINTRI_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "chordal/minimality.h"
#include "graph/graph.h"
#include "separators/crossing.h"
#include "separators/minimal_separators.h"
#include "triang/triangulation.h"

namespace mintri {
namespace testutil {

inline Graph MakeGraph(int n,
                       std::initializer_list<std::pair<int, int>> edges) {
  Graph g(n);
  for (const auto& [u, v] : edges) g.AddEdge(u, v);
  return g;
}

/// The running-example graph of Figure 1: vertices
/// 0=u, 1=v, 2=v', 3=w1, 4=w2, 5=w3. It has exactly 3 minimal separators
/// ({w1,w2,w3}, {u,v}, {v}), 6 potential maximal cliques, and 2 minimal
/// triangulations.
inline Graph PaperExampleGraph() {
  return MakeGraph(6, {{0, 3}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {1, 5},
                       {1, 2}});
}

using FillSet = std::vector<std::pair<int, int>>;

inline FillSet FillKey(const Graph& g, const Graph& h) {
  FillSet fill;
  for (const auto& [u, v] : h.Edges()) {
    if (!g.HasEdge(u, v)) fill.emplace_back(u, v);
  }
  std::sort(fill.begin(), fill.end());
  return fill;
}

/// All maximal sets of pairwise-parallel minimal separators, via
/// Bron–Kerbosch over the "parallel" relation. Exponential; for tests only.
inline std::vector<std::vector<VertexSet>> AllMaximalParallelSets(
    const Graph& g) {
  std::vector<VertexSet> seps =
      ListMinimalSeparators(g).separators;
  const int k = static_cast<int>(seps.size());
  // parallel[i][j] over the separator indices.
  std::vector<std::vector<bool>> parallel(k, std::vector<bool>(k, false));
  for (int i = 0; i < k; ++i) {
    ComponentLabeling labeling(g, seps[i]);
    for (int j = 0; j < k; ++j) {
      if (i != j) parallel[i][j] = labeling.IsParallelTo(seps[j]);
    }
  }
  // Crossing is symmetric, hence so is parallelism; assert for sanity.
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (parallel[i][j] != parallel[j][i]) std::abort();
    }
  }

  std::vector<std::vector<VertexSet>> result;
  // Bron–Kerbosch (no pivot; test scale) for maximal cliques of the
  // parallel graph.
  std::vector<int> r, p, x;
  for (int i = 0; i < k; ++i) p.push_back(i);
  struct BK {
    const std::vector<std::vector<bool>>& adj;
    const std::vector<VertexSet>& seps;
    std::vector<std::vector<VertexSet>>& out;
    void Run(std::vector<int>& r, std::vector<int> p, std::vector<int> x) {
      if (p.empty() && x.empty()) {
        std::vector<VertexSet> clique;
        for (int i : r) clique.push_back(seps[i]);
        out.push_back(std::move(clique));
        return;
      }
      while (!p.empty()) {
        int v = p.back();
        p.pop_back();
        std::vector<int> p2, x2;
        for (int u : p) {
          if (adj[v][u]) p2.push_back(u);
        }
        for (int u : x) {
          if (adj[v][u]) x2.push_back(u);
        }
        r.push_back(v);
        Run(r, std::move(p2), std::move(x2));
        r.pop_back();
        x.push_back(v);
      }
    }
  };
  BK bk{parallel, seps, result};
  bk.Run(r, std::move(p), std::move(x));
  return result;
}

/// Reference enumeration of ALL minimal triangulations via Parra–Scheffler
/// (Theorem 2.5): saturate every maximal set of pairwise-parallel minimal
/// separators. Returns the canonical fill sets, sorted and deduplicated.
inline std::set<FillSet> BruteForceMinimalTriangulationFills(const Graph& g) {
  std::set<FillSet> fills;
  for (const std::vector<VertexSet>& m : AllMaximalParallelSets(g)) {
    Graph h = g;
    for (const VertexSet& s : m) h.SaturateSet(s);
    fills.insert(FillKey(g, h));
  }
  return fills;
}

/// FNV-1a over a ranked stream, fed one result at a time: each result's κ
/// (its bit pattern) and its sorted fill edges, with the counts as
/// delimiters. The golden stream digests of the enumerator tests use it.
class StreamDigest {
 public:
  void Add(const Graph& g, const Triangulation& t) {
    ++length_;
    uint64_t cost_bits;
    std::memcpy(&cost_bits, &t.cost, sizeof cost_bits);
    Mix(cost_bits);
    const std::vector<std::pair<int, int>> fill = t.FillEdgesSorted(g);
    Mix(fill.size());
    for (const auto& [u, v] : fill) {
      Mix(static_cast<uint64_t>(u));
      Mix(static_cast<uint64_t>(v));
    }
  }
  uint64_t value() const { return h_; }
  size_t length() const { return length_; }

 private:
  void Mix(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (word >> (8 * byte)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }

  uint64_t h_ = 0xcbf29ce484222325ull;
  size_t length_ = 0;
};

}  // namespace testutil
}  // namespace mintri

#endif  // MINTRI_TESTS_TEST_UTIL_H_
