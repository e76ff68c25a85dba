#ifndef MINTRI_TESTS_TEST_UTIL_H_
#define MINTRI_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chordal/chordality.h"
#include "chordal/clique_tree.h"
#include "chordal/minimality.h"
#include "cost/bag_cost.h"
#include "graph/graph.h"
#include "hypergraph/hypergraph.h"
#include "separators/crossing.h"
#include "separators/minimal_separators.h"
#include "triang/triangulation.h"
#include "workloads/named_graphs.h"

namespace mintri {
namespace testutil {

/// `json` with every `"..._seconds": <number>` value replaced by 0: the
/// batch writers' wall-clock fields vary run to run, every other byte of a
/// record must not.
inline std::string MaskTimings(const std::string& json) {
  static const std::regex kTimer("\"(\\w*seconds)\": [-+.0-9eE]+");
  return std::regex_replace(json, kTimer, "\"$1\": 0");
}

/// The n×n grid as a hypergraph of its two-vertex edges. Under the
/// hypertree cost its exact edge covers are the slowest bag scores in the
/// repo: a 14×14 query takes about half a second, a 20×20 one minutes.
inline Hypergraph GridHypergraph(int n) {
  Hypergraph h(n * n);
  for (const auto& [u, v] : workloads::Grid(n, n).Edges()) {
    VertexSet e(n * n);
    e.Insert(u);
    e.Insert(v);
    h.AddEdge(std::move(e));
  }
  return h;
}

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
  /// Mixes a per-result label (e.g. the tier name) into the digest.
  void AddLabel(const std::string& label) {
    Mix(label.size());
    for (char c : label) Mix(static_cast<unsigned char>(c));
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

/// Checks that `t` is a proper clique tree of its triangulation of g:
///  - `filled` is a chordal supergraph of g and `bags` are exactly its
///    maximal cliques (as a set);
///  - `parent` is an acyclic forest with one root per connected component
///    of g, satisfying the running-intersection property;
///  - `separators` are the sorted, distinct, non-empty parent adhesions;
///  - `cost` equals `cost.Evaluate(g, bags)`.
inline void ExpectProperCliqueTree(const Graph& g, const Triangulation& t,
                                   const BagCost& cost,
                                   const std::string& where = "") {
  const int n = g.NumVertices();
  const int k = static_cast<int>(t.bags.size());
  ASSERT_EQ(t.filled.NumVertices(), n) << where;
  for (const auto& [u, v] : g.Edges()) {
    ASSERT_TRUE(t.filled.HasEdge(u, v)) << where << " lost edge " << u << "-"
                                        << v;
  }
  ASSERT_TRUE(IsChordal(t.filled)) << where;
  std::vector<VertexSet> bags = t.bags;
  std::vector<VertexSet> cliques = MaximalCliquesOfChordal(t.filled);
  std::sort(bags.begin(), bags.end());
  std::sort(cliques.begin(), cliques.end());
  EXPECT_EQ(bags, cliques) << where << ": bags are not the maximal cliques";

  ASSERT_EQ(t.parent.size(), t.bags.size()) << where;
  int roots = 0;
  for (int i = 0; i < k; ++i) {
    ASSERT_GE(t.parent[i], -1) << where;
    ASSERT_LT(t.parent[i], k) << where;
    if (t.parent[i] < 0) ++roots;
    // Acyclic: every bag reaches a root within k steps.
    int steps = 0;
    for (int b = i; b >= 0; b = t.parent[b]) {
      ASSERT_LE(++steps, k) << where << ": cycle through bag " << i;
    }
  }
  EXPECT_EQ(static_cast<size_t>(roots), g.ConnectedComponents().size())
      << where << ": one root per connected component";

  // Running intersection: the bags holding v span exactly one subtree, i.e.
  // (#bags holding v) - (#tree edges with v on both ends) == 1.
  for (int v = 0; v < n; ++v) {
    int holding = 0;
    int edges = 0;
    for (int i = 0; i < k; ++i) {
      if (!t.bags[i].Contains(v)) continue;
      ++holding;
      if (t.parent[i] >= 0 && t.bags[t.parent[i]].Contains(v)) ++edges;
    }
    EXPECT_EQ(holding - edges, 1) << where << ": vertex " << v;
  }

  std::vector<VertexSet> adhesions;
  for (int i = 0; i < k; ++i) {
    if (t.parent[i] < 0) continue;
    VertexSet a = t.bags[i].Intersect(t.bags[t.parent[i]]);
    if (!a.Empty()) adhesions.push_back(std::move(a));
  }
  std::sort(adhesions.begin(), adhesions.end());
  adhesions.erase(std::unique(adhesions.begin(), adhesions.end()),
                  adhesions.end());
  EXPECT_EQ(t.separators, adhesions) << where << ": separators";
  EXPECT_EQ(t.cost, cost.Evaluate(g, t.bags)) << where << ": cost";
}

}  // namespace testutil
}  // namespace mintri

#endif  // MINTRI_TESTS_TEST_UTIL_H_
