#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "chordal/chordality.h"
#include "chordal/lb_triang.h"
#include "cost/standard_costs.h"
#include "separators/minimal_separators.h"
#include "test_util.h"
#include "triang/triangulation.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

using testutil::MakeGraph;

// Every maximal clique of g, by trying all 2^n vertex subsets (n <= 12).
std::vector<VertexSet> MaximalCliquesBruteForce(const Graph& g) {
  const int n = g.NumVertices();
  std::vector<VertexSet> out;
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    VertexSet c(n);
    for (int v = 0; v < n; ++v) {
      if ((mask >> v) & 1) c.Insert(v);
    }
    if (!g.IsClique(c)) continue;
    bool maximal = true;
    for (int v = 0; v < n && maximal; ++v) {
      if (!c.Contains(v) && c.IsSubsetOf(g.Neighbors(v))) maximal = false;
    }
    if (maximal) out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Checks CliqueTreeOfChordal(h) through TriangulationFromChordal: a proper
// clique tree of h (one root per component, running intersection, the
// separators its distinct non-empty adhesions), whose bags are exactly the
// brute-force maximal cliques and whose separators are exactly MinSep(h).
void ExpectCliqueTreeMatchesBruteForce(const Graph& h,
                                       const std::string& where) {
  ASSERT_TRUE(IsChordal(h)) << where;
  const WidthCost width;
  Triangulation t = TriangulationFromChordal(h);
  t.cost = width.Evaluate(h, t.bags);
  testutil::ExpectProperCliqueTree(h, t, width, where);

  std::vector<VertexSet> bags = t.bags;
  std::sort(bags.begin(), bags.end());
  EXPECT_EQ(bags, MaximalCliquesBruteForce(h)) << where;
  std::vector<VertexSet> brute = MinimalSeparatorsBruteForce(h);
  std::sort(brute.begin(), brute.end());
  EXPECT_EQ(t.separators, brute) << where;
}

TEST(CliqueTreeTest, PathCliquesAreEdges) {
  const TriangulationTree tree = CliqueTreeOfChordal(workloads::Path(4));
  EXPECT_EQ(tree.bags.size(), 3u);
  for (const VertexSet& c : tree.bags) EXPECT_EQ(c.Count(), 2);
  ASSERT_EQ(tree.separators.size(), 2u);  // {1}, {2}
  EXPECT_EQ(tree.separators[0], VertexSet::Of(4, {1}));
  EXPECT_EQ(tree.separators[1], VertexSet::Of(4, {2}));
}

TEST(CliqueTreeTest, CompleteGraphHasOneClique) {
  const TriangulationTree tree = CliqueTreeOfChordal(workloads::Complete(5));
  ASSERT_EQ(tree.bags.size(), 1u);
  EXPECT_EQ(tree.bags[0].Count(), 5);
  EXPECT_EQ(tree.parent, std::vector<int>{-1});
  EXPECT_TRUE(tree.separators.empty());
}

TEST(CliqueTreeTest, EmptyGraphHasNoBags) {
  const TriangulationTree tree = CliqueTreeOfChordal(Graph(0));
  EXPECT_TRUE(tree.bags.empty());
  EXPECT_TRUE(tree.parent.empty());
}

TEST(CliqueTreeTest, ConnectedChordalMatchesBruteForce) {
  // Theorem 2.2(2): a connected chordal graph on n >= 2 vertices has fewer
  // than n maximal cliques.
  for (int seed = 0; seed < 40; ++seed) {
    const int n = 2 + seed % 11;
    Graph g = workloads::ConnectedErdosRenyi(n, 0.15 + 0.02 * (seed % 10),
                                             100 + seed);
    Graph h = LbTriangMinDegree(g);
    ExpectCliqueTreeMatchesBruteForce(h, "seed " + std::to_string(seed));
    EXPECT_LT(CliqueTreeOfChordal(h).bags.size(), static_cast<size_t>(n));
  }
}

TEST(CliqueTreeTest, DisconnectedChordalMatchesBruteForce) {
  for (int seed = 0; seed < 40; ++seed) {
    const int n = 1 + seed % 12;
    Graph g = workloads::ErdosRenyi(n, 0.1 + 0.02 * (seed % 8), 300 + seed);
    ExpectCliqueTreeMatchesBruteForce(LbTriangMinDegree(g),
                                      "seed " + std::to_string(seed));
  }
  ExpectCliqueTreeMatchesBruteForce(Graph(6), "edgeless");
  ExpectCliqueTreeMatchesBruteForce(workloads::RandomTree(12, 7), "tree");
}

TEST(CliqueTreeTest, DisconnectedChordalYieldsOneTreePerComponent) {
  // One tree per component: the forest has a root per component and no
  // edge with an empty adhesion.
  Graph g = MakeGraph(5, {{0, 1}, {2, 3}, {3, 4}});
  const TriangulationTree tree = CliqueTreeOfChordal(g);
  EXPECT_EQ(tree.bags.size(), 3u);
  EXPECT_EQ(std::count(tree.parent.begin(), tree.parent.end(), -1), 2);
  ASSERT_EQ(tree.separators.size(), 1u);
  EXPECT_EQ(tree.separators[0], VertexSet::Of(5, {3}));
  ExpectCliqueTreeMatchesBruteForce(g, "three-bag forest");
}

}  // namespace
}  // namespace mintri
