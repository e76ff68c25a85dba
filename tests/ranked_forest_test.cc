// The ranked product over connected components: TieredEnumerator in
// Mode::kExact (--tier=exact) builds one exact ranked enumerator per
// connected component, with no Tier 0, and merges their streams by composed
// cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "chordal/minimality.h"
#include "cost/standard_costs.h"
#include "enumeration/tiered_enum.h"
#include "test_util.h"
#include "triang/triangulation.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

using testutil::FillSet;
using testutil::MakeGraph;

TierOptions ExactOptions() {
  TierOptions t;
  t.mode = TierOptions::Mode::kExact;
  return t;
}

Graph TwoCycles() {
  // C4 on {0..3} plus C5 on {4..8}: 2 x 5 = 10 minimal triangulations.
  Graph g(9);
  for (int i = 0; i < 4; ++i) g.AddEdge(i, (i + 1) % 4);
  for (int i = 0; i < 5; ++i) g.AddEdge(4 + i, 4 + (i + 1) % 5);
  return g;
}

Graph K4MinusEdgePlusC6() {
  // K4-minus-edge (width 2, already chordal) + C6: global width = max of
  // the parts.
  Graph g(10);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 0);
  g.AddEdge(0, 2);
  for (int i = 0; i < 6; ++i) g.AddEdge(4 + i, 4 + (i + 1) % 6);
  return g;
}
TEST(RankedForestTest, StreamsMatchRecordedDigests) {
  // Golden per-component ranked products on disconnected graphs, including
  // the product's tie order across components (testutil::StreamDigest, the
  // shape of ranked_enum_test's golden digests). The digests were recorded
  // from the standalone per-component product enumerator that Mode::kExact
  // replaced.
  struct Golden {
    const char* name;
    Graph graph;
    size_t length;
    uint64_t width_digest;  // CostComposition::kMax
    uint64_t fill_digest;   // CostComposition::kSum
  };
  Graph c4_c5_c6(15);
  for (int i = 0; i < 4; ++i) c4_c5_c6.AddEdge(i, (i + 1) % 4);
  for (int i = 0; i < 5; ++i) c4_c5_c6.AddEdge(4 + i, 4 + (i + 1) % 5);
  for (int i = 0; i < 6; ++i) c4_c5_c6.AddEdge(9 + i, 9 + (i + 1) % 6);
  const std::vector<Golden> goldens = {
      {"two-cycles", TwoCycles(), 10, 0xe28d67602aaac885ull,
       0x7a5004f919cd3995ull},
      {"k4-e+c6", K4MinusEdgePlusC6(), 14, 0xa9d643e4229451c5ull,
       0xe7dad8ebe86282f5ull},
      {"c4+c5+c6", c4_c5_c6, 140, 0xc1046b7733118425ull,
       0xd1654cdf87fe0165ull},
      {"er-10-0.25-17", workloads::ErdosRenyi(10, 0.25, 17), 28,
       0x9b011d8f2cc315ceull, 0x5310103ae1c291a2ull},
  };
  WidthCost width;
  FillInCost fill;
  for (const Golden& golden : goldens) {
    ASSERT_GE(golden.graph.ConnectedComponents().size(), 2u) << golden.name;
    for (int which_cost = 0; which_cost < 2; ++which_cost) {
      const std::string where =
          std::string(golden.name) + (which_cost == 0 ? "/width" : "/fill");
      const BagCost& cost = which_cost == 0
                                ? static_cast<const BagCost&>(width)
                                : static_cast<const BagCost&>(fill);
      TieredEnumerator e(golden.graph, cost,
                         which_cost == 0 ? CostComposition::kMax
                                         : CostComposition::kSum,
                         {}, {}, ExactOptions());
      ASSERT_TRUE(e.init_ok()) << where;
      EXPECT_EQ(e.tier(), SolveTier::kExact) << where;
      testutil::StreamDigest digest;
      while (auto r = e.Next()) {
        testutil::ExpectProperCliqueTree(golden.graph, r->triangulation, cost,
                                         where);
        digest.Add(golden.graph, r->triangulation);
      }
      EXPECT_FALSE(e.truncated()) << where;
      EXPECT_EQ(digest.length(), golden.length) << where;
      EXPECT_EQ(digest.value(),
                which_cost == 0 ? golden.width_digest : golden.fill_digest)
          << where << " digest 0x" << std::hex << digest.value();
    }
  }
}

TEST(RankedForestTest, ConnectedGraphMatchesPlainEnumerator) {
  Graph g = testutil::PaperExampleGraph();
  WidthCost width;
  TieredEnumerator e(g, width, CostComposition::kMax, {}, {},
                     ExactOptions());
  ASSERT_TRUE(e.init_ok());
  auto first = e.Next();
  ASSERT_TRUE(first.has_value());
  testutil::ExpectProperCliqueTree(g, first->triangulation, width);
  EXPECT_EQ(first->triangulation.Width(), 2);
  EXPECT_EQ(first->tier, SolveTier::kExact);
  auto second = e.Next();
  ASSERT_TRUE(second.has_value());
  testutil::ExpectProperCliqueTree(g, second->triangulation, width);
  EXPECT_EQ(second->triangulation.Width(), 3);
  EXPECT_FALSE(e.Next().has_value());
}

TEST(RankedForestTest, DisconnectedProductCount) {
  Graph g = TwoCycles();
  FillInCost fill;
  TieredEnumerator e(g, fill, CostComposition::kSum, {}, {}, ExactOptions());
  ASSERT_TRUE(e.init_ok());
  std::set<FillSet> produced;
  double last = 0;
  while (auto r = e.Next()) {
    const Triangulation& t = r->triangulation;
    testutil::ExpectProperCliqueTree(g, t, fill);
    EXPECT_GE(t.cost, last - 1e-9);  // ranked by total fill
    last = t.cost;
    EXPECT_TRUE(IsMinimalTriangulation(g, t.filled));
    EXPECT_EQ(t.cost, static_cast<double>(t.FillIn(g)));
    EXPECT_TRUE(produced.insert(t.FillEdgesSorted(g)).second);
  }
  EXPECT_EQ(produced.size(), 10u);  // 2 (C4) x 5 (C5)
}

TEST(RankedForestTest, MaxCompositionRanksWidth) {
  Graph g = K4MinusEdgePlusC6();
  WidthCost width;
  TieredEnumerator e(g, width, CostComposition::kMax, {}, {},
                     ExactOptions());
  ASSERT_TRUE(e.init_ok());
  double last = -1;
  std::set<FillSet> produced;
  while (auto r = e.Next()) {
    const Triangulation& t = r->triangulation;
    testutil::ExpectProperCliqueTree(g, t, width);
    EXPECT_GE(t.cost, last);
    EXPECT_EQ(t.cost, static_cast<double>(t.Width()));
    last = t.cost;
    EXPECT_TRUE(produced.insert(t.FillEdgesSorted(g)).second);
  }
  // The chordal K4-minus-edge has one minimal triangulation and C6 has 14
  // (the Catalan number C_4), so the product has 1 x 14 distinct results.
  EXPECT_EQ(produced.size(), 14u);
}

TEST(RankedForestTest, IsolatedVerticesAndEdges) {
  Graph g = MakeGraph(4, {{1, 2}});  // vertices 0 and 3 isolated
  WidthCost width;
  TieredEnumerator e(g, width, CostComposition::kMax, {}, {},
                     ExactOptions());
  ASSERT_TRUE(e.init_ok());
  auto r = e.Next();
  ASSERT_TRUE(r.has_value());
  testutil::ExpectProperCliqueTree(g, r->triangulation, width);
  EXPECT_EQ(r->triangulation.bags.size(), 3u);  // {0}, {1,2}, {3}
  EXPECT_EQ(r->triangulation.Width(), 1);
  EXPECT_FALSE(e.Next().has_value());
}

TEST(RankedForestTest, RankedPrefixIsGloballyOptimal) {
  // Cross-check the product order against the brute-force cost multiset.
  Graph g = TwoCycles();
  FillInCost fill;
  std::vector<double> brute;
  for (const auto& fs : testutil::BruteForceMinimalTriangulationFills(g)) {
    brute.push_back(static_cast<double>(fs.size()));
  }
  std::sort(brute.begin(), brute.end());
  TieredEnumerator e(g, fill, CostComposition::kSum, {}, {}, ExactOptions());
  for (double expected : brute) {
    auto r = e.Next();
    ASSERT_TRUE(r.has_value());
    testutil::ExpectProperCliqueTree(g, r->triangulation, fill);
    EXPECT_EQ(r->triangulation.cost, expected);
  }
  EXPECT_FALSE(e.Next().has_value());
}

TEST(RankedForestTest, FailedBuildStopsConstruction) {
  // An isolated vertex, then two C6 components. The isolated vertex builds;
  // the first C6 exceeds a one-separator limit, and with no Tier 2 under
  // Mode::kExact construction stops there: the second C6 is never built
  // and the stream is empty.
  Graph g(13);
  for (int i = 0; i < 6; ++i) g.AddEdge(1 + i, 1 + (i + 1) % 6);
  for (int i = 0; i < 6; ++i) g.AddEdge(7 + i, 7 + (i + 1) % 6);
  ContextOptions options;
  options.separator_limits.max_results = 1;
  WidthCost width;
  TieredEnumerator e(g, width, CostComposition::kMax, options, {},
                     ExactOptions());
  EXPECT_FALSE(e.init_ok());
  EXPECT_EQ(e.init_info().num_builds, 2u);
  EXPECT_EQ(e.init_info().num_ms_terminated, 1u);
  EXPECT_STREQ(e.init_info().TerminationName(), "ms-terminated");
  EXPECT_EQ(e.stats().heuristic.total_seconds, 0.0);
  EXPECT_FALSE(e.Next().has_value());
}

}  // namespace
}  // namespace mintri
