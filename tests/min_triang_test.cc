#include "triang/min_triang.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "chordal/minimality.h"
#include "cost/constrained_cost.h"
#include "cost/standard_costs.h"
#include "enumeration/tree_decomposition.h"
#include "test_util.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

TriangulationContext BuildCtx(const Graph& g) {
  auto ctx = TriangulationContext::Build(g);
  EXPECT_TRUE(ctx.has_value());
  return std::move(*ctx);
}

// Reference: minimum width / fill over ALL minimal triangulations
// (Parra–Scheffler brute force).
std::pair<int, long long> BruteForceOptima(const Graph& g) {
  int best_width = g.NumVertices();
  long long best_fill = g.NumVertices() * g.NumVertices();
  for (const auto& fill_set : testutil::BruteForceMinimalTriangulationFills(g)) {
    Graph h = g;
    for (const auto& [u, v] : fill_set) h.AddEdge(u, v);
    best_width = std::min(best_width, CliqueTreeOfChordal(h).Width());
    best_fill = std::min(best_fill,
                         static_cast<long long>(fill_set.size()));
  }
  return {best_width, best_fill};
}

TEST(MinTriangTest, PaperExampleWidthAndFill) {
  Graph g = testutil::PaperExampleGraph();
  TriangulationContext ctx = BuildCtx(g);

  WidthCost width;
  auto by_width = MinTriang(ctx, width);
  ASSERT_TRUE(by_width.has_value());
  // H2 (saturate {u,v}) has width 2; H1 (saturate {w1,w2,w3}) has width 3.
  EXPECT_EQ(by_width->cost, 2);
  EXPECT_EQ(by_width->Width(), 2);
  EXPECT_TRUE(IsMinimalTriangulation(g, by_width->filled));

  FillInCost fill;
  auto by_fill = MinTriang(ctx, fill);
  ASSERT_TRUE(by_fill.has_value());
  // H2 adds 1 edge (uv); H1 adds 3.
  EXPECT_EQ(by_fill->cost, 1);
  EXPECT_EQ(by_fill->FillIn(g), 1);
}

TEST(MinTriangTest, ChordalInputReturnsItself) {
  Graph g = workloads::Path(6);
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  auto t = MinTriang(ctx, width);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->filled, g);
  EXPECT_EQ(t->cost, 1);
  EXPECT_EQ(t->bags.size(), 5u);
}

TEST(MinTriangTest, SingleVertex) {
  Graph g(1);
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  auto t = MinTriang(ctx, width);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->cost, 0);
  EXPECT_EQ(t->bags.size(), 1u);
  EXPECT_TRUE(t->separators.empty());
}

class MinTriangPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MinTriangPropertyTest, OptimalAndValidOnRandomGraphs) {
  auto [n, seed] = GetParam();
  double p = 0.2 + 0.06 * (seed % 7);
  Graph g = workloads::ConnectedErdosRenyi(n, p, 10000 + seed);
  TriangulationContext ctx = BuildCtx(g);
  auto [opt_width, opt_fill] = BruteForceOptima(g);

  WidthCost width;
  auto by_width = MinTriang(ctx, width);
  ASSERT_TRUE(by_width.has_value());
  EXPECT_TRUE(IsMinimalTriangulation(g, by_width->filled));
  EXPECT_EQ(by_width->cost, opt_width);
  // The DP value equals the direct evaluation of the produced bag set.
  EXPECT_EQ(by_width->cost, width.Evaluate(g, by_width->bags));

  FillInCost fill;
  auto by_fill = MinTriang(ctx, fill);
  ASSERT_TRUE(by_fill.has_value());
  EXPECT_TRUE(IsMinimalTriangulation(g, by_fill->filled));
  EXPECT_EQ(by_fill->cost, opt_fill);
  EXPECT_EQ(by_fill->cost, fill.Evaluate(g, by_fill->bags));
  EXPECT_EQ(by_fill->cost, static_cast<CostValue>(by_fill->FillIn(g)));

  // The clique tree is a proper tree decomposition.
  EXPECT_TRUE(CliqueTreeOf(*by_width).IsProperFor(g));
  EXPECT_TRUE(CliqueTreeOf(*by_fill).IsProperFor(g));
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, MinTriangPropertyTest,
    ::testing::Combine(::testing::Values(6, 7, 8, 9),
                       ::testing::Range(0, 8)));

TEST(MinTriangTest, WidthThenFillAgreesWithSeparateOptima) {
  for (int seed = 0; seed < 6; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(8, 0.3, 11000 + seed);
    TriangulationContext ctx = BuildCtx(g);
    WidthCost width;
    WidthThenFillCost lex;
    auto by_width = MinTriang(ctx, width);
    auto by_lex = MinTriang(ctx, lex);
    ASSERT_TRUE(by_width.has_value() && by_lex.has_value());
    auto [w, f] = WidthThenFillCost::Decode(g, by_lex->cost);
    EXPECT_EQ(w, static_cast<int>(by_width->cost));
    EXPECT_EQ(by_lex->Width(), static_cast<int>(by_width->cost));
    EXPECT_EQ(f, by_lex->FillIn(g));
    EXPECT_TRUE(IsMinimalTriangulation(g, by_lex->filled));
  }
}

TEST(MinTriangTest, TotalStateSpaceIsMinimized) {
  // Exhaustive cross-check of a non-classic split-monotone cost.
  for (int seed = 0; seed < 5; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(7, 0.3, 12000 + seed);
    TriangulationContext ctx = BuildCtx(g);
    auto cost = TotalStateSpaceCost::Uniform(7, 2.0);
    auto t = MinTriang(ctx, *cost);
    ASSERT_TRUE(t.has_value());
    EXPECT_DOUBLE_EQ(t->cost, cost->Evaluate(g, t->bags));

    double best = kInfiniteCost;
    for (const auto& fill_set :
         testutil::BruteForceMinimalTriangulationFills(g)) {
      Graph h = g;
      for (const auto& [u, v] : fill_set) h.AddEdge(u, v);
      best = std::min(best,
                      cost->Evaluate(g, CliqueTreeOfChordal(h).bags));
    }
    EXPECT_DOUBLE_EQ(t->cost, best) << "seed " << seed;
  }
}

TEST(MinTriangTest, ConstraintsForceTheOtherTriangulation) {
  Graph g = testutil::PaperExampleGraph();
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  VertexSet s1 = VertexSet::Of(6, {3, 4, 5});
  VertexSet s2 = VertexSet::Of(6, {0, 1});

  // Excluding {u,v} forces H1 (width 3).
  ConstrainedCost no_s2(width, {}, {s2});
  auto h1 = MinTriang(ctx, no_s2);
  ASSERT_TRUE(h1.has_value());
  EXPECT_EQ(h1->Width(), 3);
  EXPECT_TRUE(h1->filled.IsClique(s1));

  // Requiring S1 also forces H1.
  ConstrainedCost with_s1(width, {s1}, {});
  auto h1b = MinTriang(ctx, with_s1);
  ASSERT_TRUE(h1b.has_value());
  EXPECT_EQ(h1b->FillEdgesSorted(g), h1->FillEdgesSorted(g));

  // Excluding both separators of the two triangulations is infeasible...
  // (every minimal triangulation saturates S3={v}; excluding S3 kills all).
  ConstrainedCost impossible(width, {},
                             {VertexSet::Of(6, {1})});
  EXPECT_FALSE(MinTriang(ctx, impossible).has_value());
}

TEST(MinTriangTest, BoundedWidthContext) {
  Graph g = testutil::PaperExampleGraph();
  ContextOptions options;
  options.width_bound = 2;
  auto ctx = TriangulationContext::Build(g, options);
  ASSERT_TRUE(ctx.has_value());
  WidthCost width;
  auto t = MinTriang(*ctx, width);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->Width(), 2);  // only H2 fits the bound

  // Bound 1 is infeasible (the graph is not a tree/forest).
  ContextOptions tight;
  tight.width_bound = 1;
  auto ctx1 = TriangulationContext::Build(g, tight);
  ASSERT_TRUE(ctx1.has_value());
  EXPECT_FALSE(MinTriang(*ctx1, width).has_value());
}

TEST(MinTriangTest, BoundedWidthMatchesUnboundedWhenFeasible) {
  for (int seed = 0; seed < 6; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(8, 0.25, 13000 + seed);
    TriangulationContext full = BuildCtx(g);
    WidthCost width;
    auto best = MinTriang(full, width);
    ASSERT_TRUE(best.has_value());
    int tw = static_cast<int>(best->cost);

    ContextOptions options;
    options.width_bound = tw;
    auto bounded = TriangulationContext::Build(g, options);
    ASSERT_TRUE(bounded.has_value());
    auto t = MinTriang(*bounded, width);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->cost, best->cost);

    if (tw > 1) {
      ContextOptions below;
      below.width_bound = tw - 1;
      auto infeasible = TriangulationContext::Build(g, below);
      ASSERT_TRUE(infeasible.has_value());
      EXPECT_FALSE(MinTriang(*infeasible, width).has_value())
          << "width bound below treewidth must be infeasible, seed " << seed;
    }
  }
}

}  // namespace
}  // namespace mintri
