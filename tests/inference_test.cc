// The junction-tree oracle against brute force, and the state-space cost
// against the oracle's clique-table totals on ranked decompositions.

#include "junction_tree_oracle.h"

#include <gtest/gtest.h>

#include "cost/standard_costs.h"
#include "enumeration/ranked_enum.h"
#include "inference/model_io.h"
#include "util/rng.h"
#include "workloads/named_graphs.h"

namespace mintri {
namespace {

using testutil::JunctionTreeInference;
using testutil::MarginalizeTo;
using testutil::Multiply;
using testutil::TotalMass;

Factor RandomFactor(std::vector<int> scope, const std::vector<int>& domains,
                    Rng* rng) {
  Factor f = Factor::Ones(std::move(scope), domains);
  for (double& v : f.table) v = 0.1 + rng->NextDouble();
  return f;
}

TEST(FactorTest, MultiplyDisjointScopesIsOuterProduct) {
  std::vector<int> domains = {2, 3};
  Factor a{{0}, {2.0, 5.0}};
  Factor b{{1}, {1.0, 10.0, 100.0}};
  Factor p = Multiply(a, b, domains);
  EXPECT_EQ(p.scope, (std::vector<int>{0, 1}));
  ASSERT_EQ(p.table.size(), 6u);
  EXPECT_DOUBLE_EQ(p.table[0], 2.0);    // (0,0)
  EXPECT_DOUBLE_EQ(p.table[2], 200.0);  // (0,2)
  EXPECT_DOUBLE_EQ(p.table[5], 500.0);  // (1,2)
}

TEST(FactorTest, MultiplySharedScope) {
  std::vector<int> domains = {2};
  Factor a{{0}, {2.0, 3.0}};
  Factor b{{0}, {10.0, 100.0}};
  Factor p = Multiply(a, b, domains);
  EXPECT_EQ(p.table, (std::vector<double>{20.0, 300.0}));
}

TEST(FactorTest, MarginalizeSumsOut) {
  std::vector<int> domains = {2, 2};
  Factor f{{0, 1}, {1.0, 2.0, 3.0, 4.0}};
  Factor m0 = MarginalizeTo(f, {0}, domains);
  EXPECT_EQ(m0.table, (std::vector<double>{3.0, 7.0}));
  Factor m1 = MarginalizeTo(f, {1}, domains);
  EXPECT_EQ(m1.table, (std::vector<double>{4.0, 6.0}));
  Factor z = MarginalizeTo(f, {}, domains);
  EXPECT_EQ(z.table, (std::vector<double>{10.0}));
  EXPECT_DOUBLE_EQ(TotalMass(f), 10.0);
}

TEST(JunctionTreeTest, IndependentVariables) {
  std::vector<int> domains = {2, 2};
  std::vector<Factor> factors = {{{0}, {1.0, 3.0}}, {{1}, {2.0, 2.0}}};
  JunctionTreeInference model(domains, factors);
  TreeDecomposition td;
  td.bags = {VertexSet::Of(2, {0}), VertexSet::Of(2, {1})};
  td.edges = {{0, 1}};
  auto r = model.Run(td);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->partition_function, 16.0, 1e-9);  // (1+3)*(2+2)
  EXPECT_NEAR(r->marginals[0][1], 0.75, 1e-9);
  EXPECT_NEAR(r->marginals[1][0], 0.5, 1e-9);
}

TEST(JunctionTreeTest, RejectsNonCoveringDecomposition) {
  std::vector<int> domains = {2, 2};
  std::vector<Factor> factors = {{{0, 1}, {1.0, 2.0, 3.0, 4.0}}};
  JunctionTreeInference model(domains, factors);
  TreeDecomposition td;
  td.bags = {VertexSet::Of(2, {0}), VertexSet::Of(2, {1})};
  td.edges = {{0, 1}};
  EXPECT_FALSE(model.Run(td).has_value());
}

class JunctionTreeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(JunctionTreeRandomTest, MatchesBruteForceOnRandomGridModels) {
  Rng rng(GetParam());
  const int rows = 2 + GetParam() % 2, cols = 3;
  Graph g = workloads::Grid(rows, cols);
  std::vector<int> domains(g.NumVertices(), 2 + GetParam() % 2);
  std::vector<Factor> factors;
  for (const auto& [u, v] : g.Edges()) {
    factors.push_back(RandomFactor({u, v}, domains, &rng));
  }
  for (int v = 0; v < g.NumVertices(); ++v) {
    factors.push_back(RandomFactor({v}, domains, &rng));
  }
  JunctionTreeInference model(domains, factors);
  EXPECT_EQ((GraphicalModel{domains, factors}.MarkovGraph()), g);

  // Run inference on EVERY proper tree decomposition (ranked by state
  // space): all must agree with brute force.
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  std::vector<double> dd(domains.begin(), domains.end());
  TotalStateSpaceCost cost(dd);
  RankedTriangulationEnumerator e(*ctx, cost);
  auto brute = model.BruteForce();
  int checked = 0;
  double last_tables = 0;
  while (checked < 5) {
    auto t = e.Next();
    if (!t.has_value()) break;
    auto r = model.Run(CliqueTreeOf(*t));
    ASSERT_TRUE(r.has_value());
    EXPECT_NEAR(r->partition_function / brute.partition_function, 1.0, 1e-9);
    for (int v = 0; v < g.NumVertices(); ++v) {
      for (int x = 0; x < domains[v]; ++x) {
        EXPECT_NEAR(r->marginals[v][x], brute.marginals[v][x], 1e-9);
      }
    }
    // The decomposition's DP cost is exactly the inference table total.
    EXPECT_NEAR(r->total_table_entries, t->cost, 1e-9);
    EXPECT_GE(r->total_table_entries, last_tables - 1e-9);  // ranked
    last_tables = r->total_table_entries;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JunctionTreeRandomTest,
                         ::testing::Range(0, 6));

// Regression: a zero partition function used to yield silently all-zero
// "marginals" with no indication anything was wrong. The degenerate case
// must be signalled explicitly, by both inference paths.
TEST(JunctionTreeTest, ZeroPartitionFunctionIsSignalled) {
  std::vector<int> domains = {2, 2};
  std::vector<Factor> factors = {{{0, 1}, {0.0, 0.0, 0.0, 0.0}}};
  JunctionTreeInference model(domains, factors);
  TreeDecomposition td;
  td.bags = {VertexSet::Of(2, {0, 1})};
  auto r = model.Run(td);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->degenerate);
  EXPECT_EQ(r->partition_function, 0.0);
  auto brute = model.BruteForce();
  EXPECT_TRUE(brute.degenerate);
  EXPECT_EQ(brute.partition_function, 0.0);
  // A well-posed model reports non-degenerate through both paths.
  std::vector<Factor> ok = {{{0, 1}, {1.0, 2.0, 3.0, 4.0}}};
  JunctionTreeInference good(domains, ok);
  EXPECT_FALSE(good.BruteForce().degenerate);
  EXPECT_FALSE(good.Run(td)->degenerate);
}

// Regression: the flat indices both inference paths compute are bounded by
// the product of each scope's domains, so a factor whose table size
// disagrees with its scope used to read out of bounds (caught by ASan on
// the old code). BruteForce reports the mismatch as degenerate (its
// signature has no failure channel); Run rejects the model outright.
TEST(JunctionTreeTest, MismatchedFactorTablesAreRejected) {
  std::vector<int> domains = {2, 2};
  std::vector<Factor> factors = {{{0, 1}, {1.0, 2.0}}};  // should be 4 wide
  JunctionTreeInference model(domains, factors);
  auto r = model.BruteForce();
  EXPECT_TRUE(r.degenerate);
  EXPECT_EQ(r.partition_function, 0.0);
  TreeDecomposition td;
  td.bags = {VertexSet::Of(2, {0, 1})};
  EXPECT_FALSE(model.Run(td).has_value());
}

TEST(JunctionTreeTest, ForestModel) {
  // Disconnected model: two independent pairs.
  std::vector<int> domains = {2, 2, 2, 2};
  std::vector<Factor> factors = {{{0, 1}, {1, 0, 0, 1}},
                                 {{2, 3}, {2, 1, 1, 2}}};
  JunctionTreeInference model(domains, factors);
  TreeDecomposition td;
  td.bags = {VertexSet::Of(4, {0, 1}), VertexSet::Of(4, {2, 3})};
  td.edges = {{0, 1}};  // empty adhesion joins the components
  auto r = model.Run(td);
  ASSERT_TRUE(r.has_value());
  auto brute = model.BruteForce();
  EXPECT_NEAR(r->partition_function, brute.partition_function, 1e-9);
}

}  // namespace
}  // namespace mintri
