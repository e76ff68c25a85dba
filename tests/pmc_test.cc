#include "pmc/potential_maximal_cliques.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "test_util.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

using testutil::MakeGraph;

PmcResult Enumerate(const Graph& g, int threads, bool exhaustive_pairs,
                    int max_size = std::numeric_limits<int>::max()) {
  auto seps = ListMinimalSeparators(g).separators;
  PmcOptions options;
  options.limits.num_threads = threads;
  options.exhaustive_pairs = exhaustive_pairs;
  options.max_size = max_size;
  PmcResult r = ListPotentialMaximalCliques(g, seps, options);
  EXPECT_EQ(r.status, EnumerationStatus::kComplete);
  return r;
}

std::vector<VertexSet> EnumeratePmcs(const Graph& g) {
  return Enumerate(g, 1, false).pmcs;
}

std::vector<VertexSet> BoundedBruteForce(const Graph& g, int max_size) {
  std::vector<VertexSet> out;
  for (VertexSet& p : PmcsBruteForce(g)) {
    if (p.Count() <= max_size) out.push_back(std::move(p));
  }
  return out;
}

TEST(IsPmcTest, PaperExamplePmcs) {
  Graph g = testutil::PaperExampleGraph();
  // 0=u, 1=v, 2=v', 3=w1, 4=w2, 5=w3. Example 5.2 names {u,w1,w2,w3} and
  // {w1,u,v}; the full PMC set is the bags of T1 and T2 of Figure 1(c).
  EXPECT_TRUE(IsPmc(g, VertexSet::Of(6, {0, 3, 4, 5})));
  EXPECT_TRUE(IsPmc(g, VertexSet::Of(6, {1, 3, 4, 5})));
  EXPECT_TRUE(IsPmc(g, VertexSet::Of(6, {0, 1, 3})));
  EXPECT_TRUE(IsPmc(g, VertexSet::Of(6, {0, 1, 4})));
  EXPECT_TRUE(IsPmc(g, VertexSet::Of(6, {0, 1, 5})));
  EXPECT_TRUE(IsPmc(g, VertexSet::Of(6, {1, 2})));
  // Non-PMCs.
  EXPECT_FALSE(IsPmc(g, VertexSet::Of(6, {0, 1})));     // minimal separator
  EXPECT_FALSE(IsPmc(g, VertexSet::Of(6, {3, 4, 5})));  // minimal separator
  EXPECT_FALSE(IsPmc(g, VertexSet::Of(6, {2})));        // inside a bag
  EXPECT_FALSE(IsPmc(g, VertexSet(6)));                 // empty
}

TEST(IsPmcTest, CliqueOfCompleteGraph) {
  Graph g = workloads::Complete(4);
  EXPECT_TRUE(IsPmc(g, g.Vertices()));
  EXPECT_FALSE(IsPmc(g, VertexSet::Of(4, {0, 1})));
}

TEST(PmcEnumerationTest, PaperExampleHasSixPmcs) {
  Graph g = testutil::PaperExampleGraph();
  auto pmcs = EnumeratePmcs(g);
  EXPECT_EQ(pmcs.size(), 6u);
}

TEST(PmcEnumerationTest, ChordalGraphPmcsAreItsMaximalCliques) {
  // A chordal graph is its own unique minimal triangulation, so its PMCs
  // are exactly its maximal cliques.
  Graph g = workloads::Path(5);
  auto pmcs = EnumeratePmcs(g);
  EXPECT_EQ(pmcs.size(), 4u);
  for (const VertexSet& p : pmcs) EXPECT_EQ(p.Count(), 2);
}

TEST(PmcEnumerationTest, CycleN) {
  // C_n has n(n-3)/2 + n ... the PMCs are the triangle-candidates {i, j, k}
  // that appear in some minimal triangulation; for C4: {0,1,2},{0,2,3},
  // {0,1,3},{1,2,3} — 4 PMCs.
  auto pmcs = EnumeratePmcs(workloads::Cycle(4));
  EXPECT_EQ(pmcs.size(), 4u);
  for (const VertexSet& p : pmcs) EXPECT_EQ(p.Count(), 3);
}

// The crucial completeness check: incremental BT02 enumeration, with both
// of its prunings (case 4 only from new separators, a prefix PMC lifted only
// when it was rejected), vs the brute-force reference on random graphs across
// the density spectrum — serially and on the parallel step, unbounded and
// under size bounds.
class PmcVsBruteForce
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PmcVsBruteForce, IncrementalMatchesBruteForce) {
  auto [n, seed] = GetParam();
  double p = 0.08 + 0.06 * seed;
  Graph g = workloads::ConnectedErdosRenyi(n, p, 4000 + seed);
  const std::vector<VertexSet> brute = PmcsBruteForce(g);
  for (int threads : {1, 4}) {
    EXPECT_EQ(Enumerate(g, threads, false).pmcs, brute)
        << "n=" << n << " seed=" << seed << " p=" << p
        << " threads=" << threads;
    for (int bound : {3, 5}) {
      EXPECT_EQ(Enumerate(g, threads, false, bound).pmcs,
                BoundedBruteForce(g, bound))
          << "n=" << n << " seed=" << seed << " p=" << p
          << " threads=" << threads << " bound=" << bound;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, PmcVsBruteForce,
    ::testing::Combine(::testing::Range(5, 14), ::testing::Range(0, 15)));

TEST(PmcEnumerationTest, NamedGraphsMatchBruteForce) {
  std::vector<Graph> graphs = {
      workloads::Petersen(),      workloads::Grid(3, 3),
      workloads::Cycle(7),        workloads::CompleteBipartite(3, 4),
      workloads::Hypercube(3),    workloads::Mycielski(4),
      testutil::PaperExampleGraph()};
  for (size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_EQ(EnumeratePmcs(graphs[i]), PmcsBruteForce(graphs[i]))
        << "graph #" << i;
  }
}

TEST(PmcEnumerationTest, ExhaustivePairsModeAgrees) {
  // exhaustive_pairs switches every pruning off, so it is the oracle on
  // graphs too large for brute force.
  std::vector<Graph> graphs = {workloads::Grid(4, 4), workloads::Grid(4, 5),
                               workloads::Hypercube(4),
                               workloads::Mycielski(5)};
  for (int n = 16; n <= 20; ++n) {
    graphs.push_back(workloads::ConnectedErdosRenyi(n, 0.2, 5000 + n));
  }
  for (size_t i = 0; i < graphs.size(); ++i) {
    const std::vector<VertexSet> oracle = Enumerate(graphs[i], 4, true).pmcs;
    for (int threads : {1, 4}) {
      EXPECT_EQ(Enumerate(graphs[i], threads, false).pmcs, oracle)
          << "graph #" << i << " threads=" << threads;
    }
  }
}

TEST(PmcEnumerationTest, PathRunsOnlyTheTestsThePruningLeaves) {
  // On the path 0-1-...-(n-1) (its own insertion order) every prefix PMC
  // {j, j+1} stays a PMC, so none is lifted; no separator {j} contains the
  // new vertex a, so case 4 has no T. Step a = 1 tests {0} and its lift
  // {0, 1}; step a >= 2 tests the a - 1 prefix edges and the a - 1 case-3
  // sets {j, a}. In all 2 + (n - 1)(n - 2) tests.
  for (int n : {3, 6, 10}) {
    const PmcResult r = Enumerate(workloads::Path(n), 1, false);
    EXPECT_EQ(r.pmcs.size(), static_cast<size_t>(n - 1));
    EXPECT_EQ(r.num_tests, 2 + (n - 1) * (n - 2)) << "n=" << n;
    EXPECT_GT(Enumerate(workloads::Path(n), 1, true).num_tests, r.num_tests);
  }
}

TEST(PmcEnumerationTest, BoundedSizeMatchesFilteredBruteForce) {
  for (int seed = 0; seed < 8; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(8, 0.35, 6000 + seed);
    auto seps = ListMinimalSeparators(g).separators;
    for (int bound = 2; bound <= 4; ++bound) {
      PmcOptions options;
      options.max_size = bound;
      PmcResult r = ListPotentialMaximalCliques(g, seps, options);
      ASSERT_EQ(r.status, EnumerationStatus::kComplete);
      const std::vector<VertexSet> expected = BoundedBruteForce(g, bound);
      // Bounded enumeration must be sound (every result is a PMC of size
      // <= bound) ...
      for (const VertexSet& p : r.pmcs) {
        EXPECT_TRUE(IsPmc(g, p));
        EXPECT_LE(p.Count(), bound);
      }
      // ... and complete for the bounded regime.
      EXPECT_EQ(r.pmcs, expected) << "seed=" << seed << " bound=" << bound;
    }
  }
}

TEST(PmcEnumerationTest, EveryMinimalSeparatorIsCoveredBySomePmc) {
  // Structural invariant: each minimal separator S is a proper subset of at
  // least one PMC (it is saturated in some minimal triangulation, and lies
  // inside a maximal clique there).
  for (int seed = 0; seed < 8; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(9, 0.3, 7000 + seed);
    auto seps = ListMinimalSeparators(g).separators;
    auto pmcs = EnumeratePmcs(g);
    for (const VertexSet& s : seps) {
      bool covered = false;
      for (const VertexSet& p : pmcs) {
        if (s.IsSubsetOf(p) && !(s == p)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "separator " << s.ToString();
    }
  }
}

TEST(PmcEnumerationTest, SingleVertexAndSingleEdge) {
  Graph g1(1);
  auto pmcs1 = EnumeratePmcs(g1);
  ASSERT_EQ(pmcs1.size(), 1u);
  EXPECT_EQ(pmcs1[0], VertexSet::Single(1, 0));

  Graph g2 = MakeGraph(2, {{0, 1}});
  auto pmcs2 = EnumeratePmcs(g2);
  ASSERT_EQ(pmcs2.size(), 1u);
  EXPECT_EQ(pmcs2[0], VertexSet::All(2));
}

TEST(PmcEnumerationTest, GivenSeparatorsMatchEnumeratedOnes) {
  // The last prefix step reads the caller's MinSep(g) instead of listing it
  // again, and an empty list has it enumerate: both give the same PMCs,
  // serially and on the parallel step, on connected and disconnected graphs.
  std::vector<Graph> graphs = {testutil::PaperExampleGraph(),
                               workloads::Cycle(9), workloads::Grid(4, 4)};
  // A C5 next to a 3x3 grid, vertex 5 isolated: three components.
  Graph split(15);
  for (int v = 0; v < 5; ++v) split.AddEdge(v, (v + 1) % 5);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      const int v = 6 + 3 * r + c;
      if (c < 2) split.AddEdge(v, v + 1);
      if (r < 2) split.AddEdge(v, v + 3);
    }
  }
  graphs.push_back(split);
  for (uint64_t seed = 0; seed < 4; ++seed) {
    graphs.push_back(workloads::ConnectedErdosRenyi(12, 0.25, 7000 + seed));
    graphs.push_back(workloads::ErdosRenyi(12, 0.15, 7100 + seed));
  }
  for (size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const std::vector<VertexSet> seps = ListMinimalSeparators(g).separators;
    for (int threads : {1, 4}) {
      PmcOptions options;
      options.limits.num_threads = threads;
      const PmcResult given = ListPotentialMaximalCliques(g, seps, options);
      const PmcResult listed = ListPotentialMaximalCliques(g, {}, options);
      ASSERT_EQ(given.status, EnumerationStatus::kComplete) << "graph #" << i;
      ASSERT_EQ(listed.status, EnumerationStatus::kComplete) << "graph #" << i;
      EXPECT_EQ(given.pmcs, listed.pmcs)
          << "graph #" << i << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace mintri
