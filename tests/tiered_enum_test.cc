#include "enumeration/tiered_enum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "chordal/chordality.h"
#include "chordal/lb_triang.h"
#include "chordal/minimality.h"
#include "cost/standard_costs.h"
#include "test_util.h"
#include "triang/triangulation.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

using testutil::FillSet;
using testutil::MakeGraph;

constexpr int kExhaustCap = 20000;

// Full stream of one enumerator as (cost sequence, cost -> fill-set class).
// Every result is checked to be a proper clique tree with its true κ.
struct Stream {
  std::vector<CostValue> costs;
  std::map<CostValue, std::set<FillSet>> classes;
};

Stream Drain(const Graph& g, const BagCost& cost, TieredEnumerator* e) {
  Stream s;
  for (int i = 0; i < kExhaustCap; ++i) {
    auto t = e->Next();
    if (!t.has_value()) return s;
    testutil::ExpectProperCliqueTree(g, t->triangulation, cost,
                                     "result " + std::to_string(i));
    s.costs.push_back(t->triangulation.cost);
    s.classes[t->triangulation.cost].insert(
        testutil::FillKey(g, t->triangulation.filled));
  }
  ADD_FAILURE() << "stream did not terminate within " << kExhaustCap;
  return s;
}

TierOptions AutoOptions(bool decomposable) {
  TierOptions t;
  t.mode = TierOptions::Mode::kAuto;
  t.decomposable_cost = decomposable;
  return t;
}

// --tier=exact: units are the connected components, no Tier 0. This is the
// direct reference the auto-mode differentials compare against.
TierOptions ExactOptions() {
  TierOptions t;
  t.mode = TierOptions::Mode::kExact;
  return t;
}

// Bowtie: two triangles on a cut vertex. Chordal, so Tier 0 reduces it
// fully.
Graph Bowtie() {
  return MakeGraph(5, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}});
}

// Adds the cycle through `vertices`, in order, to g.
void AddCycle(Graph* g, std::initializer_list<int> vertices) {
  const std::vector<int> v(vertices);
  for (size_t i = 0; i < v.size(); ++i) {
    g->AddEdge(v[i], v[(i + 1) % v.size()]);
  }
}

// Two C4s glued on a saturated edge {0, 1}: a size-2 clique separator.
Graph TwoC4sOnEdge() {
  Graph g(6);
  AddCycle(&g, {0, 2, 3, 1});
  AddCycle(&g, {0, 4, 5, 1});
  return g;
}

// Three atoms in a chain: a C4 {0,1,2,3} and a C5 {0,1,4,5,6} share the
// edge {0, 1}; the C5 and a C4 {5,7,8,9} share the cut vertex 5. 2 x 5 x 2
// minimal triangulations.
Graph ThreeAtomChain() {
  Graph g(10);
  AddCycle(&g, {0, 2, 3, 1});
  AddCycle(&g, {0, 1, 4, 5, 6});
  AddCycle(&g, {5, 7, 8, 9});
  return g;
}

// A C5 with the pendant path 4-5-6-7: Tier 0 eliminates the simplicial tail
// 7, 6, 5 and leaves the C5 as the only atom.
Graph C5WithTail() {
  Graph g(8);
  AddCycle(&g, {0, 1, 2, 3, 4});
  for (int v = 4; v < 7; ++v) g.AddEdge(v, v + 1);
  return g;
}

std::vector<Graph> DifferentialCorpus() {
  std::vector<Graph> corpus;
  corpus.push_back(testutil::PaperExampleGraph());
  corpus.push_back(workloads::Cycle(4));
  corpus.push_back(workloads::Cycle(6));
  corpus.push_back(MakeGraph(4, {{1, 2}}));  // isolated vertices
  corpus.push_back(Bowtie());
  corpus.push_back(TwoC4sOnEdge());
  // Gluing cases of the lifted assembly: eliminated vertices whose N(v) is
  // an existing bag (a path, a tree, a pendant path on a cycle), a component
  // that Tier 0 reduces fully next to one it leaves, and three atoms chained
  // on clique separators of sizes 2 and 1.
  corpus.push_back(workloads::Path(5));
  corpus.push_back(workloads::RandomTree(15, 3));
  corpus.push_back(C5WithTail());
  Graph path_plus_c5(10);
  for (int i = 0; i < 4; ++i) path_plus_c5.AddEdge(i, i + 1);
  for (int i = 0; i < 5; ++i) path_plus_c5.AddEdge(5 + i, 5 + (i + 1) % 5);
  corpus.push_back(path_plus_c5);
  corpus.push_back(ThreeAtomChain());
  for (uint64_t seed = 0; seed < 6; ++seed) {
    corpus.push_back(workloads::ConnectedErdosRenyi(9, 0.3, seed));
  }
  for (uint64_t seed = 0; seed < 3; ++seed) {
    corpus.push_back(workloads::ErdosRenyi(10, 0.25, seed));  // may split
  }
  return corpus;
}

// The tentpole differential: whenever Tier 1 suffices, the tiered stream
// must equal the direct exact stream — same κ sequence and, within every
// κ class, the same set of triangulations (tie order inside a class may
// legally differ once Tier 0 rewrites the units).
TEST(TieredEnumTest, DifferentialWidthEqualsDirect) {
  for (const Graph& g : DifferentialCorpus()) {
    WidthCost width;
    TieredEnumerator direct(g, width, CostComposition::kMax, {}, {},
                            ExactOptions());
    ASSERT_TRUE(direct.init_ok());
    Stream expected = Drain(g, width, &direct);

    TieredEnumerator tiered(g, width, CostComposition::kMax, {}, {},
                            AutoOptions(true));
    EXPECT_NE(tiered.tier(), SolveTier::kHeuristic);
    Stream got = Drain(g, width, &tiered);
    EXPECT_EQ(got.costs, expected.costs) << "n=" << g.NumVertices();
    EXPECT_EQ(got.classes, expected.classes) << "n=" << g.NumVertices();
  }
}

TEST(TieredEnumTest, DifferentialFillSumEqualsDirect) {
  for (const Graph& g : DifferentialCorpus()) {
    FillInCost fill;
    TieredEnumerator direct(g, fill, CostComposition::kSum, {}, {},
                            ExactOptions());
    ASSERT_TRUE(direct.init_ok());
    Stream expected = Drain(g, fill, &direct);

    TieredEnumerator tiered(g, fill, CostComposition::kSum, {}, {},
                            AutoOptions(true));
    Stream got = Drain(g, fill, &tiered);
    EXPECT_EQ(got.costs, expected.costs) << "n=" << g.NumVertices();
    EXPECT_EQ(got.classes, expected.classes) << "n=" << g.NumVertices();
  }
}

// A non-decomposable cost keeps the units at whole connected components, so
// the stream must be byte-for-byte the exact-mode stream (tie order
// included).
TEST(TieredEnumTest, NonDecomposableCostReplaysExactModeExactly) {
  Graph g = testutil::PaperExampleGraph();
  WidthCost width;
  TieredEnumerator direct(g, width, CostComposition::kMax, {}, {},
                          ExactOptions());
  TieredEnumerator tiered(g, width, CostComposition::kMax, {}, {},
                          AutoOptions(false));
  EXPECT_EQ(tiered.tier(), SolveTier::kExact);
  while (true) {
    auto a = direct.Next();
    auto b = tiered.Next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) break;
    testutil::ExpectProperCliqueTree(g, a->triangulation, width);
    testutil::ExpectProperCliqueTree(g, b->triangulation, width);
    EXPECT_EQ(a->triangulation.cost, b->triangulation.cost);
    EXPECT_EQ(testutil::FillKey(g, a->triangulation.filled),
              testutil::FillKey(g, b->triangulation.filled));
  }
}

// Golden auto-mode streams on graphs that Tier 0 really rewrites (every one
// is labelled atom-exact): FNV digests of κ + sorted fill edges + tier label
// per result, in stream order, under width/kMax and fill/kSum. They pin the
// lifted assembly byte for byte, tie order included.
TEST(TieredEnumTest, AtomExactStreamsMatchRecordedDigests) {
  struct Golden {
    std::string name;
    Graph graph;
    size_t length;
    uint64_t width_digest;  // CostComposition::kMax
    uint64_t fill_digest;   // CostComposition::kSum
  };
  // The ErdosRenyi(10, 0.25, seed) seeds split into several atoms (seed 0
  // also has two components, seed 25 only loses a simplicial vertex).
  const std::vector<Golden> goldens = {
      {"bowtie", Bowtie(), 1, 0x7170c38676e34ebeull, 0x81db8da61960af7eull},
      {"two-c4s-on-edge", TwoC4sOnEdge(), 4, 0x9dc757532609b065ull,
       0x9dc757532609b065ull},
      {"three-atom-chain", ThreeAtomChain(), 20, 0xb8e22a0c9a0599e5ull,
       0x8d8c020feb020da5ull},
      {"c5-with-tail", C5WithTail(), 5, 0xf2e5d2860246573cull,
       0xf2e5d2860246573cull},
      {"er-10-0.25-0", workloads::ErdosRenyi(10, 0.25, 0), 4,
       0xc0a90d8929867105ull, 0xc0a90d8929867105ull},
      {"er-10-0.25-7", workloads::ErdosRenyi(10, 0.25, 7), 28,
       0xafe0388d217c42a5ull, 0xd792a65d286517a5ull},
      {"er-10-0.25-11", workloads::ErdosRenyi(10, 0.25, 11), 4,
       0x68b9a58c80635d45ull, 0xd6d32457d34d95a5ull},
      {"er-10-0.25-21", workloads::ErdosRenyi(10, 0.25, 21), 4,
       0xf484335f67e99905ull, 0xf484335f67e99905ull},
      {"er-10-0.25-25", workloads::ErdosRenyi(10, 0.25, 25), 132,
       0xf8f2df50bb805a2cull, 0xbe5fc09b38f95550ull},
      {"er-10-0.25-26", workloads::ErdosRenyi(10, 0.25, 26), 4,
       0xbe7a40ebdd41d305ull, 0x57d93d94873952e5ull},
  };
  WidthCost width;
  FillInCost fill;
  for (const Golden& golden : goldens) {
    for (int which_cost = 0; which_cost < 2; ++which_cost) {
      const std::string where =
          golden.name + (which_cost == 0 ? "/width" : "/fill");
      const BagCost& cost = which_cost == 0
                                ? static_cast<const BagCost&>(width)
                                : static_cast<const BagCost&>(fill);
      TieredEnumerator e(golden.graph, cost,
                         which_cost == 0 ? CostComposition::kMax
                                         : CostComposition::kSum,
                         {}, {}, AutoOptions(true));
      EXPECT_EQ(e.tier(), SolveTier::kAtomExact) << where;
      testutil::StreamDigest digest;
      while (auto r = e.Next()) {
        testutil::ExpectProperCliqueTree(golden.graph, r->triangulation, cost,
                                         where);
        digest.Add(golden.graph, r->triangulation);
        digest.AddLabel(TierName(r->tier));
      }
      EXPECT_EQ(digest.length(), golden.length) << where;
      EXPECT_EQ(digest.value(),
                which_cost == 0 ? golden.width_digest : golden.fill_digest)
          << where << " digest 0x" << std::hex << digest.value();
    }
  }
}

// Golden Mode::kHeuristic streams on single-atom graphs (digests as above).
// Tier 2 seeds each atom with the min-degree triangulation's clique tree
// that Tier 0 already built; on one atom that is the tree LbTriangMinDegree
// gives for the atom itself, so the restricted family and its stream are
// pinned byte for byte.
TEST(TieredEnumTest, HeuristicStreamsMatchRecordedDigests) {
  struct Golden {
    std::string name;
    Graph graph;
    size_t width_length;
    uint64_t width_digest;  // CostComposition::kMax
    size_t fill_length;
    uint64_t fill_digest;   // CostComposition::kSum
  };
  const std::vector<Golden> goldens = {
      {"cycle-12", workloads::Cycle(12), 1, 0x41ae865873c955e1ull, 1,
       0x95e3d73f8d500713ull},
      {"grid-5x5", workloads::Grid(5, 5), 4, 0xbac2fe78dec08355ull, 4,
       0x767d3adffc9d15edull},
      {"er-14-0.25-1", workloads::ConnectedErdosRenyi(14, 0.25, 1), 4,
       0x65520ac4211ab83ull, 4, 0xcf7789ddd26f3914ull},
  };
  WidthCost width;
  FillInCost fill;
  TierOptions heuristic = AutoOptions(true);
  heuristic.mode = TierOptions::Mode::kHeuristic;
  for (const Golden& golden : goldens) {
    for (int which_cost = 0; which_cost < 2; ++which_cost) {
      const std::string where =
          golden.name + (which_cost == 0 ? "/width" : "/fill");
      const BagCost& cost = which_cost == 0
                                ? static_cast<const BagCost&>(width)
                                : static_cast<const BagCost&>(fill);
      TieredEnumerator e(golden.graph, cost,
                         which_cost == 0 ? CostComposition::kMax
                                         : CostComposition::kSum,
                         {}, {}, heuristic);
      EXPECT_EQ(e.tier(), SolveTier::kHeuristic) << where;
      EXPECT_EQ(e.preprocess_info().num_atoms, 1) << where;
      testutil::StreamDigest digest;
      while (auto r = e.Next()) {
        testutil::ExpectProperCliqueTree(golden.graph, r->triangulation, cost,
                                         where);
        digest.Add(golden.graph, r->triangulation);
        digest.AddLabel(TierName(r->tier));
      }
      EXPECT_EQ(digest.length(), which_cost == 0 ? golden.width_length
                                                 : golden.fill_length)
          << where;
      EXPECT_EQ(digest.value(),
                which_cost == 0 ? golden.width_digest : golden.fill_digest)
          << where << " digest 0x" << std::hex << digest.value();
    }
  }
}

// Heuristic atoms glue like exact ones: with the exact budget spent every
// atom of the chain falls to Tier 2, and with a separator cap only the C5
// atom (5 minimal separators, against 2 per C4) does, between two exact C4
// atoms.
TEST(TieredEnumTest, HeuristicAtomsGlueIntoProperCliqueTrees) {
  const Graph g = ThreeAtomChain();
  WidthCost width;
  TierOptions no_budget = AutoOptions(true);
  no_budget.exact_budget_seconds = 0;
  ContextOptions capped;
  capped.separator_limits.max_results = 3;
  for (int variant = 0; variant < 2; ++variant) {
    TieredEnumerator e(g, width, CostComposition::kMax,
                       variant == 0 ? ContextOptions{} : capped, {},
                       variant == 0 ? no_budget : AutoOptions(true));
    EXPECT_EQ(e.tier(), SolveTier::kHeuristic) << variant;
    EXPECT_EQ(e.init_info().num_ms_terminated, variant == 0 ? 3u : 1u);
    CostValue last = -1;
    int count = 0;
    while (auto r = e.Next()) {
      const Triangulation& t = r->triangulation;
      testutil::ExpectProperCliqueTree(g, t, width,
                                       "variant " + std::to_string(variant));
      EXPECT_TRUE(IsMinimalTriangulation(g, t.filled)) << variant;
      EXPECT_GE(t.cost, last) << variant;
      last = t.cost;
      ++count;
    }
    EXPECT_GE(count, 1) << variant;
  }
}

TEST(TieredEnumTest, FamilyCorpusPrefixDifferential) {
  // Medium graphs (n <= 40): compare the first 50 κ values of the tiered
  // stream against the direct stream at several thread counts.
  std::vector<Graph> graphs = {workloads::Grid(4, 5), workloads::Queen(4),
                               workloads::ConnectedErdosRenyi(24, 0.12, 5)};
  for (const Graph& g : graphs) {
    WidthCost width;
    TieredEnumerator direct(g, width, CostComposition::kMax, {}, {},
                            ExactOptions());
    ASSERT_TRUE(direct.init_ok());
    std::vector<CostValue> expected;
    for (int i = 0; i < 50; ++i) {
      auto t = direct.Next();
      if (!t.has_value()) break;
      testutil::ExpectProperCliqueTree(g, t->triangulation, width);
      expected.push_back(t->triangulation.cost);
    }
    for (int threads : {1, 2, 4}) {
      ContextOptions options;
      options.num_threads = threads;
      TieredEnumerator tiered(g, width, CostComposition::kMax, options, {},
                              AutoOptions(true));
      EXPECT_NE(tiered.tier(), SolveTier::kHeuristic);
      std::vector<CostValue> got;
      for (size_t i = 0; i < expected.size(); ++i) {
        auto t = tiered.Next();
        ASSERT_TRUE(t.has_value()) << "threads=" << threads;
        testutil::ExpectProperCliqueTree(g, t->triangulation, width);
        got.push_back(t->triangulation.cost);
      }
      EXPECT_EQ(got, expected) << "n=" << g.NumVertices()
                               << " threads=" << threads;
    }
  }
}

TEST(TieredEnumTest, StreamIdenticalAtEveryThreadCount) {
  Graph g = workloads::ConnectedErdosRenyi(18, 0.2, 9);
  WidthCost width;
  std::vector<Stream> streams;
  for (int threads : {1, 2, 4}) {
    ContextOptions options;
    options.num_threads = threads;
    TieredEnumerator e(g, width, CostComposition::kMax, options, {},
                       AutoOptions(true));
    streams.push_back(Drain(g, width, &e));
  }
  EXPECT_EQ(streams[0].costs, streams[1].costs);
  EXPECT_EQ(streams[0].costs, streams[2].costs);
  EXPECT_EQ(streams[0].classes, streams[1].classes);
  EXPECT_EQ(streams[0].classes, streams[2].classes);
}

TEST(TieredEnumTest, TierLabels) {
  WidthCost width;
  {
    // A simplicial vertex exists: Tier 0 rewrites, label atom-exact.
    Graph g = testutil::PaperExampleGraph();
    TieredEnumerator e(g, width, CostComposition::kMax, {}, {},
                       AutoOptions(true));
    EXPECT_EQ(e.tier(), SolveTier::kAtomExact);
    EXPECT_GE(e.preprocess_info().vertices_removed, 1);
  }
  {
    // C4 neither reduces nor splits: the stream is literally exact.
    Graph g = workloads::Cycle(4);
    TieredEnumerator e(g, width, CostComposition::kMax, {}, {},
                       AutoOptions(true));
    EXPECT_EQ(e.tier(), SolveTier::kExact);
  }
  {
    TierOptions t = AutoOptions(true);
    t.mode = TierOptions::Mode::kHeuristic;
    Graph g = workloads::Cycle(6);
    TieredEnumerator e(g, width, CostComposition::kMax, {}, {}, t);
    EXPECT_EQ(e.tier(), SolveTier::kHeuristic);
  }
}

TEST(TieredEnumTest, HeuristicStreamIsValidAndSeeded) {
  // Tier-2 results are genuine minimal triangulations with truthful costs,
  // emitted in non-decreasing κ, and the first is at least as cheap as the
  // LB-Triang seed that anchors the restricted family.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(14, 0.25, seed);
    WidthCost width;
    TierOptions t = AutoOptions(true);
    t.mode = TierOptions::Mode::kHeuristic;
    TieredEnumerator e(g, width, CostComposition::kMax, {}, {}, t);
    EXPECT_EQ(e.tier(), SolveTier::kHeuristic);
    Graph seed_triang = LbTriangMinDegree(g);
    CostValue last = -1;
    int count = 0;
    bool first = true;
    while (auto r = e.Next()) {
      const Triangulation& tr = r->triangulation;
      testutil::ExpectProperCliqueTree(g, tr, width,
                                       "seed=" + std::to_string(seed));
      EXPECT_TRUE(IsChordal(tr.filled)) << "seed=" << seed;
      EXPECT_TRUE(IsMinimalTriangulation(g, tr.filled)) << "seed=" << seed;
      EXPECT_EQ(tr.cost, static_cast<CostValue>(tr.Width()))
          << "seed=" << seed;
      EXPECT_GE(tr.cost, last) << "seed=" << seed;
      if (first) {
        // First result is at most the seed triangulation's width.
        const int lb_width = CliqueTreeOfChordal(seed_triang).Width();
        EXPECT_LE(tr.cost, static_cast<CostValue>(lb_width))
            << "seed=" << seed;
        first = false;
      }
      last = tr.cost;
      if (++count >= 200) break;
    }
    EXPECT_GE(count, 1) << "seed=" << seed;
  }
}

TEST(TieredEnumTest, ExhaustedBudgetFallsBackWithTruthfulTally) {
  Graph g = workloads::ConnectedErdosRenyi(16, 0.3, 2);
  WidthCost width;
  TierOptions t = AutoOptions(true);
  t.exact_budget_seconds = 0;  // the shared exact budget is already spent
  TieredEnumerator e(g, width, CostComposition::kMax, {}, {}, t);
  EXPECT_EQ(e.tier(), SolveTier::kHeuristic);
  // Per-atom tally: every skipped exact attempt counts as an ms-terminated
  // build, and each fallback adds one completed family build on top.
  EXPECT_GE(e.init_info().num_ms_terminated, 1u);
  EXPECT_GT(e.init_info().num_builds, e.init_info().num_ms_terminated +
                                          e.init_info().num_pmc_terminated);
  auto r = e.Next();
  ASSERT_TRUE(r.has_value());
  testutil::ExpectProperCliqueTree(g, r->triangulation, width);
  EXPECT_TRUE(IsMinimalTriangulation(g, r->triangulation.filled));
  EXPECT_GT(e.stats().heuristic.total_seconds, 0.0);
}

// An exact attempt its stage limit abandons and the heuristic family that
// answers instead report apart. The 500-cycle has 124,250 minimal
// separators, which take seconds to list (about 40k/s in Release); the
// MinSep stage gets 0.1 s. The shared exact budget stays unlimited, so a
// slow Tier 0 (sanitizer builds) cannot skip the attempt.
TEST(TieredEnumTest, AbandonedExactAttemptReportsApartFromTheFamily) {
  const int n = 500;
  const Graph g = workloads::Cycle(n);
  WidthCost width;
  ContextOptions options;
  options.separator_limits.time_limit_seconds = 0.1;
  TieredEnumerator e(g, width, CostComposition::kMax, options, {},
                     AutoOptions(true));
  ASSERT_TRUE(e.init_ok());
  EXPECT_EQ(e.tier(), SolveTier::kHeuristic);
  const RunStats stats = e.stats();

  // The exact record: one ms-terminated build with the separators it found
  // before the cut, and no PMC stage.
  EXPECT_EQ(stats.exact.num_builds, 1u);
  EXPECT_EQ(stats.exact.num_ms_terminated, 1u);
  EXPECT_GT(stats.exact.num_minseps, 0u);
  EXPECT_LT(stats.exact.num_minseps, static_cast<size_t>(n * (n - 3) / 2));
  EXPECT_EQ(stats.exact.num_pmcs, 0u);
  EXPECT_GT(stats.exact.total_seconds, 0.0);

  // The heuristic record: one completed family build. Each LB-Triang seed
  // of C_n is a triangulated polygon with n - 2 triangles and n - 3 chords,
  // and its time covers the seeding on top of the stages.
  const ContextBuildInfo& family = stats.heuristic;
  EXPECT_EQ(family.num_builds, 1u);
  EXPECT_EQ(family.num_ms_terminated + family.num_pmc_terminated, 0u);
  EXPECT_GE(family.num_pmcs, static_cast<size_t>(n - 2));
  EXPECT_LE(family.num_pmcs, static_cast<size_t>(2 * (n - 2)));
  EXPECT_GE(family.num_minseps, static_cast<size_t>(n - 3));
  EXPECT_GT(family.total_seconds, 0.0);
  EXPECT_GE(family.total_seconds, family.minsep_seconds + family.pmc_seconds +
                                      family.blocks_seconds +
                                      family.wiring_seconds);

  // The merged view perfbench reads is the two records accumulated.
  const ContextBuildInfo merged = e.init_info();
  EXPECT_EQ(merged.num_builds, 2u);
  EXPECT_EQ(merged.num_minseps, stats.exact.num_minseps + family.num_minseps);
  EXPECT_EQ(merged.num_pmcs, family.num_pmcs);
  EXPECT_EQ(e.tier1_seconds(), stats.exact.total_seconds);
  EXPECT_EQ(e.init_seconds(), stats.exact.total_seconds + family.total_seconds);
}

TEST(TieredEnumTest, ChordalInputEmitsExactlyOneResult) {
  // Fully reduced by Tier 0: the unique minimal triangulation of a chordal
  // graph is the graph itself.
  Graph g = workloads::RandomTree(20, 4);
  FillInCost fill;
  TieredEnumerator e(g, fill, CostComposition::kSum, {}, {},
                     AutoOptions(true));
  EXPECT_EQ(e.tier(), SolveTier::kAtomExact);
  EXPECT_EQ(e.preprocess_info().vertices_removed, 20);
  auto r = e.Next();
  ASSERT_TRUE(r.has_value());
  testutil::ExpectProperCliqueTree(g, r->triangulation, fill);
  EXPECT_EQ(r->triangulation.cost, 0);  // no fill
  EXPECT_EQ(r->triangulation.filled.NumEdges(), g.NumEdges());
  EXPECT_FALSE(e.Next().has_value());
}

TEST(TieredEnumTest, ExpiredDeadlineEndsTheStreamTruthfully) {
  // As for RankedTriangulationEnumerator: the first result needs no unit
  // expansion, so it comes out with nothing cut. The second needs the
  // successors of the first tuple, whose unit expansion the expired
  // deadline cuts: that call ends the stream, flagged as truncated. Both a
  // one-unit stream and a two-component product.
  Graph two(18);
  Graph grid = workloads::Grid(3, 3);
  for (int offset : {0, 9}) {
    for (int u = 0; u < 9; ++u) {
      for (int v : grid.Neighbors(u).ToVector()) {
        if (u < v) two.AddEdge(offset + u, offset + v);
      }
    }
  }
  WidthCost width;
  for (const Graph* g : {&grid, &two}) {
    TierOptions exact;
    exact.mode = TierOptions::Mode::kExact;
    TieredEnumerator full(*g, width, CostComposition::kMax, {}, {}, exact);
    auto reference = full.Next();
    ASSERT_TRUE(reference.has_value());
    ASSERT_TRUE(full.Next().has_value());

    TieredEnumerator e(*g, width, CostComposition::kMax, {}, {}, exact);
    ASSERT_TRUE(e.init_ok());
    const Deadline expired(0.0);
    e.SetDeadline(&expired);
    auto first = e.Next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->triangulation.bags, reference->triangulation.bags);
    EXPECT_FALSE(e.truncated());
    EXPECT_FALSE(e.Next().has_value());
    EXPECT_TRUE(e.truncated());
    EXPECT_FALSE(e.Next().has_value());
    EXPECT_TRUE(e.truncated());
  }
}

}  // namespace
}  // namespace mintri
