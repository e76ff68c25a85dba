#include "enumeration/ranked_enum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chordal/minimality.h"
#include "cost/standard_costs.h"
#include "enumeration/ckk.h"
#include "enumeration/tree_decomposition.h"
#include "test_util.h"
#include "triang/min_triang_solver.h"
#include "workloads/graphical_models.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

TriangulationContext BuildCtx(const Graph& g) {
  auto ctx = TriangulationContext::Build(g);
  EXPECT_TRUE(ctx.has_value());
  return std::move(*ctx);
}

std::vector<Triangulation> Drain(RankedTriangulationEnumerator& e,
                                 size_t cap = 100000) {
  std::vector<Triangulation> out;
  while (out.size() < cap) {
    auto t = e.Next();
    if (!t.has_value()) break;
    out.push_back(std::move(*t));
  }
  return out;
}

TEST(RankedEnumTest, PaperExampleEnumeratesBothTriangulations) {
  Graph g = testutil::PaperExampleGraph();
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  RankedTriangulationEnumerator e(ctx, width);
  auto all = Drain(e);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].Width(), 2);  // H2 first (width 2)
  EXPECT_EQ(all[1].Width(), 3);  // then H1 (width 3)
  for (const auto& t : all) {
    EXPECT_TRUE(IsMinimalTriangulation(g, t.filled));
  }
}

TEST(RankedEnumTest, FourCycleHasTwoTriangulations) {
  // Regression for the Figure 4 off-by-one: with the loop running to k-1
  // only, C4's second triangulation would never be generated (k = 1 at the
  // first pop).
  Graph g = workloads::Cycle(4);
  TriangulationContext ctx = BuildCtx(g);
  FillInCost fill;
  RankedTriangulationEnumerator e(ctx, fill);
  auto all = Drain(e);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].FillIn(g), 1);
  EXPECT_EQ(all[1].FillIn(g), 1);
  EXPECT_NE(all[0].FillEdgesSorted(g), all[1].FillEdgesSorted(g));
}

class RankedEnumPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RankedEnumPropertyTest, CompleteDuplicateFreeAndSorted) {
  auto [n, seed] = GetParam();
  double p = 0.2 + 0.07 * (seed % 6);
  Graph g = workloads::ConnectedErdosRenyi(n, p, 20000 + seed);
  TriangulationContext ctx = BuildCtx(g);

  for (int which_cost = 0; which_cost < 2; ++which_cost) {
    WidthCost width;
    FillInCost fill;
    const BagCost& cost =
        which_cost == 0 ? static_cast<const BagCost&>(width)
                        : static_cast<const BagCost&>(fill);
    RankedTriangulationEnumerator e(ctx, cost);
    auto all = Drain(e);

    // Sorted by cost.
    for (size_t i = 1; i < all.size(); ++i) {
      EXPECT_LE(all[i - 1].cost, all[i].cost) << cost.Name();
    }
    // Each result is a minimal triangulation with a consistent cost.
    std::set<testutil::FillSet> produced;
    for (const auto& t : all) {
      EXPECT_TRUE(IsMinimalTriangulation(g, t.filled)) << cost.Name();
      testutil::ExpectProperCliqueTree(g, t, cost, cost.Name());
      EXPECT_TRUE(produced.insert(t.FillEdgesSorted(g)).second)
          << "duplicate result under " << cost.Name();
    }
    // The result set is exactly the Parra–Scheffler brute-force set.
    EXPECT_EQ(produced, testutil::BruteForceMinimalTriangulationFills(g))
        << "n=" << n << " seed=" << seed << " cost=" << cost.Name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, RankedEnumPropertyTest,
    ::testing::Combine(::testing::Values(5, 6, 7, 8),
                       ::testing::Range(0, 8)));

TEST(RankedEnumTest, SeparatorSetsAreMaximalParallel) {
  // Theorem 2.5: MinSep(H) of every output is a maximal pairwise-parallel
  // set, and saturating it reproduces H.
  Graph g = workloads::Grid(3, 3);
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  RankedTriangulationEnumerator e(ctx, width);
  int checked = 0;
  while (checked < 25) {
    auto t = e.Next();
    if (!t.has_value()) break;
    EXPECT_TRUE(IsMaximalPairwiseParallel(g, t->separators,
                                          ctx.minimal_separators()));
    Graph h = g;
    for (const VertexSet& s : t->separators) h.SaturateSet(s);
    EXPECT_EQ(h, t->filled);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(RankedEnumTest, ChordalGraphYieldsExactlyItself) {
  Graph g = workloads::Path(5);
  TriangulationContext ctx = BuildCtx(g);
  FillInCost fill;
  RankedTriangulationEnumerator e(ctx, fill);
  auto all = Drain(e);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].filled, g);
}

TEST(RankedEnumTest, TreeDecompositionsAreProper) {
  Graph g = testutil::PaperExampleGraph();
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  RankedTriangulationEnumerator e(ctx, width);
  int count = 0;
  CostValue last = -kInfiniteCost;
  while (auto t = e.NextTree()) {
    EXPECT_TRUE(CliqueTreeOf(*t).IsProperFor(g));
    EXPECT_LE(last, t->cost);
    last = t->cost;
    ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST(RankedEnumTest, OrderedAndSetEqualWithCkk) {
  // Ranked enumeration must produce nondecreasing κ and, drained to
  // exhaustion, exactly the set the order-free CKK baseline produces — the
  // two pipelines share no code above the triangulation type.
  std::vector<Graph> graphs = {workloads::Grid(3, 3), workloads::Cycle(7)};
  for (int seed = 0; seed < 4; ++seed) {
    graphs.push_back(workloads::ConnectedErdosRenyi(9, 0.3, 71000 + seed));
  }
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    TriangulationContext ctx = BuildCtx(g);
    FillInCost fill;
    RankedTriangulationEnumerator ranked(ctx, fill);
    std::set<testutil::FillSet> ranked_set;
    CostValue last = -kInfiniteCost;
    while (auto t = ranked.Next()) {
      EXPECT_LE(last, t->cost) << "graph " << gi;
      last = t->cost;
      EXPECT_TRUE(ranked_set.insert(t->FillEdgesSorted(g)).second)
          << "duplicate ranked result, graph " << gi;
    }
    CkkEnumerator ckk(g);
    std::set<testutil::FillSet> ckk_set;
    while (auto t = ckk.Next()) {
      EXPECT_TRUE(ckk_set.insert(t->FillEdgesSorted(g)).second)
          << "duplicate CKK result, graph " << gi;
    }
    EXPECT_EQ(ranked_set, ckk_set) << "graph " << gi;
  }
}

TEST(RankedEnumTest, SolverRepairsAreCheaperThanFullPasses) {
  // The incremental solver is the point of the refactor: across a full
  // enumeration the per-call candidate work must stay well below one full
  // DP pass per optimizer call.
  Graph g = workloads::Grid(3, 3);
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  RankedTriangulationEnumerator e(ctx, width);
  int drained = 0;
  while (drained < 200 && e.Next().has_value()) ++drained;
  ASSERT_GT(drained, 10);
  ASSERT_GT(e.num_optimizer_calls(), 1);
  size_t full_pass = 0;
  for (const auto& block : ctx.blocks()) {
    full_pass += block.candidate_pmcs.size();
  }
  full_pass += ctx.root_candidates().size();
  // The breadth measure (touched candidates, mostly cheap constraint
  // short-circuits) must amortize below a full pass; the expensive base
  // Combine calls — where the DP time actually goes — must amortize far
  // below one (measured ~7% on this graph, ~2% on larger grids).
  const double calls = static_cast<double>(e.num_optimizer_calls());
  const double avg_evals = e.num_candidate_evals() / calls;
  const double avg_combines = e.num_combine_calls() / calls;
  EXPECT_LT(avg_evals, static_cast<double>(full_pass))
      << "repair breadth not amortizing";
  EXPECT_LT(avg_combines, static_cast<double>(full_pass) / 4)
      << "incremental repair is not amortizing: " << avg_combines
      << " Combine calls/solve vs " << full_pass << " per full pass";
}

TEST(RankedEnumTest, OptimizerCallCountGrowsLinearly) {
  // Lawler–Murty invariant: at most |MinSep(H)|+1 optimizer calls per
  // result (polynomial delay bookkeeping for the harness).
  Graph g = workloads::Cycle(6);
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  RankedTriangulationEnumerator e(ctx, width);
  auto all = Drain(e);
  EXPECT_GT(all.size(), 1u);
  long long bound = 1;
  for (const auto& t : all) {
    bound += static_cast<long long>(t.separators.size());
  }
  EXPECT_LE(e.num_optimizer_calls(), bound);
}

void ExpectSameStream(const std::vector<Triangulation>& a,
                      const std::vector<Triangulation>& b,
                      const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string at = where + " result " + std::to_string(i);
    EXPECT_EQ(a[i].cost, b[i].cost) << at;
    EXPECT_EQ(a[i].bags, b[i].bags) << at;
    EXPECT_EQ(a[i].parent, b[i].parent) << at;
    EXPECT_EQ(a[i].separators, b[i].separators) << at;
    EXPECT_TRUE(a[i].filled == b[i].filled) << at;
  }
}

TEST(RankedEnumTest, StreamsAreByteIdenticalAtEveryContextThreadCount) {
  // The ranked stream may not depend on how many threads built the context:
  // a context built with 2 threads must yield the 1-thread stream result for
  // result.
  std::vector<Graph> graphs = {workloads::Grid(3, 3), workloads::Cycle(6)};
  for (int seed = 0; seed < 3; ++seed) {
    graphs.push_back(workloads::ConnectedErdosRenyi(10, 0.3, 31000 + seed));
  }
  WidthCost width;
  FillInCost fill;
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    for (int which_cost = 0; which_cost < 2; ++which_cost) {
      const BagCost& cost =
          which_cost == 0 ? static_cast<const BagCost&>(width)
                          : static_cast<const BagCost&>(fill);
      std::vector<Triangulation> reference;
      for (int threads : {1, 2}) {
        const std::string where = "graph " + std::to_string(gi) + " cost " +
                                  std::to_string(which_cost) + " t=" +
                                  std::to_string(threads);
        ContextOptions options;
        options.num_threads = threads;
        auto ctx = TriangulationContext::Build(graphs[gi], options);
        ASSERT_TRUE(ctx.has_value()) << where;
        RankedTriangulationEnumerator e(*ctx, cost);
        auto stream = Drain(e, 200);
        if (reference.empty()) {
          reference = std::move(stream);
        } else {
          ExpectSameStream(stream, reference,
                           where + " vs serial-context stream");
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(RankedEnumTest, FullStreamsMatchRecordedDigests) {
  // Golden streams: the thread-count and tiered/exact identity tests
  // compare two runs that share the solver, so an order change both runs
  // make would pass them. These digests pin the complete (κ, fill edges)
  // sequence itself.
  struct Golden {
    const char* name;
    Graph graph;
    size_t length;  // every minimal triangulation, whatever the cost
    uint64_t width_digest;
    uint64_t fill_digest;
  };
  const std::vector<Golden> goldens = {
      {"grid-3x4", workloads::Grid(3, 4), 1710, 0xac67b94996b191c5ull,
       0xc2b4264341fc4115ull},
      {"dbn-3x5", workloads::DbnChain(3, 5, 0.3, 0.25, 1009), 834,
       0x245c12239ab0eeffull, 0x1012928eae9cf499ull},
      {"csp-14", workloads::CspGraph(14, 10, 3, 1000), 1082,
       0x4269978ef9611b17ull, 0x47a5f1393b069096ull},
  };
  WidthCost width;
  FillInCost fill;
  for (const Golden& golden : goldens) {
    TriangulationContext ctx = BuildCtx(golden.graph);
    for (int which_cost = 0; which_cost < 2; ++which_cost) {
      const BagCost& cost =
          which_cost == 0 ? static_cast<const BagCost&>(width)
                          : static_cast<const BagCost&>(fill);
      RankedTriangulationEnumerator e(ctx, cost);
      testutil::StreamDigest digest;
      while (auto t = e.Next()) digest.Add(golden.graph, *t);
      const std::string where =
          std::string(golden.name) + (which_cost == 0 ? "/width" : "/fill");
      EXPECT_FALSE(e.truncated()) << where;
      EXPECT_EQ(digest.length(), golden.length) << where;
      EXPECT_EQ(digest.value(),
                which_cost == 0 ? golden.width_digest : golden.fill_digest)
          << where << " digest 0x" << std::hex << digest.value();
    }
  }
}

TEST(RankedEnumTest, ExpiredDeadlineEndsTheStreamTruthfully) {
  Graph g = workloads::Grid(3, 3);
  TriangulationContext ctx = BuildCtx(g);
  WidthCost width;
  RankedTriangulationEnumerator full(ctx, width);
  const std::vector<Triangulation> all = Drain(full);
  ASSERT_GT(all.size(), 1u);

  RankedTriangulationEnumerator e(ctx, width);
  const Deadline expired(0.0);
  e.SetDeadline(&expired);
  // The first result needs no expansion: it comes out whole and nothing
  // has been cut yet. The second needs the first result's expansion, which
  // the expired deadline cuts, so the stream ends there, flagged as
  // truncated rather than pretending exhaustion.
  auto first = e.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->bags, all[0].bags);
  EXPECT_FALSE(e.truncated());
  EXPECT_FALSE(e.Next().has_value());
  EXPECT_TRUE(e.truncated());
  EXPECT_FALSE(e.Next().has_value());
  EXPECT_TRUE(e.truncated());
}

void InsertSorted(std::vector<int>* v, int id) {
  v->insert(std::upper_bound(v->begin(), v->end(), id), id);
}

// Lawler–Murty over a bare MinTriangSolver, with each entry's [I, X]
// copied: the number of free separators (MinSep(H) \ I) of every result,
// in stream order — the solves each result's expansion makes.
std::vector<long long> FreeSeparatorCounts(const TriangulationContext& ctx,
                                           const BagCost& cost) {
  struct Entry {
    CostValue cost;
    long long sequence;
    TriangulationTree tree;
    std::vector<int> include, exclude;
  };
  const auto later = [](const Entry& a, const Entry& b) {
    return a.cost != b.cost ? a.cost > b.cost : a.sequence > b.sequence;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(later)> queue(
      later);
  MinTriangSolver solver(ctx, cost);
  long long sequence = 0;
  if (auto t = solver.Solve({}, {})) {
    queue.push({t->cost, sequence++, std::move(*t), {}, {}});
  }
  std::vector<long long> counts;
  while (!queue.empty()) {
    Entry top = queue.top();
    queue.pop();
    std::vector<int> free_seps;
    for (const VertexSet& s : top.tree.separators) {
      const int id = ctx.SeparatorId(s);
      if (!std::binary_search(top.include.begin(), top.include.end(), id)) {
        free_seps.push_back(id);
      }
    }
    std::sort(free_seps.begin(), free_seps.end());
    counts.push_back(static_cast<long long>(free_seps.size()));
    std::vector<int> include = top.include;
    for (int id : free_seps) {
      std::vector<int> exclude = top.exclude;
      InsertSorted(&exclude, id);
      if (auto h = solver.Solve(include, exclude)) {
        queue.push({h->cost, sequence++, std::move(*h), include, exclude});
      }
      InsertSorted(&include, id);
    }
  }
  return counts;
}

TEST(RankedEnumTest, TopKRunsOnlyTheExpansionsItNeeds) {
  // A result's expansion runs when the next result is asked for, so after
  // k Next() calls the solver has made the first (full) solve plus one
  // solve per free separator of results 0..k-2. Drained, the stream has
  // run every expansion: the same count as expanding at pop time.
  const std::vector<Graph> graphs = {workloads::Grid(3, 4),
                                     workloads::Cycle(7)};
  WidthCost width;
  FillInCost fill;
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    TriangulationContext ctx = BuildCtx(graphs[gi]);
    for (const BagCost* cost : {static_cast<const BagCost*>(&width),
                                static_cast<const BagCost*>(&fill)}) {
      const std::vector<long long> free_counts =
          FreeSeparatorCounts(ctx, *cost);
      ASSERT_GT(free_counts.size(), 2u);
      RankedTriangulationEnumerator e(ctx, *cost);
      EXPECT_EQ(e.num_optimizer_calls(), 1);
      long long expected = 1;
      size_t k = 0;
      while (e.NextTree().has_value()) {
        ++k;
        if (k >= 2) expected += free_counts[k - 2];
        ASSERT_EQ(e.num_optimizer_calls(), expected)
            << "graph " << gi << " after " << k << " results";
      }
      EXPECT_EQ(k, free_counts.size()) << "graph " << gi;
      EXPECT_EQ(e.num_optimizer_calls(),
                1 + std::accumulate(free_counts.begin(), free_counts.end(),
                                    0LL))
          << "graph " << gi << " drained";
    }
  }
}

}  // namespace
}  // namespace mintri
