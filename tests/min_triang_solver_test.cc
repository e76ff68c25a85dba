// Differential layer for the incremental MinTriangSolver: every repaired
// solve must be byte-identical (cost, bags, clique-tree structure,
// separators — the filled graph is the saturation of the bags) to a
// from-scratch MinTriang over ConstrainedCost with the same [I, X] — across
// randomized constraint walks on the family corpus, bounded-width contexts,
// and the repeat/no-op delta edge cases.

#include "triang/min_triang_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "chordal/lb_triang.h"
#include "cost/constrained_cost.h"
#include "cost/standard_costs.h"
#include "test_util.h"
#include "triang/min_triang.h"
#include "util/rng.h"
#include "workloads/families.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace mintri {
namespace {

struct CorpusGraph {
  std::string name;
  TriangulationContext ctx;
};

// Family-corpus contexts with n <= 40 that initialize quickly (at most two
// graphs per family, so the walk stays CI-sized).
const std::vector<CorpusGraph>& Corpus() {
  static const std::vector<CorpusGraph>* corpus = [] {
    auto* out = new std::vector<CorpusGraph>;
    ContextOptions options;
    options.separator_limits.max_results = 20000;
    options.separator_limits.time_limit_seconds = 3.0;
    options.pmc_limits.time_limit_seconds = 3.0;
    for (const workloads::DatasetFamily& family : workloads::AllFamilies()) {
      int used = 0;
      for (const workloads::DatasetGraph& dg : family.graphs) {
        if (used >= 2) break;
        if (dg.graph.NumVertices() < 4 || dg.graph.NumVertices() > 40 ||
            !dg.graph.IsConnected()) {
          continue;
        }
        auto ctx = TriangulationContext::Build(dg.graph, options);
        if (!ctx.has_value()) continue;
        ++used;
        out->push_back({family.name + "/" + dg.name, std::move(*ctx)});
      }
    }
    return out;
  }();
  return *corpus;
}

void ExpectIdentical(const std::optional<TriangulationTree>& incremental,
                     const std::optional<TriangulationTree>& full,
                     const std::string& where) {
  ASSERT_EQ(incremental.has_value(), full.has_value()) << where;
  if (!incremental.has_value()) return;
  EXPECT_EQ(incremental->cost, full->cost) << where;
  EXPECT_EQ(incremental->bags, full->bags) << where;
  EXPECT_EQ(incremental->parent, full->parent) << where;
  EXPECT_EQ(incremental->separators, full->separators) << where;
}

// Solves [I, X] on `solver` and checks it against the from-scratch DP;
// returns the incremental answer.
std::optional<TriangulationTree> SolveAndCompare(
    MinTriangSolver& solver, const TriangulationContext& ctx,
    const BagCost& cost, const std::vector<int>& include,
    const std::vector<int>& exclude, const std::string& where) {
  std::vector<VertexSet> include_sets, exclude_sets;
  for (int id : include) include_sets.push_back(ctx.minimal_separators()[id]);
  for (int id : exclude) exclude_sets.push_back(ctx.minimal_separators()[id]);
  ConstrainedCost constrained(cost, std::move(include_sets),
                              std::move(exclude_sets));
  std::optional<TriangulationTree> solved = solver.Solve(include, exclude);
  ExpectIdentical(solved, MinTriang(ctx, constrained), where);
  return solved;
}

// The separator ids of `t` that `include` does not hold, sorted: the ones a
// Lawler–Murty expansion of t partitions on.
std::vector<int> FreeSeparators(const TriangulationContext& ctx,
                                const TriangulationTree& t,
                                const std::vector<int>& include) {
  std::vector<int> ids;
  for (const VertexSet& s : t.separators) {
    const int id = ctx.SeparatorId(s);
    if (!std::binary_search(include.begin(), include.end(), id)) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void InsertSorted(std::vector<int>* v, int id) {
  v->insert(std::upper_bound(v->begin(), v->end(), id), id);
}

// One walk step: nudges [I, X] by a few separators (the Lawler–Murty access
// pattern, plus removals and larger jumps the enumerator never makes).
void MutateConstraints(Rng& rng, int num_seps, std::vector<int>* include,
                       std::vector<int>* exclude) {
  auto contains = [](const std::vector<int>& v, int id) {
    return std::binary_search(v.begin(), v.end(), id);
  };
  const int ops = rng.NextInt(1, 3);
  for (int op = 0; op < ops && num_seps > 0; ++op) {
    const int id = rng.NextInt(0, num_seps - 1);
    switch (rng.NextInt(0, 2)) {
      case 0:
        if (!contains(*include, id) && !contains(*exclude, id)) {
          InsertSorted(include, id);
        }
        break;
      case 1:
        if (!contains(*include, id) && !contains(*exclude, id)) {
          InsertSorted(exclude, id);
        }
        break;
      default: {
        std::vector<int>& v = rng.NextBool(0.5) ? *include : *exclude;
        if (!v.empty()) {
          v.erase(v.begin() + rng.NextInt(0, static_cast<int>(v.size()) - 1));
        }
        break;
      }
    }
  }
}

// Random walk over constraint sets: solves incrementally and cross-checks
// against the full DP at every step.
void DifferentialWalk(const TriangulationContext& ctx, const BagCost& cost,
                      const std::string& name, uint64_t seed, int steps) {
  MinTriangSolver solver(ctx, cost);
  Rng rng(seed);
  const int num_seps = static_cast<int>(ctx.minimal_separators().size());
  std::vector<int> include, exclude;
  for (int step = 0; step < steps; ++step) {
    MutateConstraints(rng, num_seps, &include, &exclude);
    SolveAndCompare(solver, ctx, cost, include, exclude,
                    name + " step " + std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The Lawler–Murty partitions [I ∪ {S_1..S_{i-1}}, X ∪ {S_i}] of [I, X]
// along `seps`.
std::vector<std::pair<std::vector<int>, std::vector<int>>> Partitions(
    const std::vector<int>& include, const std::vector<int>& exclude,
    const std::vector<int>& seps) {
  std::vector<std::pair<std::vector<int>, std::vector<int>>> out;
  std::vector<int> inc = include;
  for (int id : seps) {
    std::vector<int> exc = exclude;
    InsertSorted(&exc, id);
    out.push_back({inc, exc});
    InsertSorted(&inc, id);
  }
  return out;
}

// A Lawler–Murty sibling walk two levels deep, cross-checked at every
// step: the partitions of the unconstrained optimum, and of each
// partition's own optimum in turn, every step a repair of the previous one.
// Returns the number of first-level partitions.
size_t SiblingWalk(MinTriangSolver& solver, const TriangulationContext& ctx,
                   const BagCost& cost, const std::string& name) {
  auto root = SolveAndCompare(solver, ctx, cost, {}, {}, name + " root");
  if (!root.has_value()) return 0;
  const auto level1 = Partitions({}, {}, FreeSeparators(ctx, *root, {}));
  for (size_t i = 0; i < level1.size(); ++i) {
    const auto& [include, exclude] = level1[i];
    const std::string where =
        name + " level 1 partition " + std::to_string(i);
    auto child = SolveAndCompare(solver, ctx, cost, include, exclude, where);
    if (::testing::Test::HasFatalFailure()) break;
    if (!child.has_value()) continue;
    const auto level2 =
        Partitions(include, exclude, FreeSeparators(ctx, *child, include));
    for (size_t j = 0; j < level2.size(); ++j) {
      SolveAndCompare(solver, ctx, cost, level2[j].first, level2[j].second,
                      where + ", level 2 partition " + std::to_string(j));
      if (::testing::Test::HasFatalFailure()) return level1.size();
    }
  }
  return level1.size();
}

// Hubs a = 0 and b = 1 joined by `paths` disjoint paths of `length` inner
// vertices each. G − {a, b} has one component per path, so a root
// candidate ⊇ {a, b} has a child block for every other path.
Graph HubPaths(int paths, int length) {
  Graph g(2 + paths * length);
  int v = 2;
  for (int p = 0; p < paths; ++p) {
    g.AddEdge(0, v);
    for (int i = 1; i < length; ++i, ++v) g.AddEdge(v, v + 1);
    g.AddEdge(v++, 1);
  }
  return g;
}

TEST(MinTriangSolverTest, DifferentialOnFamilyCorpus) {
  ASSERT_FALSE(Corpus().empty());
  WidthCost width;
  FillInCost fill;
  for (const CorpusGraph& cg : Corpus()) {
    DifferentialWalk(cg.ctx, width, cg.name + "/width", 0x5eed0 + 1, 10);
    DifferentialWalk(cg.ctx, fill, cg.name + "/fill", 0x5eed0 + 2, 10);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MinTriangSolverTest, DifferentialOnBoundedWidthContexts) {
  // Bounded contexts have unusable PMCs and infeasible blocks — the repair
  // must keep ∞ values and missing candidates exactly in sync with the
  // full pass.
  WidthCost width;
  for (int seed = 0; seed < 6; ++seed) {
    Graph g = workloads::ConnectedErdosRenyi(12, 0.25, 42000 + seed);
    for (int bound = 2; bound <= 4; ++bound) {
      ContextOptions options;
      options.width_bound = bound;
      auto ctx = TriangulationContext::Build(g, options);
      ASSERT_TRUE(ctx.has_value());
      if (ctx->minimal_separators().empty()) continue;
      DifferentialWalk(*ctx, width,
                       "bounded seed " + std::to_string(seed) + " b=" +
                           std::to_string(bound),
                       0xb0b0 + seed, 8);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(MinTriangSolverTest, DifferentialOnPartialCandidateLists) {
  // The bit rows are built from vertex incidence and the host lists. On
  // contexts whose candidate lists are partial (a Tier-2 family drops the
  // PMCs it cannot wire, a width bound the over-bound ones) and on a root
  // with many children, every repaired solve must still match the
  // from-scratch DP, on random walks and on Lawler–Murty sibling walks.
  std::vector<std::pair<std::string, TriangulationContext>> contexts;
  const std::vector<std::pair<std::string, Graph>> family_graphs = {
      {"grid-4x4", workloads::Grid(4, 4)},
      {"grid-3x6", workloads::Grid(3, 6)},
      {"er-14a", workloads::ConnectedErdosRenyi(14, 0.3, 52000)},
      {"er-14b", workloads::ConnectedErdosRenyi(14, 0.3, 52001)},
  };
  for (const auto& [name, g] : family_graphs) {
    // Tier 2's family: the clique trees of two LB-Triang minimal
    // triangulations (min-degree and identity order).
    std::vector<VertexSet> minseps, pmcs;
    std::vector<int> order(g.NumVertices());
    for (int v = 0; v < g.NumVertices(); ++v) order[v] = v;
    for (const Graph& h : {LbTriangMinDegree(g), LbTriang(g, order)}) {
      TriangulationTree tree = CliqueTreeOfChordal(h);
      minseps.insert(minseps.end(), tree.separators.begin(),
                     tree.separators.end());
      pmcs.insert(pmcs.end(), tree.bags.begin(), tree.bags.end());
    }
    auto ctx = TriangulationContext::BuildFromFamily(g, std::move(minseps),
                                                     std::move(pmcs));
    ASSERT_TRUE(ctx.has_value()) << name;
    contexts.push_back({"family " + name, std::move(*ctx)});
  }
  {
    ContextOptions options;
    options.width_bound = 4;
    auto ctx = TriangulationContext::Build(workloads::Grid(4, 5), options);
    ASSERT_TRUE(ctx.has_value());
    contexts.push_back({"grid-4x5 b=4", std::move(*ctx)});
  }
  {
    auto ctx = TriangulationContext::Build(HubPaths(6, 2));
    ASSERT_TRUE(ctx.has_value());
    size_t most_children = 0;
    for (const std::vector<int>& children : ctx->root_children()) {
      most_children = std::max(most_children, children.size());
    }
    EXPECT_GE(most_children, 5u);
    contexts.push_back({"hub-paths 6x2", std::move(*ctx)});
  }
  WidthCost width;
  FillInCost fill;
  for (const auto& [name, ctx] : contexts) {
    ASSERT_FALSE(ctx.minimal_separators().empty()) << name;
    DifferentialWalk(ctx, width, name + "/width", 0xfa3 + 1, 12);
    DifferentialWalk(ctx, fill, name + "/fill", 0xfa3 + 2, 12);
    for (const BagCost* cost : {static_cast<const BagCost*>(&width),
                                static_cast<const BagCost*>(&fill)}) {
      MinTriangSolver solver(ctx, *cost);
      SiblingWalk(solver, ctx, *cost, name + " siblings");
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MinTriangSolverTest, LawlerMurtySiblingDeltas) {
  // The exact access pattern RankedTriang issues: partitions
  // [I ∪ {S_1..S_{i-1}}, X ∪ {S_i}] over the separators of the optimum.
  Graph g = workloads::Grid(3, 3);
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  FillInCost fill;
  MinTriangSolver solver(*ctx, fill);
  auto first = solver.Solve({}, {});
  ASSERT_TRUE(first.has_value());
  std::vector<int> h_seps;
  for (const VertexSet& s : first->separators) {
    h_seps.push_back(ctx->SeparatorId(s));
  }
  std::sort(h_seps.begin(), h_seps.end());
  std::vector<int> include;
  for (size_t i = 0; i < h_seps.size(); ++i) {
    SolveAndCompare(solver, *ctx, fill, include, {h_seps[i]},
                    "partition " + std::to_string(i));
    InsertSorted(&include, h_seps[i]);
  }
}

TEST(MinTriangSolverTest, NoOpDeltaEvaluatesNothing) {
  Graph g = workloads::Grid(4, 4);
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  WidthCost width;
  MinTriangSolver solver(*ctx, width);
  auto a = solver.Solve({}, {});
  ASSERT_TRUE(a.has_value());
  const long long after_full = solver.num_candidate_evals();
  EXPECT_EQ(after_full, static_cast<long long>(solver.num_candidates_total()));
  // Same constraints again: zero candidate work, same answer.
  auto b = solver.Solve({}, {});
  EXPECT_EQ(solver.num_candidate_evals(), after_full);
  ExpectIdentical(a, b, "repeat solve");
}

TEST(MinTriangSolverTest, SiblingExpansionIsCheaperThanOneFullPass) {
  // The workload the solver exists for: after the full pass, the entire
  // k-partition Lawler–Murty expansion over the optimum's separators must
  // cost less base-Combine work than a single additional full pass (the
  // pre-refactor enumerator paid k full passes here).
  Graph g = workloads::Grid(4, 4);
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  WidthCost width;
  MinTriangSolver solver(*ctx, width);
  auto first = solver.Solve({}, {});
  ASSERT_TRUE(first.has_value());
  const long long full_pass = solver.num_combine_calls();
  EXPECT_EQ(full_pass, static_cast<long long>(solver.num_candidates_total()));

  std::vector<int> h_seps;
  for (const VertexSet& s : first->separators) {
    h_seps.push_back(ctx->SeparatorId(s));
  }
  std::sort(h_seps.begin(), h_seps.end());
  ASSERT_GT(h_seps.size(), 3u);
  std::vector<int> include, exclude;
  for (size_t i = 0; i < h_seps.size(); ++i) {
    exclude.assign({h_seps[i]});
    solver.Solve(include, exclude);
    InsertSorted(&include, h_seps[i]);
  }
  const long long expansion = solver.num_combine_calls() - full_pass;
  EXPECT_LT(expansion, full_pass)
      << h_seps.size() << " sibling repairs cost " << expansion
      << " Combine calls vs " << full_pass << " for one full pass";
}

TEST(MinTriangSolverTest, DoublyBlockedCandidateStaysBlocked) {
  // A candidate two constraints block must stay blocked while either one
  // holds: dropping one of them must not revive it. The pairs are
  // separators one PMC contains both of, so both fit some block together:
  // including both blocks that block's candidates that hold neither twice
  // (the case a cleared row instead of a rebuilt side gets wrong), and
  // excluding both blocks the PMC's own candidates twice. An inclusion of
  // one plus an exclusion of the other blocks through both sides.
  Graph g = workloads::Grid(4, 4);
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  FillInCost fill;
  const std::vector<VertexSet>& seps = ctx->minimal_separators();
  std::vector<std::pair<int, int>> pairs;
  for (int a = 0; a < static_cast<int>(seps.size()) && pairs.size() < 6;
       ++a) {
    for (int b = a + 1; b < static_cast<int>(seps.size()); ++b) {
      const VertexSet both = seps[a].Union(seps[b]);
      if (std::any_of(ctx->pmcs().begin(), ctx->pmcs().end(),
                      [&](const VertexSet& pmc) {
                        return both.IsSubsetOf(pmc);
                      })) {
        pairs.push_back({a, b});
        break;
      }
    }
  }
  ASSERT_GE(pairs.size(), 3u);
  MinTriangSolver solver(*ctx, fill);
  ASSERT_TRUE(solver.Solve({}, {}).has_value());
  for (const auto& [a, b] : pairs) {
    const std::string where =
        "pair " + std::to_string(a) + "," + std::to_string(b) + ": ";
    const struct {
      std::vector<int> include, exclude;
      const char* what;
    } steps[] = {
        {{a, b}, {}, "both included"},
        {{a}, {}, "one inclusion dropped"},
        {{a, b}, {}, "both included again"},
        {{b}, {}, "the other inclusion dropped"},
        {{}, {a, b}, "both excluded"},
        {{}, {a}, "one exclusion dropped"},
        {{}, {a, b}, "both excluded again"},
        {{}, {b}, "the other exclusion dropped"},
        {{a}, {b}, "include a, exclude b"},
        {{a}, {}, "the exclusion dropped"},
        {{a}, {b}, "include a, exclude b again"},
        {{}, {b}, "the inclusion dropped"},
        {{}, {}, "unconstrained"},
    };
    for (const auto& step : steps) {
      SolveAndCompare(solver, *ctx, fill, step.include, step.exclude,
                      where + step.what);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(MinTriangSolverTest, AlternatingFoldAndRebuildSteps) {
  // A side whose id list grows folds in only the added rows; a side that
  // shrinks or swaps an id is rebuilt from its rows. Alternate the two on
  // both sides, so each kind of step starts from a state the other built.
  WidthCost width;
  FillInCost fill;
  for (const CorpusGraph& cg : Corpus()) {
    const int num_seps = static_cast<int>(cg.ctx.minimal_separators().size());
    if (num_seps < 4) continue;
    for (const BagCost* cost : {static_cast<const BagCost*>(&width),
                                static_cast<const BagCost*>(&fill)}) {
      MinTriangSolver solver(cg.ctx, *cost);
      Rng rng(0xf01d + num_seps);
      std::vector<int> include, exclude;
      // An id on neither side, or -1 after a few tries.
      const auto fresh = [&]() {
        for (int tries = 0; tries < 8; ++tries) {
          const int id = rng.NextInt(0, num_seps - 1);
          if (!std::binary_search(include.begin(), include.end(), id) &&
              !std::binary_search(exclude.begin(), exclude.end(), id)) {
            return id;
          }
        }
        return -1;
      };
      for (int step = 0; step < 16; ++step) {
        std::vector<int>& side = (step / 2) % 2 == 0 ? include : exclude;
        const int id = fresh();
        if (step % 2 == 0) {
          // Fold: the side grows by one or two ids.
          if (id >= 0) InsertSorted(&side, id);
          const int more = fresh();
          if (more >= 0 && rng.NextBool(0.5)) InsertSorted(&side, more);
        } else if (!side.empty()) {
          // Rebuild: drop one id, and swap in a fresh one half the time.
          side.erase(side.begin() +
                     rng.NextInt(0, static_cast<int>(side.size()) - 1));
          if (id >= 0 && rng.NextBool(0.5)) InsertSorted(&side, id);
        }
        SolveAndCompare(solver, cg.ctx, *cost, include, exclude,
                        cg.name + " step " + std::to_string(step));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(MinTriangSolverTest, LongIncludeChainOnBoundedContext) {
  // Lawler–Murty siblings several expansions deep: each level expands the
  // last feasible partition of the level above, whose include list is the
  // longest, so the include side folds along one long chain while the
  // exclude side is rebuilt at every sibling. The width bound leaves
  // unusable PMCs and infeasible blocks in the context.
  Graph g = workloads::Grid(3, 9);
  ContextOptions options;
  options.width_bound = 4;
  auto ctx = TriangulationContext::Build(g, options);
  ASSERT_TRUE(ctx.has_value());
  FillInCost fill;
  MinTriangSolver solver(*ctx, fill);
  std::optional<TriangulationTree> current =
      SolveAndCompare(solver, *ctx, fill, {}, {}, "root");
  ASSERT_TRUE(current.has_value());
  std::vector<int> include, exclude;
  size_t longest_include = 0;
  int solves = 0;
  for (int level = 0; level < 6 && current.has_value(); ++level) {
    const std::vector<int> free_seps = FreeSeparators(*ctx, *current, include);
    std::optional<TriangulationTree> next;
    std::vector<int> next_include, next_exclude;
    std::vector<int> chain = include;
    for (int id : free_seps) {
      std::vector<int> sibling_exclude = exclude;
      InsertSorted(&sibling_exclude, id);
      std::optional<TriangulationTree> h = SolveAndCompare(
          solver, *ctx, fill, chain, sibling_exclude,
          "level " + std::to_string(level) + " sibling " +
              std::to_string(solves));
      if (::testing::Test::HasFatalFailure()) return;
      ++solves;
      if (h.has_value()) {
        next = std::move(h);
        next_include = chain;
        next_exclude = sibling_exclude;
      }
      longest_include = std::max(longest_include, chain.size());
      InsertSorted(&chain, id);
    }
    current = std::move(next);
    include = next_include;
    exclude = next_exclude;
  }
  EXPECT_GE(longest_include, 10u) << solves << " sibling solves";
}

TEST(MinTriangSolverTest, ExpiredDeadlineTruncatesAndRecovers) {
  Graph g = workloads::Grid(4, 4);
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  WidthCost width;
  MinTriangSolver solver(*ctx, width);
  const Deadline expired(0.0);
  solver.set_deadline(&expired);
  EXPECT_FALSE(solver.Solve({}, {}).has_value());
  EXPECT_TRUE(solver.truncated());
  // Lifting the deadline must fully recover: the truncated call committed
  // no state, so the next solve is a clean full pass.
  solver.set_deadline(nullptr);
  auto recovered = solver.Solve({}, {});
  EXPECT_FALSE(solver.truncated());
  MinTriangSolver fresh(*ctx, width);
  ExpectIdentical(recovered, fresh.Solve({}, {}), "recovered vs fresh");
}

TEST(MinTriangSolverTest, TruncatedRepairDoesNotCorruptLaterSolves) {
  // Expire the deadline between incremental repairs: the interrupted delta
  // must leave the blocked counters and tables consistent, so every answer
  // after the deadline lifts still matches the from-scratch DP.
  Graph g = workloads::Grid(3, 4);
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  ASSERT_GE(ctx->minimal_separators().size(), 2u);
  FillInCost fill;
  MinTriangSolver solver(*ctx, fill);
  ASSERT_TRUE(solver.Solve({}, {}).has_value());

  const Deadline expired(0.0);
  solver.set_deadline(&expired);
  EXPECT_FALSE(solver.Solve({0}, {}).has_value());
  EXPECT_TRUE(solver.truncated());
  solver.set_deadline(nullptr);

  auto check = [&](const std::vector<int>& include,
                   const std::vector<int>& exclude, const std::string& where) {
    return SolveAndCompare(solver, *ctx, fill, include, exclude, where);
  };
  check({0}, {}, "the interrupted delta, retried");
  EXPECT_FALSE(solver.truncated());
  check({0}, {1}, "a further incremental step");
  check({}, {}, "back to unconstrained");

  // Then a Lawler–Murty sibling walk two levels deep.
  EXPECT_GT(SiblingWalk(solver, *ctx, fill, "sibling walk"), 1u);
}

TEST(MinTriangSolverTest, RepairsStartFromAnEmptyWorklist) {
  // A repair must do the same work whether the solver reached its state by
  // a completed repair, by a full pass, or by a full pass after a repair a
  // deadline cut short: nothing a truncated repair left pending may leak
  // into later solves. The deadline is wall-clock, so the budget grows
  // until one lands between the up-front check and the repair's end.
  Graph g = workloads::Grid(4, 5);
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  FillInCost fill;
  MinTriangSolver probe(*ctx, fill);
  auto first = probe.Solve({}, {});
  ASSERT_TRUE(first.has_value());
  std::vector<int> big_exclude;
  for (const VertexSet& s : first->separators) {
    big_exclude.push_back(ctx->SeparatorId(s));
  }
  std::sort(big_exclude.begin(), big_exclude.end());
  ASSERT_GE(big_exclude.size(), 2u);
  const std::vector<int> next_include = {big_exclude[0]};
  const std::vector<int> next_exclude(big_exclude.begin() + 1,
                                      big_exclude.end());

  struct Work {
    long long evals, updates, queries;
  };
  const auto work_of_next_repair = [&](MinTriangSolver& solver) {
    const Work before{solver.num_candidate_evals(), solver.num_index_updates(),
                      solver.num_range_queries()};
    solver.Solve(next_include, next_exclude);
    return Work{solver.num_candidate_evals() - before.evals,
                solver.num_index_updates() - before.updates,
                solver.num_range_queries() - before.queries};
  };

  MinTriangSolver by_repair(*ctx, fill);
  by_repair.Solve({}, {});
  by_repair.Solve({}, big_exclude);
  const Work reference = work_of_next_repair(by_repair);
  EXPECT_GT(reference.evals, 0);

  MinTriangSolver by_full_pass(*ctx, fill);
  by_full_pass.Solve({}, big_exclude);
  const Work after_full = work_of_next_repair(by_full_pass);
  EXPECT_EQ(after_full.evals, reference.evals);
  EXPECT_EQ(after_full.updates, reference.updates);
  EXPECT_EQ(after_full.queries, reference.queries);

  bool cut_midway = false;
  for (double budget = 1e-6; budget < 1.0 && !cut_midway; budget *= 1.5) {
    MinTriangSolver solver(*ctx, fill);
    solver.Solve({}, {});
    const long long updates_before = solver.num_index_updates();
    const Deadline deadline(budget);
    solver.set_deadline(&deadline);
    solver.Solve({}, big_exclude);
    solver.set_deadline(nullptr);
    if (!solver.truncated()) break;  // the budget outlived the repair
    // An expired deadline refuses the delta before touching any table;
    // only a cut that came after the delta was applied is the case here.
    cut_midway = solver.num_index_updates() > updates_before;
    if (!cut_midway) continue;
    solver.Solve({}, big_exclude);  // a full pass
    EXPECT_FALSE(solver.truncated());
    const Work after_cut = work_of_next_repair(solver);
    EXPECT_EQ(after_cut.evals, reference.evals) << "budget " << budget;
    EXPECT_EQ(after_cut.updates, reference.updates) << "budget " << budget;
    EXPECT_EQ(after_cut.queries, reference.queries) << "budget " << budget;
  }
  EXPECT_TRUE(cut_midway) << "no budget cut the repair short";
}

}  // namespace
}  // namespace mintri
