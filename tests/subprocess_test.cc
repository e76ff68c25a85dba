// Deadline coverage, stage by stage: `mintri batch --deadline` runs every
// instance in process, so a slow stage must stop on its own once the
// instance's deadline has expired instead of needing a process kill. Each
// case hands one stage an already-expired deadline (or a short one) and
// checks that it stops: Tier-0 preprocessing, the full-block and wiring
// stages of both context builds, the exact integral edge cover, the solver,
// and the tiered enumerator's construction.

#include <gtest/gtest.h>

#include <vector>

#include "chordal/lb_triang.h"
#include "cost/standard_costs.h"
#include "enumeration/tiered_enum.h"
#include "hypergraph/edge_cover.h"
#include "preprocess/preprocess.h"
#include "separators/blocks.h"
#include "test_util.h"
#include "triang/context.h"
#include "triang/min_triang_solver.h"
#include "util/timer.h"
#include "workloads/named_graphs.h"

namespace mintri {
namespace {

// A deadline that has already expired.
const Deadline& Expired() {
  static const Deadline expired(0);
  return expired;
}

TEST(SubprocessTest, PreprocessStopsOnExpiredDeadline) {
  // A path reduces completely by simplicial elimination; with the deadline
  // gone no sweep runs.
  const Graph path = workloads::Path(50);
  EXPECT_EQ(Preprocess(path).eliminated.size(), 50u);
  EXPECT_TRUE(Preprocess(path, &Expired()).eliminated.empty());
}

TEST(SubprocessTest, BlocksStageStopsOnExpiredDeadline) {
  const Graph g = workloads::Grid(4, 4);
  const std::vector<VertexSet> seps = ListMinimalSeparators(g).separators;
  ASSERT_FALSE(seps.empty());
  EXPECT_FALSE(AllFullBlocks(g, seps).empty());
  EXPECT_TRUE(AllFullBlocks(g, seps, &Expired()).empty());
}

TEST(SubprocessTest, FamilyBuildStopsOnExpiredDeadline) {
  // The Tier-2 build has no MinSep/PMC stage: the blocks and wiring stages
  // are what the deadline cuts.
  const Graph g = workloads::Grid(4, 4);
  const TriangulationTree tree = CliqueTreeOfChordal(LbTriangMinDegree(g));
  ContextBuildInfo info;
  EXPECT_TRUE(TriangulationContext::BuildFromFamily(g, tree.separators,
                                                    tree.bags, &info)
                  .has_value());
  EXPECT_STREQ(info.TerminationName(), "completed");
  EXPECT_FALSE(TriangulationContext::BuildFromFamily(
                   g, tree.separators, tree.bags, &info, &Expired())
                   .has_value());
  EXPECT_STREQ(info.TerminationName(), "timeout");
  EXPECT_EQ(info.num_blocks, 0u);
}

TEST(SubprocessTest, ExactBuildStartsNoStageOnExpiredDeadline) {
  const Graph g = workloads::Grid(4, 4);
  ContextOptions options;
  options.deadline = &Expired();
  ContextBuildInfo info;
  EXPECT_FALSE(TriangulationContext::Build(g, options, &info).has_value());
  EXPECT_STREQ(info.TerminationName(), "ms-terminated");
  EXPECT_EQ(info.num_minseps, 0u);
  EXPECT_EQ(info.num_pmcs, 0u);
}

TEST(SubprocessTest, EdgeCoverIsAbandonedOnExpiredDeadline) {
  const Hypergraph h = testutil::GridHypergraph(4);
  const VertexSet all = h.PrimalGraph().Vertices();
  EXPECT_EQ(MinIntegralEdgeCover(h, all), 8);
  ScopedThreadDeadline scope(&Expired());
  EXPECT_EQ(MinIntegralEdgeCover(h, all), kAbandonedCover);
  EXPECT_EQ(HypertreeBagScore(h, all), kInfiniteCost);
}

TEST(SubprocessTest, EdgeCoverSearchPollsTheDeadline) {
  // The exact cover of all 400 vertices of the 20×20 grid is far beyond
  // the branch and bound; a short deadline ends it mid-search.
  const Hypergraph h = testutil::GridHypergraph(20);
  const VertexSet all = h.PrimalGraph().Vertices();
  const Deadline deadline(0.2);
  ScopedThreadDeadline scope(&deadline);
  WallTimer timer;
  EXPECT_EQ(MinIntegralEdgeCover(h, all), kAbandonedCover);
  EXPECT_LT(timer.Seconds(), 30.0);
}

TEST(SubprocessTest, SolverRefusesOnExpiredDeadline) {
  const Graph g = workloads::Grid(3, 3);
  auto ctx = TriangulationContext::Build(g);
  ASSERT_TRUE(ctx.has_value());
  const WidthCost width;
  MinTriangSolver solver(*ctx, width);
  solver.set_deadline(&Expired());
  EXPECT_FALSE(solver.Solve({}, {}).has_value());
  EXPECT_TRUE(solver.truncated());
}

TEST(SubprocessTest, TieredConstructionStopsOnExpiredDeadline) {
  const Graph g = workloads::Grid(4, 4);
  const WidthCost width;
  for (TierOptions::Mode mode :
       {TierOptions::Mode::kExact, TierOptions::Mode::kAuto,
        TierOptions::Mode::kHeuristic}) {
    TierOptions tier_options;
    tier_options.mode = mode;
    tier_options.decomposable_cost = true;
    tier_options.deadline = &Expired();
    TieredEnumerator e(g, width, CostComposition::kMax, {}, {}, tier_options);
    EXPECT_FALSE(e.init_ok());
    EXPECT_TRUE(e.truncated());
    EXPECT_FALSE(e.Next().has_value());
  }
}

}  // namespace
}  // namespace mintri
