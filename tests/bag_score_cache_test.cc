// Stats audit for the shared BagScoreCache: the counters must stay exact —
// lookups == hits + misses — under any interleaving, including the racy
// window where two threads miss on the same new bag and one loses the
// insert. The hammer test mirrors the `mintri batch` topology (one cache,
// many worker threads) and runs under ThreadSanitizer in CI. The cache
// also must never keep a score computed after the query's deadline expired:
// an abandoned edge cover leaves no trace in a later query.

#include "cost/bag_score_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_model_registry.h"
#include "enumeration/tiered_enum.h"
#include "parallel/thread_pool.h"
#include "test_util.h"
#include "util/timer.h"

namespace mintri {
namespace {

VertexSet MakeBag(int n, std::initializer_list<int> vertices) {
  VertexSet s(n);
  for (int v : vertices) s.Insert(v);
  return s;
}

TEST(BagScoreCacheTest, CountsHitsAndMissesExactly) {
  int evaluations = 0;
  BagScoreCache cache([&](const VertexSet& bag) {
    ++evaluations;
    return static_cast<CostValue>(bag.Count());
  });
  const VertexSet a = MakeBag(8, {0, 1, 2});
  const VertexSet b = MakeBag(8, {3, 4});
  EXPECT_EQ(cache(a), 3);
  EXPECT_EQ(cache(a), 3);
  EXPECT_EQ(cache(b), 2);
  EXPECT_EQ(cache(a), 3);
  EXPECT_EQ(evaluations, 2);
  const BagScoreCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 4);
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(BagScoreCacheTest, StatsStayConsistentUnderConcurrentHammer) {
  // 8 threads share one cache over a small key universe, maximizing both
  // insert races (several threads missing the same fresh bag) and hit
  // contention. The score function itself is checked for correctness on
  // every return, and the final ledger must balance exactly.
  constexpr int kThreads = 8;
  constexpr int kIterations = 4000;
  constexpr int kUniverse = 32;
  std::atomic<long long> scores{0};
  BagScoreCache cache([&](const VertexSet& bag) {
    scores.fetch_add(1, std::memory_order_relaxed);
    return static_cast<CostValue>(bag.Count());
  });
  std::vector<VertexSet> bags;
  for (int i = 0; i < kUniverse; ++i) {
    VertexSet s(kUniverse + 1);
    for (int v = 0; v <= i; ++v) s.Insert(v);
    bags.push_back(std::move(s));
  }
  parallel::RunOnThreads(kThreads, [&](int thread) {
    for (int i = 0; i < kIterations; ++i) {
      const VertexSet& bag = bags[(thread * 7 + i) % kUniverse];
      ASSERT_EQ(cache(bag), static_cast<CostValue>(bag.Count()));
    }
  });
  const BagScoreCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.lookups, static_cast<long long>(kThreads) * kIterations);
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  // Every distinct bag misses at least once; racing losers add more misses
  // but every one of them ran the score function, so the two ledgers agree.
  EXPECT_GE(stats.misses, kUniverse);
  EXPECT_EQ(stats.misses, scores.load());
  EXPECT_GT(stats.hits, 0);
}

TEST(BagScoreCacheTest, ScoresPastTheThreadDeadlineAreNotStored) {
  int evaluations = 0;
  BagScoreCache cache([&](const VertexSet& bag) {
    ++evaluations;
    return static_cast<CostValue>(bag.Count());
  });
  const VertexSet a = MakeBag(8, {0, 1, 2});
  {
    const Deadline expired(0);
    ScopedThreadDeadline scope(&expired);
    EXPECT_EQ(cache(a), 3);
    EXPECT_EQ(cache(a), 3);
  }
  EXPECT_EQ(evaluations, 2);
  EXPECT_EQ(cache(a), 3);
  EXPECT_EQ(cache(a), 3);
  EXPECT_EQ(evaluations, 3);
  const BagScoreCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.hits, 1);
}

// The first `k` results of a heuristic-tier hypertree query on `instance`.
std::vector<std::pair<CostValue, std::vector<VertexSet>>> FirstResults(
    const CostModelInstance& instance, const CostModel& model, int k,
    const Deadline* deadline, bool* truncated) {
  TierOptions tier_options;
  tier_options.mode = TierOptions::Mode::kHeuristic;
  tier_options.decomposable_cost = true;
  tier_options.deadline = deadline;
  TieredEnumerator e(instance.graph, *model.cost, model.composition, {}, {},
                     tier_options);
  std::vector<std::pair<CostValue, std::vector<VertexSet>>> out;
  while (static_cast<int>(out.size()) < k) {
    std::optional<TieredResult> t = e.Next();
    if (!t.has_value()) break;
    std::vector<VertexSet> bags = t->triangulation.bags;
    std::sort(bags.begin(), bags.end());
    out.emplace_back(t->triangulation.cost, std::move(bags));
  }
  *truncated = e.truncated();
  return out;
}

TEST(BagScoreCacheTest, AbandonedCoverLeavesNoTrace) {
  // The 14×14 grid hypergraph: its exact edge covers dominate a hypertree
  // query, so a deadline a fraction of the query's length lands inside one.
  // That cover gives up; nothing it computed may reach the shared cache,
  // so a later query on the same model answers like a fresh model does.
  CostModelInstance instance;
  instance.hypergraph = testutil::GridHypergraph(14);
  instance.graph = instance.hypergraph->PrimalGraph();
  std::string error;
  std::optional<CostModel> shared =
      MakeCostModel("hypertree", instance, /*enable_cache=*/true, &error);
  ASSERT_TRUE(shared.has_value()) << error;

  bool truncated = false;
  const Deadline deadline(0.05);
  FirstResults(instance, *shared, 3, &deadline, &truncated);
  EXPECT_TRUE(truncated);

  const auto again = FirstResults(instance, *shared, 3, nullptr, &truncated);
  EXPECT_FALSE(truncated);
  std::optional<CostModel> fresh =
      MakeCostModel("hypertree", instance, /*enable_cache=*/true, &error);
  ASSERT_TRUE(fresh.has_value()) << error;
  const auto expected = FirstResults(instance, *fresh, 3, nullptr, &truncated);
  ASSERT_EQ(expected.size(), 3u);
  EXPECT_EQ(again, expected);
}

}  // namespace
}  // namespace mintri
