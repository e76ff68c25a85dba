#ifndef MINTRI_COST_BAG_SCORE_CACHE_H_
#define MINTRI_COST_BAG_SCORE_CACHE_H_

#include <functional>
#include <mutex>
#include <vector>

#include "cost/bag_cost.h"
#include "graph/vertex_set_table.h"

namespace mintri {

/// Thread-safe memoization of an expensive per-bag score (an edge-cover
/// branch-and-bound, a fractional-cover LP, a state-space product). Ranked
/// enumeration re-evaluates the same bags constantly — every MinTriang
/// repair re-scores the PMCs it touches, and distinct triangulations share
/// most of their bags — so a WeightedWidthCost whose BagScore routes through
/// this cache stops re-solving identical subproblems. Keyed on the bags'
/// cached 64-bit VertexSet hashes, backed by the same VertexSetTable layout
/// as the enumeration engines (full equality check after the hash, so
/// collisions cannot corrupt scores).
///
/// The underlying score runs OUTSIDE the lock (an LP solve must not
/// serialize other lookups); when two threads race on the same new bag, one
/// insert wins and both return the winner's value — scores are
/// deterministic functions of the bag, so either result is identical.
///
/// A score computed after the calling thread's deadline (ThreadDeadline(),
/// util/timer.h) expired is returned but not stored: the edge-cover search
/// gives up on an expired deadline, and its sentinel must not outlive the
/// query that the deadline cut.
class BagScoreCache {
 public:
  using Score = std::function<CostValue(const VertexSet&)>;

  explicit BagScoreCache(Score score) : score_(std::move(score)) {}

  /// The memoized score of `bag`.
  CostValue operator()(const VertexSet& bag);

  /// Every lookup is either a hit or a miss at the instant it probes the
  /// table — `lookups == hits + misses` holds under any interleaving. A
  /// racing miss that loses the insert still counts as a miss (it did pay
  /// for a score computation).
  struct Stats {
    long long lookups = 0;
    long long hits = 0;
    long long misses = 0;
    double HitRate() const {
      return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
    }
  };
  Stats stats() const;

 private:
  Score score_;
  mutable std::mutex mutex_;
  VertexSetTable table_;
  std::vector<CostValue> values_;  // values_[i] = score of table_.At(i)
  long long lookups_ = 0;
  long long hits_ = 0;
  long long misses_ = 0;
};

}  // namespace mintri

#endif  // MINTRI_COST_BAG_SCORE_CACHE_H_
