#include "cost/bag_score_cache.h"

#include "util/timer.h"

namespace mintri {

CostValue BagScoreCache::operator()(const VertexSet& bag) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++lookups_;
    const int idx = table_.Find(bag);
    if (idx >= 0) {
      ++hits_;
      return values_[idx];
    }
    // Counted here, not after the insert: a racing miss that loses the
    // insert is still a miss, keeping lookups == hits + misses exact.
    ++misses_;
  }
  const CostValue value = score_(bag);
  // A score finished after the thread's deadline may have been abandoned
  // midway: hand it back to the pass that deadline cuts, but never keep it.
  if (IsExpired(ThreadDeadline())) return value;
  std::lock_guard<std::mutex> lock(mutex_);
  uint32_t idx = 0;
  if (table_.Insert(bag, &idx)) values_.push_back(value);
  return values_[idx];
}

BagScoreCache::Stats BagScoreCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Stats{lookups_, hits_, misses_};
}

}  // namespace mintri
