#ifndef MINTRI_PARALLEL_THREAD_POOL_H_
#define MINTRI_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

namespace mintri {
namespace parallel {

/// Number of worker threads to use when the caller asks for "all the
/// hardware": std::thread::hardware_concurrency(), but never less than 2 so
/// the parallel code path is exercised even on single-core CI runners.
int DefaultParallelThreads();

/// Hard ceiling on spawned workers. RunOnThreads clamps to this so a wild
/// num_threads (from any caller, not just the CLI) degrades gracefully
/// instead of aborting the process when std::thread creation fails.
inline constexpr int kMaxRunThreads = 1024;

/// Runs fn(worker_id) for worker_id in [0, num_threads) — worker 0 on the
/// calling thread, the rest on freshly spawned std::threads — and joins them
/// all before returning. The fork-join primitive every parallel enumeration
/// in this subsystem is built on; `fn` must not throw.
void RunOnThreads(int num_threads, const std::function<void(int)>& fn);

/// A work-stealing multi-queue of opaque 64-bit work items (the enumeration
/// engines pack sharded-table references into them). Each worker owns a
/// deque: PushBatch appends to the owner's back, NextBatch pops from the
/// owner's back (LIFO, cache-warm) and falls back to stealing from the front
/// of a victim (FIFO, coarse chunks first). Termination is detected with an
/// outstanding counter: an item counts from PushBatch until the matching
/// FinishBatch, so work spawned *while processing* an item can never be
/// missed — NextBatch only returns 0 once every queue is empty and no item
/// is still in flight (or after Cancel).
///
/// The deques are mutex-striped (one lock per worker) rather than lock-free:
/// the enumeration engines pop a batch and then do expansions that are
/// orders of magnitude more expensive than the lock, so contention is not
/// the bottleneck and the simple version is ThreadSanitizer-clean by
/// construction.
class WorkStealingQueue {
 public:
  explicit WorkStealingQueue(int num_workers);

  WorkStealingQueue(const WorkStealingQueue&) = delete;
  WorkStealingQueue& operator=(const WorkStealingQueue&) = delete;

  /// Enqueues `count` items onto `worker`'s deque under one lock
  /// acquisition (and one outstanding-counter bump). The enumeration inner
  /// loops discover several new work items per expansion; pushing them one
  /// at a time made the queue mutex the second-hottest line in the engine
  /// profile after the dedup probe.
  void PushBatch(int worker, const uint64_t* items, size_t count);

  /// Dequeues up to `max_items` items for `worker` under one lock: a batch
  /// from the back of its own deque, or — when that is empty — a *single*
  /// stolen item (stealing coarse chunks would defeat the balance the
  /// front-steal heuristic buys). Spins (yielding) while other workers
  /// still hold in-flight items that may spawn more work; returns 0 only
  /// when the enumeration is drained or Cancel() was called. Every returned
  /// item must be covered by a FinishBatch.
  size_t NextBatch(int worker, uint64_t* items, size_t max_items);

  /// Marks `count` items obtained from NextBatch as processed, so
  /// termination detection can make progress — one atomic for the batch.
  /// CAUTION: only call after every item of the batch is fully processed
  /// AND all work spawned while processing them has been pushed; deferring
  /// the decrement any longer only delays termination, but decrementing
  /// before the spawned pushes would let the outstanding counter hit zero
  /// while undelivered work exists (missed-work bug).
  void FinishBatch(size_t count);

  /// Makes every current and future NextBatch() call return 0; used when a
  /// deadline expires or a result cap is hit.
  void Cancel();

  bool Cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  bool TryPop(int worker, uint64_t* item);
  size_t TryPopBatch(int worker, uint64_t* items, size_t max_items);

  struct Worker {
    std::mutex mutex;
    std::deque<uint64_t> deque;
  };

  std::vector<Worker> workers_;
  std::atomic<size_t> outstanding_{0};
  std::atomic<bool> cancelled_{false};
};

}  // namespace parallel
}  // namespace mintri

#endif  // MINTRI_PARALLEL_THREAD_POOL_H_
