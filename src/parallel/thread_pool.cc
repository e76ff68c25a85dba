#include "parallel/thread_pool.h"

#include <algorithm>
#include <thread>

namespace mintri {
namespace parallel {

int DefaultParallelThreads() {
  return std::max(2u, std::thread::hardware_concurrency());
}

void RunOnThreads(int num_threads, const std::function<void(int)>& fn) {
  // Last-line defense for every entry point (CLI validation aside): a
  // std::thread constructor throwing on resource exhaustion would escape as
  // std::terminate, so absurd requests are clamped instead of attempted.
  num_threads = std::min(num_threads, kMaxRunThreads);
  if (num_threads <= 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(num_threads - 1);
  for (int id = 1; id < num_threads; ++id) {
    threads.emplace_back([&fn, id] { fn(id); });
  }
  fn(0);
  for (std::thread& t : threads) t.join();
}

WorkStealingQueue::WorkStealingQueue(int num_workers)
    : workers_(num_workers) {}

void WorkStealingQueue::PushBatch(int worker, const uint64_t* items,
                                  size_t count) {
  if (count == 0) return;
  // Counter first, then the items become visible, so a worker can never
  // observe queued work with outstanding_ == 0.
  outstanding_.fetch_add(count, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(workers_[worker].mutex);
  std::deque<uint64_t>& dq = workers_[worker].deque;
  dq.insert(dq.end(), items, items + count);
}

bool WorkStealingQueue::TryPop(int worker, uint64_t* item) {
  {
    // Own deque: LIFO keeps the separator just discovered (and still warm in
    // cache) the next one expanded.
    Worker& own = workers_[worker];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.deque.empty()) {
      *item = own.deque.back();
      own.deque.pop_back();
      return true;
    }
  }
  const int n = static_cast<int>(workers_.size());
  for (int step = 1; step < n; ++step) {
    Worker& victim = workers_[(worker + step) % n];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.deque.empty()) {
      // Steal from the front: the oldest items tend to be the roots of the
      // largest unexplored expansion subtrees.
      *item = victim.deque.front();
      victim.deque.pop_front();
      return true;
    }
  }
  return false;
}

size_t WorkStealingQueue::TryPopBatch(int worker, uint64_t* items,
                                      size_t max_items) {
  {
    Worker& own = workers_[worker];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.deque.empty()) {
      // Back of the own deque, newest first — the batch equivalent of the
      // LIFO cache-warm pop.
      size_t got = 0;
      while (got < max_items && !own.deque.empty()) {
        items[got++] = own.deque.back();
        own.deque.pop_back();
      }
      return got;
    }
  }
  // Steal path: one item only, from the front of a victim (coarse subtree
  // roots), exactly as TryPop — batch-stealing would concentrate the very
  // work the front-steal heuristic is trying to spread.
  return TryPop(worker, items) ? 1 : 0;
}

size_t WorkStealingQueue::NextBatch(int worker, uint64_t* items,
                                    size_t max_items) {
  if (max_items == 0) return 0;
  while (true) {
    if (cancelled_.load(std::memory_order_relaxed)) return 0;
    const size_t got = TryPopBatch(worker, items, max_items);
    if (got > 0) return got;
    // Every deque was momentarily empty. If nothing is in flight either,
    // no further work can appear (FinishBatch of in-flight items is the only
    // producer left) — the acquire pairs with FinishBatch's release so the
    // emptiness we just observed is final.
    if (outstanding_.load(std::memory_order_acquire) == 0) return 0;
    std::this_thread::yield();
  }
}

void WorkStealingQueue::FinishBatch(size_t count) {
  if (count == 0) return;
  outstanding_.fetch_sub(count, std::memory_order_release);
}

void WorkStealingQueue::Cancel() {
  cancelled_.store(true, std::memory_order_relaxed);
}

}  // namespace parallel
}  // namespace mintri
