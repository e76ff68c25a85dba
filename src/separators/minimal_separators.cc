#include "separators/minimal_separators.h"

#include <algorithm>

#include "parallel/parallel_separators.h"

namespace mintri {

bool IsMinimalSeparator(const Graph& g, const VertexSet& s) {
  if (s.Empty()) return false;
  int full_components = 0;
  ComponentScanner scanner;
  scanner.ForEachComponentWhile(
      g, s, [&](const VertexSet&, const VertexSet& nb) {
        if (nb == s && ++full_components >= 2) return false;
        return true;
      });
  return full_components >= 2;
}

MinimalSeparatorEnumerator::MinimalSeparatorEnumerator(const Graph& g,
                                                       int max_size,
                                                       const Deadline* deadline)
    : g_(g),
      max_size_(max_size),
      deadline_(deadline),
      table_(/*initial_slots=*/256) {
  // removed_ is the expansion loop's long-lived scratch (one AssignUnionOf
  // per expanded vertex): heap words keep those stores from aliasing the
  // enumerator's members in the optimizer's eyes — see PinWordsToHeap.
  removed_.PinWordsToHeap();
}

MinimalSeparatorEnumerator::MinimalSeparatorEnumerator(const Graph& g)
    : MinimalSeparatorEnumerator(g, g.NumVertices()) {}

void MinimalSeparatorEnumerator::Offer(const VertexSet& s) {
  if (s.Empty()) return;
  if (max_size_ < g_.NumVertices() && s.Count() > max_size_) return;
  table_.Insert(s);
}

std::optional<VertexSet> MinimalSeparatorEnumerator::Next() {
  // Lazy seeding: only scan the next vertex's close separators (components
  // of G \ N[v], Berry et al.) once the queue has run dry. This keeps the
  // first result cheap, which is what the CKK baseline banks on.
  while (head_ >= table_.Size() && seed_cursor_ < g_.NumVertices()) {
    if (IsExpired(deadline_)) {
      truncated_ = true;
      return std::nullopt;
    }
    const int v = seed_cursor_++;
    removed_ = g_.Neighbors(v);
    removed_.Insert(v);
    scanner_.ForEachComponent(
        g_, removed_,
        [&](const VertexSet&, const VertexSet& nb) { Offer(nb); });
  }
  if (head_ >= table_.Size()) return std::nullopt;

  const size_t index = head_++;
  // Copy to scratch: Offer() may grow the arena and move its elements while
  // we are still iterating over the separator being expanded.
  current_ = table_.At(index);
  // Expansion: for each x in S, the neighborhoods of the components of
  // G \ (S ∪ N(x)) are minimal separators. The deadline is polled per
  // vertex so one huge expansion cannot blow past the time budget.
  const bool completed = current_.ForEachWhile([&](int x) {
    if (IsExpired(deadline_)) return false;
    removed_.AssignUnionOf(current_, g_.Neighbors(x));
    scanner_.ForEachComponent(
        g_, removed_,
        [&](const VertexSet&, const VertexSet& nb) { Offer(nb); });
    return true;
  });
  if (!completed) truncated_ = true;
  return table_.At(index);
}

namespace {

// The serial batch path. Like the parallel engine it returns every
// separator *discovered* (reported or still queued), in discovery order,
// and caps the same way: once the discovered set would exceed max_results
// the run is truncated to its first max_results members. So count and
// status mean the same at every thread count.
MinimalSeparatorsResult ListSerial(const Graph& g, int max_size,
                                   const EnumerationLimits& limits) {
  Deadline deadline(limits.time_limit_seconds);
  MinimalSeparatorsResult result;
  MinimalSeparatorEnumerator enumerator(g, max_size, &deadline);
  bool truncated = false;
  while (true) {
    if (deadline.Expired()) {
      truncated = !enumerator.Exhausted() || enumerator.Truncated();
      break;
    }
    std::optional<VertexSet> s = enumerator.Next();
    if (!s.has_value()) {
      truncated = enumerator.Truncated();
      break;
    }
    result.separators.push_back(std::move(*s));
    if (enumerator.NumDiscovered() > limits.max_results) {
      truncated = true;
      break;
    }
  }
  const size_t count = std::min(enumerator.NumDiscovered(), limits.max_results);
  result.separators.resize(std::min(result.separators.size(), count));
  for (size_t i = result.separators.size(); i < count; ++i) {
    result.separators.push_back(enumerator.Discovered(i));
  }
  result.status =
      truncated ? EnumerationStatus::kTruncated : EnumerationStatus::kComplete;
  return result;
}

MinimalSeparatorsResult ListImpl(const Graph& g, int max_size,
                                 const EnumerationLimits& limits) {
  if (limits.num_threads <= 1) return ListSerial(g, max_size, limits);
  if (g.NumVertices() >= kMinParallelVertices) {
    return parallel::ListMinimalSeparatorsParallel(g, max_size, limits);
  }
  // Below the cutoff the serial engine runs, in the canonical order a
  // complete multi-threaded result promises.
  MinimalSeparatorsResult result = ListSerial(g, max_size, limits);
  if (result.status == EnumerationStatus::kComplete) {
    std::sort(result.separators.begin(), result.separators.end());
  }
  return result;
}

}  // namespace

MinimalSeparatorsResult ListMinimalSeparators(const Graph& g,
                                              const EnumerationLimits& limits) {
  return ListImpl(g, g.NumVertices(), limits);
}

MinimalSeparatorsResult ListMinimalSeparatorsBounded(
    const Graph& g, int max_size, const EnumerationLimits& limits) {
  return ListImpl(g, max_size, limits);
}

std::vector<VertexSet> MinimalSeparatorsBruteForce(const Graph& g) {
  const int n = g.NumVertices();
  std::vector<VertexSet> out;
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    VertexSet s(n);
    for (int v = 0; v < n; ++v) {
      if ((mask >> v) & 1) s.Insert(v);
    }
    if (IsMinimalSeparator(g, s)) out.push_back(std::move(s));
  }
  return out;
}

}  // namespace mintri
