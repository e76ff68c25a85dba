#ifndef MINTRI_SEPARATORS_MINIMAL_SEPARATORS_H_
#define MINTRI_SEPARATORS_MINIMAL_SEPARATORS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "graph/vertex_set_table.h"
#include "util/timer.h"

namespace mintri {

/// Stop conditions for potentially exponential enumerations. The paper's
/// experiments bound both the count and the wall-clock time (e.g., "one
/// minute for MinSep(G)", Section 7.2).
struct EnumerationLimits {
  size_t max_results = std::numeric_limits<size_t>::max();
  double time_limit_seconds = std::numeric_limits<double>::infinity();
  /// Worker threads for the batch enumerations. 1 (the default) runs the
  /// serial engines unchanged; > 1 routes ListMinimalSeparators /
  /// ListMinimalSeparatorsBounded / ListPotentialMaximalCliques through the
  /// src/parallel/ work-stealing engines (graphs below kMinParallelVertices
  /// stay serial). Complete results are identical to the serial answer sets
  /// (and returned in canonical sorted order); truncated results are valid
  /// prefixes, but *which* prefix depends on thread interleaving. The
  /// streaming MinimalSeparatorEnumerator below is always single-threaded.
  int num_threads = 1;
};

/// Graphs with fewer vertices run the serial engines even when num_threads
/// > 1: a fork-join plus per-worker scratch costs tens of microseconds,
/// which dwarfs the whole enumeration on a small graph. Both engines produce
/// the same sets, so the cutover is unobservable in complete results.
inline constexpr int kMinParallelVertices = 20;

enum class EnumerationStatus {
  kComplete,   // the output is the entire answer set
  kTruncated,  // a limit was hit; the output is a (valid) prefix
};

struct MinimalSeparatorsResult {
  std::vector<VertexSet> separators;
  EnumerationStatus status = EnumerationStatus::kComplete;
};

/// True iff s is a minimal (u,v)-separator for some u, v; equivalently, iff
/// G \ s has at least two full components (components C with N(C) = s).
/// The empty set is never considered a separator.
bool IsMinimalSeparator(const Graph& g, const VertexSet& s);

/// Enumerates all minimal separators of g with the algorithm of Berry,
/// Bordat and Cogis (WG 1999): seed with the "close" separators N(C) for the
/// components C of G \ N[v] over all v, then repeatedly expand a separator S
/// through each x ∈ S via the components of G \ (S ∪ N(x)).
MinimalSeparatorsResult ListMinimalSeparators(
    const Graph& g, const EnumerationLimits& limits = {});

/// Variant used by the bounded-width algorithm MinTriangB (Section 5.3): only
/// separators of size at most `max_size` are reported and expanded. The
/// completeness of the pruned expansion for the bounded regime is validated
/// against exhaustive search in the test suite.
MinimalSeparatorsResult ListMinimalSeparatorsBounded(
    const Graph& g, int max_size, const EnumerationLimits& limits = {});

/// Reference implementation for tests: checks IsMinimalSeparator on every
/// vertex subset. Exponential; intended for n <= ~16.
std::vector<VertexSet> MinimalSeparatorsBruteForce(const Graph& g);

/// Pull-based Berry–Bordat–Cogis enumeration: yields one minimal separator
/// per Next() call, with polynomial delay. The CKK baseline consumes this
/// stream lazily (it must not pay the full enumeration upfront — having no
/// initialization step is its selling point in Table 2), and the batch
/// functions above are thin wrappers (for num_threads == 1; with more
/// threads they use the src/parallel/ batch engine instead).
///
/// Note on guarantees under threading: the polynomial-delay bound is a
/// property of this serial stream — each Next() does at most one expansion
/// (O(n·m) work) between results. The parallel batch engine preserves the
/// *total* work bound and the exact answer set, but not per-result delay:
/// results materialize in bursts as workers drain the shared frontier, so
/// per-thread delay is polynomial only in an amortized sense and no global
/// emission order is defined.
///
/// Internals are built for throughput: every distinct separator lives in an
/// arena (discovery order) that doubles as the work queue, deduplication is
/// an open-addressing table of arena indices keyed on the sets' cached
/// 64-bit hashes, seeding is lazy (a seed vertex is only processed once the
/// queue runs dry, so the first result is cheap), and the expansion step
/// reuses scanner/scratch buffers instead of allocating per call.
class MinimalSeparatorEnumerator {
 public:
  /// `g` must outlive the enumerator (as must `deadline` when non-null).
  /// Separators larger than `max_size` are neither reported nor expanded
  /// (use g.NumVertices() for no bound). When a deadline is supplied it is
  /// polled inside the per-vertex expansion loop, so even a single huge
  /// expansion cannot blow past the time budget; once it expires the stream
  /// stops early and Truncated() turns true.
  MinimalSeparatorEnumerator(const Graph& g, int max_size,
                             const Deadline* deadline = nullptr);
  explicit MinimalSeparatorEnumerator(const Graph& g);

  /// The next minimal separator, or std::nullopt when exhausted (or when
  /// the deadline expired; distinguish via Truncated()).
  std::optional<VertexSet> Next();

  /// True when the stream has nothing further to produce: every discovered
  /// separator was reported and every seed vertex processed.
  bool Exhausted() const {
    return head_ >= table_.Size() && seed_cursor_ >= g_.NumVertices();
  }

  /// True iff the deadline cut seeding or an expansion short, i.e. the
  /// stream may be incomplete even once it stops producing.
  bool Truncated() const { return truncated_; }

  /// Number of distinct minimal separators discovered so far (reported or
  /// still queued).
  size_t NumDiscovered() const { return table_.Size(); }

  /// The i-th discovered separator (discovery order; the first ones are the
  /// reported ones, in report order), i < NumDiscovered().
  const VertexSet& Discovered(size_t i) const { return table_.At(i); }

  /// Pre-sizes the dedup arena and probe table for `expected` distinct
  /// separators. With an accurate estimate (a previous run on the same
  /// graph, a cached count in a service), the entire enumeration performs
  /// zero heap allocations on small universes — the invariant the
  /// MINTRI_COUNT_ALLOCS regression test pins. Harmless to over- or
  /// under-shoot: the table grows as usual past the reservation.
  void Reserve(size_t expected) { table_.Reserve(expected); }

 private:
  // Inserts s into the arena/queue unless seen or over the size bound.
  void Offer(const VertexSet& s);

  const Graph& g_;
  int max_size_;
  const Deadline* deadline_;
  bool truncated_ = false;

  // All distinct separators in discovery order (VertexSetTable's arena —
  // the layout shared with the parallel engine's shards). Entries at index
  // >= head_ are the pending queue; Next() reports table_.At(head_) and
  // advances, so queue entries are indices, never copies.
  VertexSetTable table_;
  size_t head_ = 0;
  int seed_cursor_ = 0;  // next vertex whose close separators to seed

  // Reused scratch.
  ComponentScanner scanner_;
  VertexSet current_;  // the separator being expanded
  VertexSet removed_;  // S ∪ N(x) during expansion; N[v] during seeding
};

}  // namespace mintri

#endif  // MINTRI_SEPARATORS_MINIMAL_SEPARATORS_H_
