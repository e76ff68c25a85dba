#ifndef MINTRI_GRAPH_VERTEX_SET_POOL_H_
#define MINTRI_GRAPH_VERTEX_SET_POOL_H_

#include <utility>
#include <vector>

#include "graph/vertex_set.h"

namespace mintri {

/// A free list of VertexSets: the scratch allocator of the candidate-
/// generation hot loops (PMC candidate construction, solver repair
/// temporaries). Acquire() hands out an empty set over the requested
/// universe, reusing a previously Release()d set's word buffer whenever one
/// is available; Release() returns a set — and, crucially, its spilled heap
/// buffer, if any — to the list instead of the allocator. On <= 128-vertex
/// universes the small-buffer storage already makes individual sets
/// allocation-free and the pool merely recycles the object slots; on wider
/// universes it is what keeps the "build a candidate, usually reject it"
/// loops from churning a heap buffer per candidate.
///
/// Not thread-safe: use one pool per worker, exactly like ComponentScanner
/// and PmcTester scratch.
class VertexSetPool {
 public:
  /// An empty set over {0, ..., capacity-1}, recycled when possible.
  VertexSet Acquire(int capacity) {
    if (free_.empty()) return VertexSet(capacity);
    VertexSet s = std::move(free_.back());
    free_.pop_back();
    s.Reset(capacity);
    return s;
  }

  /// Returns a set to the free list. The set's value is irrelevant; only
  /// its buffer is kept.
  void Release(VertexSet&& s) { free_.push_back(std::move(s)); }

 private:
  std::vector<VertexSet> free_;
};

}  // namespace mintri

#endif  // MINTRI_GRAPH_VERTEX_SET_POOL_H_
