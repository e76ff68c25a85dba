#include "separators/crossing.h"

#include <algorithm>

namespace mintri {

ComponentLabeling::ComponentLabeling(const Graph& g, const VertexSet& removed)
    : labels_(g.NumVertices(), -1) {
  ComponentScanner scanner;
  int label = 0;
  scanner.ForEachComponent(g, removed,
                           [&](const VertexSet& c, const VertexSet&) {
                             c.ForEach([&](int v) { labels_[v] = label; });
                             ++label;
                           });
}

bool ComponentLabeling::IsParallelTo(const VertexSet& t) const {
  int found = -1;
  bool parallel = true;
  t.ForEach([&](int v) {
    if (!parallel) return;
    int l = labels_[v];
    if (l < 0) return;  // inside the separator: irrelevant
    if (found == -1) {
      found = l;
    } else if (found != l) {
      parallel = false;
    }
  });
  return parallel;
}

bool AreParallel(const Graph& g, const VertexSet& s, const VertexSet& t) {
  return ComponentLabeling(g, s).IsParallelTo(t);
}

bool IsPairwiseParallel(const Graph& g, const std::vector<VertexSet>& seps) {
  for (size_t i = 0; i < seps.size(); ++i) {
    ComponentLabeling labeling(g, seps[i]);
    for (size_t j = i + 1; j < seps.size(); ++j) {
      if (!labeling.IsParallelTo(seps[j])) return false;
    }
  }
  return true;
}

bool IsMaximalPairwiseParallel(const Graph& g,
                               const std::vector<VertexSet>& seps,
                               const std::vector<VertexSet>& universe) {
  if (!IsPairwiseParallel(g, seps)) return false;
  for (const VertexSet& candidate : universe) {
    if (std::find(seps.begin(), seps.end(), candidate) != seps.end()) {
      continue;
    }
    ComponentLabeling labeling(g, candidate);
    bool parallel_to_all = true;
    for (const VertexSet& s : seps) {
      if (!labeling.IsParallelTo(s)) {
        parallel_to_all = false;
        break;
      }
    }
    if (parallel_to_all) return false;  // could be added: not maximal
  }
  return true;
}

}  // namespace mintri
