#include "enumeration/ckk.h"

#include "chordal/lb_triang.h"
#include "separators/crossing.h"

namespace mintri {

CkkEnumerator::CkkEnumerator(const Graph& g, const BagCost* cost)
    : CkkEnumerator(g, cost,
                    [](const Graph& input) { return LbTriangMinDegree(input); }) {}

CkkEnumerator::CkkEnumerator(const Graph& g, const BagCost* cost,
                             Triangulator triangulator)
    : g_(g),
      cost_(cost),
      triangulator_(std::move(triangulator)),
      separator_stream_(g) {
  Offer(Extend({}));
}

Triangulation CkkEnumerator::Extend(const std::vector<VertexSet>& seed) {
  Graph saturated = g_;
  for (const VertexSet& s : seed) saturated.SaturateSet(s);
  ++num_triangulator_calls_;
  Graph h = triangulator_(saturated);
  Triangulation t = TriangulationFromChordal(std::move(h));
  if (cost_ != nullptr) t.cost = cost_->Evaluate(g_, t.bags);
  return t;
}

bool CkkEnumerator::Offer(Triangulation t) {
  // Dedup on the fill set itself (hash-accelerated, equality-confirmed): a
  // hash collision must never drop a distinct minimal triangulation.
  if (!seen_fills_.Insert(t.FillEdgesSorted(g_))) return false;
  pending_.push_back(std::move(t));
  return true;
}

void CkkEnumerator::TryExchange(const std::vector<VertexSet>& m,
                                const VertexSet& s) {
  for (const VertexSet& t : m) {
    if (t == s) return;  // S already in the set: nothing to exchange
  }
  ComponentLabeling labeling(g_, s);
  std::vector<VertexSet> seed = {s};
  for (const VertexSet& t : m) {
    if (labeling.IsParallelTo(t)) seed.push_back(t);
  }
  Offer(Extend(seed));
}

bool CkkEnumerator::CutByDeadline() {
  if (IsExpired(deadline_)) truncated_ = true;
  return truncated_;
}

std::optional<Triangulation> CkkEnumerator::Next() {
  // A truncated stream stays truncated: a skipped exchange may have been
  // the only route to some triangulation, so a stream that went on could
  // later run dry and look complete while missing results.
  if (CutByDeadline()) return std::nullopt;
  // When no pending result is available, advance the lazy separator stream:
  // each not-yet-known minimal separator is exchanged against every printed
  // result until one of the exchanges yields something new (or the stream
  // ends, proving the enumeration complete).
  while (pending_.empty()) {
    if (CutByDeadline()) return std::nullopt;
    std::optional<VertexSet> s = separator_stream_.Next();
    if (!s.has_value()) return std::nullopt;
    if (!known_sep_set_.insert(*s).second) continue;
    known_seps_.push_back(*s);
    for (const auto& m : printed_separator_sets_) {
      if (CutByDeadline()) return std::nullopt;
      TryExchange(m, *s);
    }
  }
  Triangulation h = std::move(pending_.front());
  pending_.pop_front();

  // Separators newly discovered by this result.
  std::vector<VertexSet> fresh;
  for (const VertexSet& s : h.separators) {
    if (known_sep_set_.insert(s).second) {
      fresh.push_back(s);
      known_seps_.push_back(s);
    }
  }
  // Exchange H against every known separator...
  for (const VertexSet& s : known_seps_) {
    if (CutByDeadline()) return h;
    TryExchange(h.separators, s);
  }
  // ...and every previously printed result against the fresh separators.
  for (const auto& m : printed_separator_sets_) {
    for (const VertexSet& s : fresh) {
      if (CutByDeadline()) return h;
      TryExchange(m, s);
    }
  }
  printed_separator_sets_.push_back(h.separators);
  return h;
}

}  // namespace mintri
