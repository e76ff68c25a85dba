#include "enumeration/ranked_enum.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mintri {

namespace {

void InsertSorted(std::vector<int>* v, int id) {
  v->insert(std::upper_bound(v->begin(), v->end(), id), id);
}

void EraseSorted(std::vector<int>* v, int id) {
  auto it = std::lower_bound(v->begin(), v->end(), id);
  assert(it != v->end() && *it == id);
  v->erase(it);
}

}  // namespace

RankedTriangulationEnumerator::RankedTriangulationEnumerator(
    const TriangulationContext& ctx, const BagCost& cost,
    const Deadline* deadline)
    : ctx_(ctx), solver_(ctx, cost) {
  solver_.set_deadline(deadline);
  ++num_optimizer_calls_;
  std::optional<TriangulationTree> first = solver_.Solve({}, {});
  if (first.has_value()) {
    Push(std::move(*first), -1);
  } else {
    truncated_ = solver_.truncated();
    exhausted_ = true;
  }
}

void RankedTriangulationEnumerator::Push(TriangulationTree t,
                                         int constraints) {
  Entry e{t.cost, sequence_++, std::move(t), constraints};
  queue_.push(std::move(e));
}

void RankedTriangulationEnumerator::CollectConstraints(
    int node, std::vector<int>* include, std::vector<int>* exclude) const {
  include->clear();
  exclude->clear();
  for (; node >= 0; node = arena_[node].parent) {
    (arena_[node].is_include ? include : exclude)
        ->push_back(arena_[node].sep_id);
  }
  std::sort(include->begin(), include->end());
  std::sort(exclude->begin(), exclude->end());
}

std::optional<Triangulation> RankedTriangulationEnumerator::Next() {
  std::optional<TriangulationTree> tree = NextTree();
  if (!tree.has_value()) return std::nullopt;
  return Saturate(ctx_.graph(), std::move(*tree));
}

std::optional<TriangulationTree> RankedTriangulationEnumerator::NextTree() {
  // The last result's expansion runs now, when the next result is asked
  // for: a consumer that stops after k results pays for k − 1 expansions.
  if (expansion_pending_) Expand();
  // A truncated stream stays truncated: part of some Lawler–Murty expansion
  // was skipped, so continuing would silently drop or misorder results.
  if (exhausted_ || truncated_ || queue_.empty()) {
    exhausted_ = true;
    return std::nullopt;
  }
  // Moving out of top() is safe: the comparator only reads the trivially
  // copyable cost/sequence fields, which moving leaves intact.
  Entry top = std::move(const_cast<Entry&>(queue_.top()));
  queue_.pop();

  // Keep what the expansion of this result needs: its constraint chain
  // [I, X] and MinSep(H) \ I as separator ids.
  pending_chain_ = top.constraints;
  CollectConstraints(top.constraints, &include_, &exclude_);
  h_seps_.clear();
  for (const VertexSet& s : top.tree.separators) {
    int id = ctx_.SeparatorId(s);
    assert(id >= 0);  // every adhesion is a minimal separator of G
    h_seps_.push_back(id);
  }
  std::sort(h_seps_.begin(), h_seps_.end());
  free_seps_.clear();
  std::set_difference(h_seps_.begin(), h_seps_.end(), include_.begin(),
                      include_.end(), std::back_inserter(free_seps_));
  expansion_pending_ = true;
  return std::move(top.tree);
}

void RankedTriangulationEnumerator::Expand() {
  expansion_pending_ = false;
  std::vector<int>& include = include_;
  std::vector<int>& exclude = exclude_;
  const std::vector<int>& free_seps = free_seps_;
  // Split the remainder of [I, X] along MinSep(H) \ I (lines 7-13).
  // Partition i: [I ∪ {S_1..S_{i-1}}, X ∪ {S_i}]. The include prefix is
  // shared between siblings through the arena chain; each partition is one
  // exclude node hanging off it. Consecutive solver calls differ by at most
  // three separators, so each is an incremental repair.
  int chain = pending_chain_;
  for (size_t i = 0; i < free_seps.size(); ++i) {
    const int s = free_seps[i];
    InsertSorted(&exclude, s);
    arena_.push_back({s, chain, false});
    const int partition = static_cast<int>(arena_.size()) - 1;
    ++num_optimizer_calls_;
    std::optional<TriangulationTree> h = solver_.Solve(include, exclude);
    if (solver_.truncated()) {
      // Out of budget mid-expansion. The results already handed out are
      // correct, but the stream ends here, truthfully marked.
      truncated_ = true;
      return;
    }
    if (h.has_value()) {
      // The solver returned a finite-cost triangulation, which under
      // κ[I_i, X_i] already implies H ⊨ [I_i, X_i] (the satisfaction test
      // of line 12), ranked by the *unconstrained* cost — equal for
      // satisfying triangulations by Equation (2).
      Push(std::move(*h), partition);
    }
    EraseSorted(&exclude, s);
    if (i + 1 < free_seps.size()) {
      arena_.push_back({s, chain, true});
      chain = static_cast<int>(arena_.size()) - 1;
      InsertSorted(&include, s);
    }
  }
}

}  // namespace mintri
