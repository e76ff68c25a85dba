#include "triang/min_triang_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mintri {

MinTriangSolver::MinTriangSolver(const TriangulationContext& ctx,
                                 const BagCost& cost)
    : ctx_(ctx),
      cost_(cost),
      empty_separator_(ctx.graph().NumVertices()),
      all_vertices_(ctx.graph().Vertices()) {
  const int num_nodes = Root() + 1;
  cand_trees_.resize(num_nodes);
  dirty_list_.resize(num_nodes);
  worklist_.assign((num_nodes + 63) / 64, 0);
  cand_offset_.reserve(num_nodes + 1);
  for (int node = 0; node < num_nodes; ++node) {
    const size_t k = Candidates(node).size();
    cand_offset_.push_back(static_cast<int>(cand_node_.size()));
    cand_node_.insert(cand_node_.end(), k, node);
  }
  cand_offset_.push_back(static_cast<int>(cand_node_.size()));
  cand_dirty_.assign(cand_node_.size(), 0);
  num_words_ = (cand_node_.size() + 63) / 64;
  row_slot_.assign(ctx.minimal_separators().size(), -1);
  row_scratch_.assign(2 * num_words_, 0);
  inc_.assign(num_words_, 0);
  exc_.assign(num_words_, 0);
  blocked_.assign(num_words_, 0);
  value_.assign(num_nodes, kInfiniteCost);
  choice_.assign(num_nodes, -1);
}

void MinTriangSolver::BuildHosts() {
  hosts_built_ = true;
  const int num_nodes = Root() + 1;
  // Candidate-granular reverse edges: when block b's value changes, the
  // repair dirties exactly the (host, k) candidates that combine over b —
  // a point update each — instead of rescanning every candidate of every
  // host.
  host_cands_.resize(ctx_.blocks().size());
  for (int node = 0; node < num_nodes; ++node) {
    const std::vector<std::vector<int>>& children = Children(node);
    for (size_t k = 0; k < children.size(); ++k) {
      for (int cid : children[k]) {
        host_cands_[cid].push_back({node, FlatId(node, static_cast<int>(k))});
      }
    }
  }
}

namespace {

// Sets bits [begin, end) of `words`.
void SetBitRange(uint64_t* words, int begin, int end) {
  if (begin >= end) return;
  const int first = begin >> 6;
  const int last = (end - 1) >> 6;
  const uint64_t head = ~uint64_t{0} << (begin & 63);
  const uint64_t tail = ~uint64_t{0} >> (63 - ((end - 1) & 63));
  if (first == last) {
    words[first] |= head & tail;
    return;
  }
  words[first] |= head;
  for (int w = first + 1; w < last; ++w) words[w] = ~uint64_t{0};
  words[last] |= tail;
}

// Calls fn(i) for every set bit i of `words`, in ascending order.
template <typename Fn>
void ForEachBit(const std::vector<uint64_t>& words, Fn&& fn) {
  for (size_t w = 0; w < words.size(); ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      fn(static_cast<int>(w * 64) + __builtin_ctzll(bits));
    }
  }
}

// Sets `*out` to the items (of `count`) that contain every vertex of `s`:
// the AND of s's rows of `incidence`, one row of out->size() words per
// vertex.
void Containing(const VertexSet& s, const std::vector<uint64_t>& incidence,
                size_t count, std::vector<uint64_t>* out) {
  const size_t words = out->size();
  std::fill(out->begin(), out->end(), ~uint64_t{0});
  if (count % 64 != 0) out->back() = (uint64_t{1} << (count % 64)) - 1;
  s.ForEach([&](int v) {
    const uint64_t* row = &incidence[v * words];
    for (size_t w = 0; w < words; ++w) (*out)[w] &= row[w];
  });
}

}  // namespace

void MinTriangSolver::BuildRowIndex() {
  if (!hosts_built_) BuildHosts();
  const int n = ctx_.graph().NumVertices();
  const int num_nodes = Root() + 1;
  const int num_pmcs = static_cast<int>(ctx_.pmcs().size());
  node_words_ = (num_nodes + 63) / 64;
  pmc_words_ = (num_pmcs + 63) / 64;
  vertex_nodes_.assign(static_cast<size_t>(n) * node_words_, 0);
  vertex_pmcs_.assign(static_cast<size_t>(n) * pmc_words_, 0);
  for (int node = 0; node < num_nodes; ++node) {
    NodeVertices(node).ForEach([&](int v) {
      vertex_nodes_[v * node_words_ + (node >> 6)] |= uint64_t{1}
                                                      << (node & 63);
    });
  }
  for (int p = 0; p < num_pmcs; ++p) {
    ctx_.pmcs()[p].ForEach([&](int v) {
      vertex_pmcs_[v * pmc_words_ + (p >> 6)] |= uint64_t{1} << (p & 63);
    });
  }
  // Each PMC's flat candidate ids, as a CSR over the PMC ids.
  pmc_cand_begin_.assign(num_pmcs + 1, 0);
  for (int node = 0; node < num_nodes; ++node) {
    for (int p : Candidates(node)) ++pmc_cand_begin_[p + 1];
  }
  for (int p = 0; p < num_pmcs; ++p) {
    pmc_cand_begin_[p + 1] += pmc_cand_begin_[p];
  }
  pmc_cand_ids_.resize(cand_node_.size());
  std::vector<int> next(pmc_cand_begin_.begin(), pmc_cand_begin_.end() - 1);
  for (int node = 0; node < num_nodes; ++node) {
    const std::vector<int>& cands = Candidates(node);
    for (size_t k = 0; k < cands.size(); ++k) {
      pmc_cand_ids_[next[cands[k]]++] = FlatId(node, static_cast<int>(k));
    }
  }
  containing_nodes_.resize(node_words_);
  containing_pmcs_.resize(pmc_words_);
}

size_t MinTriangSolver::Row(int sep_id, bool inclusion) {
  if (row_slot_[sep_id] < 0) {
    // Built once per separator ever used in a constraint, from the vertex
    // incidence instead of subset tests: the nodes and PMCs ⊇ S are ANDs of
    // |S| incidence rows. Afterwards every constraint change over this
    // separator is a few word ORs. The exclusion row goes to the first half
    // of the scratch, the inclusion row to the second.
    if (vertex_nodes_.empty()) BuildRowIndex();
    row_slot_[sep_id] = static_cast<int>(row_begin_.size() / 2);
    const VertexSet& s = ctx_.minimal_separators()[sep_id];
    Containing(s, vertex_nodes_, Root() + 1, &containing_nodes_);
    Containing(s, vertex_pmcs_, ctx_.pmcs().size(), &containing_pmcs_);
    uint64_t* exclusion = row_scratch_.data();
    uint64_t* inclusion_row = row_scratch_.data() + num_words_;
    const auto clear = [&](int id) {
      inclusion_row[id >> 6] &= ~(uint64_t{1} << (id & 63));
    };
    // Inclusion geometry: S fits the block (every candidate of a node
    // ⊇ S) but lies neither inside a child block (the host candidates of
    // each block ⊇ S) nor inside Ω (below) — the only place the inclusion
    // test flips.
    ForEachBit(containing_nodes_, [&](int node) {
      SetBitRange(inclusion_row, cand_offset_[node], cand_offset_[node + 1]);
    });
    ForEachBit(containing_nodes_, [&](int node) {
      if (node == Root()) return;
      for (const auto& [host, id] : host_cands_[node]) clear(id);
    });
    // Exclusion geometry: the candidates whose Ω ⊇ S, where the κ[I,X]
    // exclusion test reads S. Every node holds its candidates' Ω, so they
    // are all among the nodes ⊇ S.
    ForEachBit(containing_pmcs_, [&](int p) {
      for (int i = pmc_cand_begin_[p]; i < pmc_cand_begin_[p + 1]; ++i) {
        const int id = pmc_cand_ids_[i];
        assert((containing_nodes_[cand_node_[id] >> 6] >>
                (cand_node_[id] & 63)) & 1);
        exclusion[id >> 6] |= uint64_t{1} << (id & 63);
        clear(id);
      }
    });
    for (size_t w = 0; w < 2 * num_words_; ++w) {
      if (w == num_words_) row_begin_.push_back(row_word_.size());
      if (row_scratch_[w] == 0) continue;
      row_word_.push_back(static_cast<uint32_t>(w % num_words_));
      row_bits_.push_back(row_scratch_[w]);
      row_scratch_[w] = 0;
    }
    row_begin_.push_back(row_word_.size());
  }
  return 2 * static_cast<size_t>(row_slot_[sep_id]) + (inclusion ? 1 : 0);
}

void MinTriangSolver::FoldSide(const std::vector<int>& ids, bool inclusion,
                               std::vector<int>* current,
                               std::vector<uint64_t>* acc) {
  // The ids of `ids` that `*current` lacks; j ends short of current->size()
  // when some id of `*current` is gone from `ids`.
  added_ids_.clear();
  size_t j = 0;
  for (int id : ids) {
    if (j < current->size() && (*current)[j] < id) break;
    if (j < current->size() && (*current)[j] == id) {
      ++j;
    } else {
      added_ids_.push_back(id);
    }
  }
  // A superset (the sibling case: I only grows within one Lawler–Murty
  // expansion) ORs in the added rows; anything else rebuilds the side.
  const std::vector<int>* fold = &added_ids_;
  if (j < current->size()) {
    std::fill(acc->begin(), acc->end(), 0);
    fold = &ids;
  }
  for (int id : *fold) {
    const size_t r = Row(id, inclusion);
    for (size_t i = row_begin_[r]; i < row_begin_[r + 1]; ++i) {
      (*acc)[row_word_[i]] |= row_bits_[i];
    }
  }
  *current = ids;
}

void MinTriangSolver::UpdateBlocked(bool full) {
  for (size_t w = 0; w < num_words_; ++w) {
    const uint64_t now = inc_[w] | exc_[w];
    const uint64_t was = blocked_[w];
    if (now == was) continue;
    blocked_[w] = now;
    // On a full pass only the blocked set needs maintaining: everything is
    // re-evaluated anyway, so nothing is marked.
    if (full) continue;
    const int base = static_cast<int>(w * 64);
    // A newly blocked finite candidate drops to ∞ with no evaluation; an
    // already-∞ one stays put.
    for (uint64_t bits = now & ~was; bits != 0; bits &= bits - 1) {
      const int id = base + __builtin_ctzll(bits);
      const int node = cand_node_[id];
      const int k = id - cand_offset_[node];
      if (std::isinf(cand_trees_[node].ValueAt(k))) continue;
      cand_trees_[node].Update(k, kInfiniteCost);
      ++num_index_updates_;
      Activate(node);
    }
    // A candidate revives only once its last blocking constraint is gone.
    for (uint64_t bits = was & ~now; bits != 0; bits &= bits - 1) {
      const int id = base + __builtin_ctzll(bits);
      const int node = cand_node_[id];
      MarkDirty(node, id - cand_offset_[node]);
    }
  }
}

CostValue MinTriangSolver::EvalCandidate(int node, size_t k) {
  ++num_candidate_evals_;
  child_blocks_buf_.clear();
  child_costs_buf_.clear();
  for (int cid : Children(node)[k]) {
    CostValue v = value_[cid];
    if (std::isinf(v)) return kInfiniteCost;
    child_blocks_buf_.push_back(&ctx_.blocks()[cid].vertices);
    child_costs_buf_.push_back(v);
  }
  ++num_combine_calls_;
  return cost_.Combine({ctx_.graph(), ctx_.pmcs()[Candidates(node)[k]],
                        NodeSeparator(node), NodeVertices(node),
                        child_blocks_buf_, child_costs_buf_});
}

void MinTriangSolver::ClearWorklist() {
  for (size_t w = 0; w < worklist_.size(); ++w) {
    for (uint64_t bits = worklist_[w]; bits != 0; bits &= bits - 1) {
      dirty_list_[w * 64 + __builtin_ctzll(bits)].clear();
    }
    worklist_[w] = 0;
  }
}

bool MinTriangSolver::PollDeadline() {
  if (truncated_) return true;
  if (deadline_ == nullptr) return false;
  if ((++poll_tick_ & 63u) == 0 && deadline_->Expired()) truncated_ = true;
  return truncated_;
}

void MinTriangSolver::Repair(bool full) {
  if (full) {
    // Every node in ascending order. A full pass re-evaluates everything
    // and cascades nothing, so no pending node survives it.
    ClearWorklist();
    for (int node = 0; node <= Root(); ++node) {
      if (PollDeadline()) return;
      const size_t num_cands = Candidates(node).size();
      if (num_cands == 0) continue;
      std::vector<CostValue>& values = full_pass_values_;
      values.resize(num_cands);
      for (size_t k = 0; k < num_cands; ++k) {
        values[k] = Blocked(node, static_cast<int>(k)) ? kInfiniteCost
                                                       : EvalCandidate(node, k);
        if (PollDeadline()) return;
      }
      cand_trees_[node].Assign(values);
      Repick(node, /*cascade=*/false);
    }
    return;
  }
  // Only the nodes a constraint delta or a changed child activated, in
  // ascending order. A child is always processed before any (host, k)
  // candidate it appears under (hosts are strictly larger blocks), so a
  // cascade only activates nodes above the current one: re-reading the
  // current word picks up its higher bits, later words come next. A node's
  // bit is cleared only after it is done, so a truncation mid-node still
  // finds its dirty list in ClearWorklist.
  for (size_t w = 0; w < worklist_.size(); ++w) {
    while (worklist_[w] != 0) {
      const int node = static_cast<int>(w * 64) + __builtin_ctzll(worklist_[w]);
      if (PollDeadline()) return;
      RangeMinTree& tree = cand_trees_[node];
      // The candidates a constraint delta revived or a changed child
      // dirtied — all unblocked, since UpdateBlocked marks only newly
      // unblocked ones and the cascade skips blocked hosts. A
      // re-evaluation that lands on the cached value leaves the tree alone.
      for (int k : dirty_list_[node]) {
        assert(!Blocked(node, k));
        const CostValue v = EvalCandidate(node, k);
        if (v != tree.ValueAt(k)) {
          tree.Update(k, v);
          ++num_index_updates_;
        }
        if (PollDeadline()) return;
      }
      dirty_list_[node].clear();
      Repick(node, /*cascade=*/true);
      worklist_[w] &= ~(uint64_t{1} << (node & 63));
    }
  }
}

void MinTriangSolver::Repick(int node, bool cascade) {
  // One range-min query. The tree's first-minimum tie-break is the full
  // DP's "first strict improvement wins", so choice_ matches a from-scratch
  // solve.
  ++num_range_queries_;
  const RangeMinTree& tree = cand_trees_[node];
  const int min_k = tree.MinIndex();
  const bool feasible = min_k >= 0 && !std::isinf(tree.ValueAt(min_k));
  const CostValue best = feasible ? tree.ValueAt(min_k) : kInfiniteCost;
  choice_[node] = feasible ? min_k : -1;
  if (best == value_[node]) return;
  value_[node] = best;
  if (!cascade || node == Root()) return;
  // A blocked candidate is ∞ whatever its children hold, and un-blocking it
  // dirties it anyway, so only unblocked hosts need a re-evaluation.
  for (const auto& [host, id] : host_cands_[node]) {
    assert(host > node);
    if (!BlockedId(id)) MarkDirty(host, id - cand_offset_[host]);
  }
}

std::optional<TriangulationTree> MinTriangSolver::Solve(
    const std::vector<int>& include_ids, const std::vector<int>& exclude_ids) {
  assert(std::is_sorted(include_ids.begin(), include_ids.end()));
  assert(std::is_sorted(exclude_ids.begin(), exclude_ids.end()));
  truncated_ = false;

  const bool include_changed = include_ids != include_ids_;
  const bool exclude_changed = exclude_ids != exclude_ids_;
  const bool full = !solved_once_;
  // A deadline that is already gone: refuse before committing the new
  // constraint state or touching any table, so the cached ids, blocked
  // bits, and values all stay mutually consistent for the next attempt.
  if ((full || include_changed || exclude_changed) && IsExpired(deadline_)) {
    truncated_ = true;
    return std::nullopt;
  }

  if (full || include_changed || exclude_changed) {
    // The reverse DP edges are only needed once repairs start cascading, so
    // the one-shot MinTriang wrapper (a single full pass) never builds them.
    if (!full && !hosts_built_) BuildHosts();
    ++epoch_;
    if (include_changed) {
      FoldSide(include_ids, /*inclusion=*/true, &include_ids_, &inc_);
    }
    if (exclude_changed) {
      FoldSide(exclude_ids, /*inclusion=*/false, &exclude_ids_, &exc_);
    }
    UpdateBlocked(full);
    {
      // Bag scores too deep to take the deadline (the exact edge cover)
      // poll it through the thread slot and give up once it expires.
      ScopedThreadDeadline scope(deadline_);
      Repair(full);
    }
    // A bag score may have given up between two rate-limited polls: one
    // last check, so such a value never reaches a result.
    if (IsExpired(deadline_)) truncated_ = true;
    if (truncated_) {
      // The repair stopped midway: value_/choice_ and the trees may mix
      // old and new epochs. The blocked bits are still exact for the
      // *committed* constraint state, so forcing the next Solve through a
      // full pass restores every table. What the repair left pending is
      // dropped.
      ClearWorklist();
      solved_once_ = false;
      return std::nullopt;
    }
    solved_once_ = true;
  }

  if (choice_[Root()] < 0 || std::isinf(value_[Root()])) return std::nullopt;
  return Reconstruct();
}

TriangulationTree MinTriangSolver::Reconstruct() {
  const std::vector<TriangulationContext::BlockEntry>& blocks = ctx_.blocks();
  TriangulationTree t;
  t.cost = value_[Root()];

  std::vector<ReconstructFrame>& stack = reconstruct_stack_;
  stack.clear();
  const int root_k = choice_[Root()];
  t.bags.push_back(ctx_.pmcs()[ctx_.root_candidates()[root_k]]);
  t.parent.push_back(-1);
  for (int cid : ctx_.root_children()[root_k]) stack.push_back({cid, 0});
  std::vector<const VertexSet*>& seps = reconstruct_seps_;
  seps.clear();
  while (!stack.empty()) {
    ReconstructFrame f = stack.back();
    stack.pop_back();
    const TriangulationContext::BlockEntry& block = blocks[f.block_id];
    int k = choice_[f.block_id];
    assert(k >= 0);
    int bag_index = static_cast<int>(t.bags.size());
    t.bags.push_back(ctx_.pmcs()[block.candidate_pmcs[k]]);
    t.parent.push_back(f.parent_bag);
    seps.push_back(&block.separator);
    for (int cid : block.children[k]) stack.push_back({cid, bag_index});
  }
  // Distinct adhesions, in the canonical (VertexSet <) order.
  std::sort(seps.begin(), seps.end(),
            [](const VertexSet* x, const VertexSet* y) { return *x < *y; });
  t.separators.reserve(seps.size());
  for (size_t i = 0; i < seps.size(); ++i) {
    if (i == 0 || *seps[i] != *seps[i - 1]) t.separators.push_back(*seps[i]);
  }
  return t;
}

}  // namespace mintri
