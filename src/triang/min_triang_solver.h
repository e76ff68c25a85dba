#ifndef MINTRI_TRIANG_MIN_TRIANG_SOLVER_H_
#define MINTRI_TRIANG_MIN_TRIANG_SOLVER_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cost/bag_cost.h"
#include "triang/context.h"
#include "triang/triangulation.h"
#include "util/range_min_tree.h"
#include "util/timer.h"

namespace mintri {

/// The stateful MinTriang⟨κ[I,X]⟩ engine behind MinTriang and RankedTriang:
/// the block DP of Figure 3 with its per-block candidate/value/choice tables
/// kept alive between calls, so that consecutive solves under *nearby*
/// constraint sets are incremental repairs instead of full passes.
///
/// Solve(I, X) computes a minimum-κ[I,X] minimal triangulation, where I/X
/// are inclusion/exclusion constraints given as sorted separator-id lists of
/// the context (Section 6.1). The constraint test is one bit, not a set
/// comparison. Every (node, Ω) candidate of the DP has a flat id (a CSR
/// offset per node), and each separator S has two static bit rows over
/// those ids, built on first use:
///
///  - its exclusion row holds the candidates with S ⊆ Ω;
///  - its inclusion row holds the candidates where S fits the block
///    (S ⊆ S∪C) but lies neither inside Ω nor inside a child block.
///
/// Rows are built from vertex incidence, with no subset tests: the nodes
/// ⊇ S and the PMCs ⊇ S are the ANDs of |S| per-vertex bitsets. The
/// inclusion row is the candidate ranges of the nodes ⊇ S minus the host
/// candidates of every block ⊇ S (those have a child ⊇ S); the candidates
/// of the PMCs ⊇ S then move from it to the exclusion row. A row costs
/// O(|S|·(B+P)/64) word operations plus its output. The per-vertex bitsets
/// and the PMC→candidate index are built with the first row, so a one-shot
/// solve never builds them.
///
/// The solver keeps inc = OR of I's inclusion rows and exc = OR of X's
/// exclusion rows; a candidate is blocked when its bit of inc | exc is set,
/// which holds exactly when CombineViolatesConstraints would reject the bag.
/// A side whose new id list contains its last one ORs in only the added rows
/// (within one Lawler–Murty expansion I only grows); any other change
/// rebuilds that side from its rows. Direction matters: a newly blocked
/// candidate (set in the new blocked words, clear in the old) drops to ∞
/// with no evaluation, a newly unblocked one is marked dirty, and every
/// other candidate keeps its cached value.
///
/// A blocked candidate is ∞ and never reaches Combine, so the base cost sees
/// only unblocked bags. A block whose DP value changed re-dirties the
/// (host, Ω) candidates it appears under, skipping blocked ones (∞ whatever
/// their children hold; un-blocking dirties them anyway).
///
/// Each block's candidate values live in the leaves of a range-min segment tree
/// (util/range_min_tree.h): a re-evaluated candidate is an O(log n) point
/// update (none when the value did not move), and re-finding the block optimum
/// is a range-min query at the tree root, whose first-minimum tie-break is the
/// full DP's "first strict improvement wins". A repair walks a worklist instead
/// of every block: a bitset of the nodes that hold a dirty or newly-blocked
/// candidate, visited in ascending node order. Hosts are strictly larger than
/// their children, so a cascade only adds nodes above the one being processed
/// and one ascending walk sees every child's new value before its hosts. A
/// repair therefore costs O(touched candidates · log n) plus a few word
/// operations per 64 candidates for the blocked set. The worklist is empty
/// between calls: a completed repair drains it, and a truncated one or a full
/// pass clears it.
///
/// The repaired tables are *identical* to a from-scratch DP (same values, same
/// first-minimum choice per block), so results are byte-for-byte equal to
/// MinTriang over ConstrainedCost — the differential test suite pins this on
/// randomized constraint walks. This is what makes the k constrained MinTriang
/// calls per RankedTriang output cheap: sibling Lawler–Murty partitions differ
/// by O(1) separators, so each call repairs a handful of blocks instead of
/// re-filling every table (the same amortization argument the paper uses
/// against CKK for initialization, applied to the per-result optimizer calls).
///
/// `ctx` and `cost` must outlive the solver. `cost` is the *base* cost κ;
/// the solver applies [I,X] itself through the blocked bits. (Passing a
/// ConstrainedCost as `cost` with empty I/X is also valid — that is exactly
/// what the MinTriang wrapper does.)
class MinTriangSolver {
 public:
  MinTriangSolver(const TriangulationContext& ctx, const BagCost& cost);

  /// The clique tree of a minimum-κ[I,X] minimal triangulation of the
  /// context's graph, or std::nullopt when no finite-cost triangulation
  /// satisfies [I,X] (or the width bound of a bounded context). The filled
  /// graph is left to callers that hand the result out (Saturate).
  /// `include_ids` / `exclude_ids` are sorted, duplicate-free indices into
  /// ctx.minimal_separators(). The first call is a full DP pass; later
  /// calls repair incrementally.
  std::optional<TriangulationTree> Solve(const std::vector<int>& include_ids,
                                         const std::vector<int>& exclude_ids);

  /// Per-Solve wall-clock budget, polled inside the repair/full-pass
  /// candidate loops (a pathological cascade must not blow a per-query
  /// budget the surrounding enumerators honor) and, as ThreadDeadline(), by
  /// bag scores too deep to take it (the exact edge cover). Nullptr (the
  /// default) disables polling; the pointee must outlive the solver or the
  /// next set_deadline call. When the deadline expires mid-solve the call
  /// returns std::nullopt, truncated() turns true for that call, and the
  /// half-repaired tables are discarded: the next Solve runs a full pass
  /// (constraint bookkeeping stays exact, so correctness is unaffected).
  void set_deadline(const Deadline* deadline) { deadline_ = deadline; }

  /// True when the *last* Solve call gave up on an expired deadline (its
  /// std::nullopt then means "out of time", not "infeasible").
  bool truncated() const { return truncated_; }

  /// Candidate evaluations so far — the repair's breadth measure (a full
  /// pass evaluates every unblocked candidate). Blocked candidates are set
  /// to ∞ without an evaluation.
  long long num_candidate_evals() const { return num_candidate_evals_; }

  /// Evaluations that reached the base cost's Combine — the expensive part
  /// of a candidate evaluation. Blocked candidates never get this far (the
  /// blocked bits are the constraint test), and a candidate with an
  /// infeasible child short-circuits to ∞ before it.
  long long num_combine_calls() const { return num_combine_calls_; }

  /// Segment-tree point updates: one per newly-blocked finite candidate and
  /// one per re-evaluation whose value moved. A re-evaluation that lands on
  /// the cached value costs none.
  long long num_index_updates() const { return num_index_updates_; }

  /// Range-min queries that re-picked a block optimum.
  long long num_range_queries() const { return num_range_queries_; }

  /// Number of (block, Ω) candidates in the DP (root included).
  size_t num_candidates_total() const { return cand_node_.size(); }

 private:
  // Node ids: 0..B-1 are the context's blocks (ascending order), B is the
  // root pseudo-block (S = ∅, S∪C = V, candidates = all usable PMCs).
  int Root() const { return static_cast<int>(ctx_.blocks().size()); }
  const std::vector<int>& Candidates(int node) const {
    return node == Root() ? ctx_.root_candidates()
                          : ctx_.blocks()[node].candidate_pmcs;
  }
  const std::vector<std::vector<int>>& Children(int node) const {
    return node == Root() ? ctx_.root_children()
                          : ctx_.blocks()[node].children;
  }
  const VertexSet& NodeSeparator(int node) const {
    return node == Root() ? empty_separator_
                          : ctx_.blocks()[node].separator;
  }
  const VertexSet& NodeVertices(int node) const {
    return node == Root() ? all_vertices_ : ctx_.blocks()[node].vertices;
  }

  // Flat id of candidate k of `node`, and whether the current [I, X]
  // blocks it.
  int FlatId(int node, int k) const { return cand_offset_[node] + k; }
  bool BlockedId(int id) const {
    return (blocked_[id >> 6] >> (id & 63)) & 1;
  }
  bool Blocked(int node, int k) const { return BlockedId(FlatId(node, k)); }

  // The index of separator sep_id's exclusion row, or of its inclusion
  // row; both are built on first use.
  size_t Row(int sep_id, bool inclusion);

  // Builds the row index (and host_cands_) on the first row, so a one-shot
  // full pass never pays for it.
  void BuildRowIndex();

  // Brings one side's accumulator (inc_ or exc_) from the rows of
  // `*current` to the rows of `ids`, and stores `ids` in `*current`.
  void FoldSide(const std::vector<int>& ids, bool inclusion,
                std::vector<int>* current, std::vector<uint64_t>* acc);

  // Sets blocked_ to inc_ | exc_. Unless `full`, a newly blocked finite
  // candidate is forced to ∞ (its node goes on the worklist) and a newly
  // unblocked one is marked dirty.
  void UpdateBlocked(bool full);

  // Stamps (node, k) dirty for this epoch (idempotent): appends k to the
  // node's dirty list and puts the node on the worklist.
  void MarkDirty(int node, int k) {
    uint32_t& stamp = cand_dirty_[FlatId(node, k)];
    if (stamp == epoch_) return;
    stamp = epoch_;
    dirty_list_[node].push_back(k);
    Activate(node);
  }

  // Puts `node` on the worklist.
  void Activate(int node) {
    worklist_[node >> 6] |= uint64_t{1} << (node & 63);
  }

  // Empties the worklist and the dirty lists of the nodes on it.
  void ClearWorklist();

  // Deadline poll (rate-limited to one clock read per 64 ticks). Returns
  // true — and latches truncated_ — once the budget is gone.
  bool PollDeadline();

  // The table-repair forward pass (root last): every node on a full pass,
  // otherwise only the nodes on the worklist.
  void Repair(bool full);

  // Re-picks `node`'s optimum from its tree and, when its value changed and
  // `cascade` is set, dirties its unblocked hosts.
  void Repick(int node, bool cascade);

  // Evaluates candidate k of `node` from its children's values (∞ when a
  // child is infeasible). Callers only pass unblocked candidates.
  CostValue EvalCandidate(int node, size_t k);

  // Builds the clique tree from the solved tables (Appendix A: one bag per
  // block, rooted at Ω(G)).
  TriangulationTree Reconstruct();

  const TriangulationContext& ctx_;
  const BagCost& cost_;
  VertexSet empty_separator_;
  VertexSet all_vertices_;

  // Builds host_cands_, deferred to the first incremental solve (a one-shot
  // full pass never needs the reverse edges).
  void BuildHosts();

  // DP tables, persisted across Solve calls.
  std::vector<CostValue> value_;
  std::vector<int> choice_;
  // Per-node range-min tree whose leaves are the node's candidate values
  // (built by the first full pass, point-updated by repairs).
  std::vector<RangeMinTree> cand_trees_;
  // host_cands_[b]: the exact (host node, flat candidate id) pairs with
  // block b among the candidate's children — the candidate-granular reverse
  // edges a repair dirties directly (no per-candidate child scan), and the
  // candidates an inclusion row drops for a block ⊇ S.
  std::vector<std::vector<std::pair<int, int>>> host_cands_;
  bool hosts_built_ = false;

  // Flat candidate numbering: node `n`'s candidates are the ids
  // [cand_offset_[n], cand_offset_[n + 1]), and cand_node_[id] is the node.
  std::vector<int> cand_offset_;
  std::vector<int> cand_node_;
  size_t num_words_ = 0;  // words per bit row over the flat ids

  // Per-separator bit rows, built lazily (memory is bounded by the
  // separators the enumeration actually constrains) and stored by their
  // non-zero words: row r is the words row_bits_[i] at word index
  // row_word_[i], for i in [row_begin_[r], row_begin_[r + 1]). A large
  // context's rows are mostly zero words. row_slot_[sep_id] is -1 until
  // built; slot i holds rows 2i (exclusion) and 2i + 1 (inclusion).
  std::vector<int> row_slot_;
  std::vector<size_t> row_begin_{0};
  std::vector<uint32_t> row_word_;
  std::vector<uint64_t> row_bits_;
  std::vector<uint64_t> row_scratch_;  // two dense rows, zero between uses

  // The row index. vertex_nodes_ holds one row of node_words_ words per
  // vertex v, the nodes whose vertex set holds v (the root in every row);
  // vertex_pmcs_ likewise the PMCs that hold v. PMC p's flat candidate ids
  // are pmc_cand_ids_[pmc_cand_begin_[p] .. pmc_cand_begin_[p + 1]).
  size_t node_words_ = 0;
  size_t pmc_words_ = 0;
  std::vector<uint64_t> vertex_nodes_;
  std::vector<uint64_t> vertex_pmcs_;
  std::vector<int> pmc_cand_begin_;
  std::vector<int> pmc_cand_ids_;
  // Row() scratch: the nodes and the PMCs ⊇ S.
  std::vector<uint64_t> containing_nodes_;
  std::vector<uint64_t> containing_pmcs_;

  // Current constraint state: the sorted separator ids, each side's OR of
  // rows, and the blocked set inc_ | exc_.
  std::vector<int> include_ids_;
  std::vector<int> exclude_ids_;
  std::vector<uint64_t> inc_;
  std::vector<uint64_t> exc_;
  std::vector<uint64_t> blocked_;
  std::vector<int> added_ids_;  // FoldSide scratch
  bool solved_once_ = false;

  // Epoch-stamped dirtiness (a stamp equal to epoch_ means "this solve").
  uint32_t epoch_ = 0;
  std::vector<uint32_t> cand_dirty_;  // by flat id
  // Each node's dirty candidates, and the worklist — one bit per node
  // holding a dirty or newly-blocked candidate.
  std::vector<std::vector<int>> dirty_list_;
  std::vector<uint64_t> worklist_;

  const Deadline* deadline_ = nullptr;
  bool truncated_ = false;
  uint32_t poll_tick_ = 0;

  // Reused scratch.
  std::vector<const VertexSet*> child_blocks_buf_;
  std::vector<CostValue> child_costs_buf_;
  std::vector<CostValue> full_pass_values_;  // one node's values, Repair(full)
  // Reconstruct() scratch: the DFS stack and the adhesion list are members
  // so the per-result reconstructions of a ranked enumeration (hundreds of
  // Solve calls on one solver) stop re-growing them from scratch — part of
  // the same no-hot-loop-allocations policy as the buffers above. The
  // adhesion list points into the context's block entries, so sorting it
  // moves pointers, not sets. The sets *returned* to the caller still get
  // fresh storage (the Triangulation owns its data).
  struct ReconstructFrame {
    int block_id;
    int parent_bag;
  };
  std::vector<ReconstructFrame> reconstruct_stack_;
  std::vector<const VertexSet*> reconstruct_seps_;

  long long num_candidate_evals_ = 0;
  long long num_combine_calls_ = 0;
  long long num_index_updates_ = 0;
  long long num_range_queries_ = 0;
};

}  // namespace mintri

#endif  // MINTRI_TRIANG_MIN_TRIANG_SOLVER_H_
