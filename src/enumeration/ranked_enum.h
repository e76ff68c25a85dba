#ifndef MINTRI_ENUMERATION_RANKED_ENUM_H_
#define MINTRI_ENUMERATION_RANKED_ENUM_H_

#include <optional>
#include <queue>
#include <vector>

#include "cost/bag_cost.h"
#include "triang/context.h"
#include "triang/min_triang_solver.h"

namespace mintri {

/// RankedTriang⟨κ⟩(G) — Figure 4 of the paper. Enumerates the minimal
/// triangulations of the context's graph by increasing κ, with polynomial
/// delay when the context is poly-MS-feasible (Theorem 6.4 / Corollary 6.5),
/// via Lawler–Murty partitioning over sets of minimal separators:
///
///  - each partition is an inclusion/exclusion constraint [I, X] over
///    MinSep(G), represented in the queue by its minimum-cost member;
///  - popping ⟨H, I, X⟩ prints H and splits the remainder of [I, X] by the
///    separators S_1..S_k of MinSep(H) \ I into partitions
///    [I ∪ {S_1..S_{i-1}}, X ∪ {S_i}] for i = 1..k (the paper's Figure 4
///    writes "i = 1..k-1", but the k-th partition — triangulations that
///    contain S_1..S_{k-1} and avoid S_k — can be non-empty, e.g. on the
///    4-cycle, so we generate all k);
///  - each partition's representative comes from the shared MinTriangSolver
///    under κ[I_i, X_i]: sibling partitions differ by O(1) separators, so
///    each of the k optimizer calls per output is an incremental DP repair,
///    not a full pass (Section 7.1's amortization, extended from the
///    initialization to the per-result work).
///
/// Constraint sets are not copied per queue entry: the Lawler–Murty tree is
/// materialized once in a node arena (each node = one separator moved into
/// I or X, plus a parent link), and entries store a single node index.
/// Sibling partitions share their common include-prefix nodes.
///
/// Pull-based: Next() returns the next-cheapest minimal triangulation, or
/// std::nullopt when the enumeration is exhausted, so callers can stop at
/// any time (the "anytime" usage the paper motivates). A result's expansion
/// (lines 7-13) is the work only the *later* results need, so it runs when
/// the next result is asked for, not before the result is handed out: the
/// first result costs the one full solve, and k results cost k − 1
/// expansions. The solver calls and queue order are the same either way.
class RankedTriangulationEnumerator {
 public:
  /// `ctx` and `cost` must outlive the enumerator. The constructor runs the
  /// first (full) solve under `deadline`, which then stays installed as by
  /// SetDeadline.
  RankedTriangulationEnumerator(const TriangulationContext& ctx,
                                const BagCost& cost,
                                const Deadline* deadline = nullptr);

  /// The next-cheapest minimal triangulation, saturated at pop time.
  std::optional<Triangulation> Next();

  /// Next() without the filled graph: the clique tree only, for callers
  /// that assemble their own result from it (TieredEnumerator's units).
  /// Each call first runs the expansion of the result the previous call
  /// returned, then pops the cheapest queued partition and returns its
  /// representative; that result's own expansion waits for the next call.
  ///
  /// This is also the ranked enumeration of proper tree decompositions
  /// (Proposition 6.1): CliqueTreeOf(tree) (tree_decomposition.h) is the
  /// proper tree decomposition of each result, by increasing cost. Bag costs
  /// give every clique tree of one triangulation the same cost, so the
  /// canonical clique tree is a legitimate ranked representative.
  std::optional<TriangulationTree> NextTree();

  /// Per-enumeration wall-clock budget, polled by the solver inside its
  /// repair loops. When it expires during the expansion a Next() call
  /// starts with, that call and every later one yield std::nullopt and
  /// truncated() turns true (the remaining stream can no longer be
  /// guaranteed complete or in order). Result i is thus handed out iff
  /// expansions 0..i−1 completed; every result handed out is correct.
  /// Nullptr disables.
  void SetDeadline(const Deadline* deadline) { solver_.set_deadline(deadline); }

  /// True when a deadline cut the enumeration short (the stream ended by
  /// budget, not by exhaustion).
  bool truncated() const { return truncated_; }

  /// Number of (constrained) optimizer invocations so far (for the
  /// experiment harness).
  long long num_optimizer_calls() const { return num_optimizer_calls_; }

  /// Candidate evaluations performed by the underlying solver — divide by
  /// num_optimizer_calls() to see the incremental repair at work (a full
  /// DP pass would evaluate every candidate each call).
  long long num_candidate_evals() const {
    return solver_.num_candidate_evals();
  }
  /// Evaluations that reached the (expensive) base Combine; the rest
  /// short-circuited on a constraint violation or infeasible child.
  long long num_combine_calls() const { return solver_.num_combine_calls(); }
  /// The solver's segment-tree repair counters (point updates and range-min
  /// queries).
  long long num_index_updates() const { return solver_.num_index_updates(); }
  long long num_range_queries() const { return solver_.num_range_queries(); }

 private:
  /// One separator moved into I (is_include) or X (!is_include), chained to
  /// the parent constraint set. -1 parents terminate at [∅, ∅].
  struct ConstraintNode {
    int sep_id;
    int parent;
    bool is_include;
  };
  struct Entry {
    CostValue cost;
    long long sequence;  // tie-break for deterministic order
    TriangulationTree tree;
    int constraints;  // index into arena_, -1 for [∅, ∅]
  };
  struct EntryCompare {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.cost != b.cost) return a.cost > b.cost;  // min-heap
      return a.sequence > b.sequence;
    }
  };

  void Push(TriangulationTree t, int constraints);
  /// Runs the pending expansion: one solve per free separator of the last
  /// popped result, pushing each feasible partition's representative.
  void Expand();
  /// Decodes a constraint chain into sorted include/exclude id sets.
  void CollectConstraints(int node, std::vector<int>* include,
                          std::vector<int>* exclude) const;

  const TriangulationContext& ctx_;
  MinTriangSolver solver_;
  std::vector<ConstraintNode> arena_;
  std::priority_queue<Entry, std::vector<Entry>, EntryCompare> queue_;
  long long sequence_ = 0;
  long long num_optimizer_calls_ = 0;
  bool exhausted_ = false;
  bool truncated_ = false;
  // The expansion of the last popped result, run by the next NextTree():
  // its constraint chain, its sorted [I, X] ids and its free separators
  // MinSep(H) \ I. Kept across results so the per-result expansion does
  // not re-grow four vectors from empty.
  bool expansion_pending_ = false;
  int pending_chain_ = -1;
  std::vector<int> include_, exclude_, h_seps_, free_seps_;
};

}  // namespace mintri

#endif  // MINTRI_ENUMERATION_RANKED_ENUM_H_
