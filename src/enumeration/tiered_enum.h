#ifndef MINTRI_ENUMERATION_TIERED_ENUM_H_
#define MINTRI_ENUMERATION_TIERED_ENUM_H_

#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "cost/bag_cost.h"
#include "enumeration/ranked_enum.h"
#include "enumeration/run_stats.h"
#include "preprocess/preprocess.h"

namespace mintri {

/// Carries no settings: MinTriangSolver has a single repair path. The empty
/// struct and TieredEnumerator's parameter for it remain only because
/// perfbench/main.cc passes `mintri::SolverOptions{}`; drop both together.
struct SolverOptions {};

/// Which tier of the solve pipeline answered.
///  - kExact:     the classic full enumeration (complete ranked stream).
///  - kAtomExact: Tier 0 reduced/decomposed the graph and every atom was
///                solved exactly — the stream is still the complete set of
///                minimal triangulations in non-decreasing κ order (ties may
///                interleave differently than the direct path).
///  - kHeuristic: at least one atom fell back to the LB-Triang-seeded
///                restricted family — every result is still a genuine
///                minimal triangulation with its true κ, but the stream may
///                be incomplete and κ positions are not globally optimal.
enum class SolveTier { kExact, kAtomExact, kHeuristic };

const char* TierName(SolveTier tier);

/// True for registry costs whose global value is a monotone function of the
/// per-atom values under clique-separator gluing and simplicial lifting —
/// the soundness gate for Tier-0 reduction/decomposition: width, fill,
/// hypertree, fhw. Not width-then-fill (its encoded multiplier is a
/// whole-graph quantity) and not state-space (an atom bag subsumed by an
/// elimination bag can invert the product order).
bool IsTierDecomposableCost(const std::string& cost_name);

struct TierOptions {
  enum class Mode {
    kExact,      // units = connected components, no Tier 0, no fallback
    kAuto,       // try exact per atom, degrade to the heuristic family
    kHeuristic,  // skip exact attempts entirely
  };
  Mode mode = Mode::kAuto;

  /// Set by the caller per cost (see IsTierDecomposableCost). When true,
  /// Tier 0 (the stream-safe Preprocess reductions) runs per component;
  /// when false it is skipped and the units are exactly the connected
  /// components.
  bool decomposable_cost = false;

  /// Shared wall-clock budget across all per-unit *exact* build attempts
  /// (Tier 1). Once spent, remaining units go straight to Tier 2 and are
  /// tallied as ms-terminated attempts. Infinite disables the gate (each
  /// build still honors the per-stage ContextOptions limits).
  double exact_budget_seconds = std::numeric_limits<double>::infinity();

  /// The query's wall-clock deadline (null: none; must outlive the
  /// enumerator). Every construction stage honours it: Tier 0, each unit's
  /// context build (ContextOptions::deadline), and each unit's first solve.
  /// No stage starts once it has expired. A cut construction leaves
  /// init_ok() false and truncated() true; afterwards the unit solvers keep
  /// polling it, as after SetDeadline.
  const Deadline* deadline = nullptr;
};

struct TieredResult {
  Triangulation triangulation;
  SolveTier tier;
};

/// The tiered solve pipeline and the repo's only multi-unit enumerator:
/// Tier 0 (simplicial reduction + clique-minimal-separator atom
/// decomposition), Tier 1 (the exact ranked stack per unit), Tier 2
/// (LB-Triang-seeded restricted-family enumeration when an atom exceeds its
/// MinSep/PMC budget). Deterministic and byte-identical at every thread
/// count.
///
/// The per-unit streams are recombined as a *ranked product*: a minimal
/// triangulation of the whole graph is an independent choice of one per
/// unit, so a priority queue over index vectors (i_1, ..., i_k) lazily
/// materializes each unit's ranked list. The composed cost is monotone in
/// every coordinate (split-monotone bag costs are), so the product order is
/// correct. In Mode::kExact the units are exactly the connected components,
/// each built with the caller's ContextOptions as given; Mode::kAuto with no
/// reduction/decomposition/fallback has the same units and replays that
/// stream byte-for-byte.
///
/// Each emitted result is assembled once, from the clique trees the units
/// hand back (they never build a filled graph): the component trees side by
/// side, or, once Tier 0 has rewritten the graph, the atom trees glued along
/// each component's atom tree with the eliminated vertices' bags
/// re-attached. Only then is g saturated, once per result.
class TieredEnumerator {
 public:
  TieredEnumerator(const Graph& g, const BagCost& cost,
                   CostComposition composition,
                   const ContextOptions& options = {},
                   const SolverOptions& /*unused*/ = {},
                   const TierOptions& tier_options = {});

  /// False in Mode::kExact when a component's build hit its limits, and in
  /// every mode when TierOptions::deadline cut construction (truncated()
  /// then says so). Construction stops there and Next() yields nothing; the
  /// auto/heuristic modes otherwise always have Tier 2 to fall back on.
  bool init_ok() const { return init_ok_; }

  /// Per-enumeration wall-clock budget, forwarded to every unit enumerator
  /// and polled by the result assembly's cost evaluation.
  void SetDeadline(const Deadline* deadline);

  /// True when a deadline cut construction or some unit's stream short. A
  /// truncated stream stays truncated: Next() yields nothing more, since
  /// the product could no longer promise its order.
  bool truncated() const { return truncated_; }

  /// The run so far: Tier 0, the exact attempts and the heuristic family
  /// builds apart, and the solver counters summed over the units. The
  /// cache counters are left to the caller, which owns the cost model.
  RunStats stats() const;

  // Views of stats() that perfbench reads.
  /// The exact and heuristic builds accumulated.
  ContextBuildInfo init_info() const;
  double init_seconds() const {
    return stats_.exact.total_seconds + stats_.heuristic.total_seconds;
  }
  const PreprocessInfo& preprocess_info() const { return stats_.preprocess; }
  double tier1_seconds() const { return stats_.exact.total_seconds; }
  long long num_optimizer_calls() const { return stats().optimizer_calls; }
  long long num_candidate_evals() const { return stats().candidate_evals; }
  long long num_combine_calls() const { return stats().combine_calls; }

  /// The truthful label of the stream (and of every result it emits).
  SolveTier tier() const { return tier_; }

  /// The next-cheapest minimal triangulation (original vertex ids) with its
  /// tier label. Heuristic streams are non-decreasing in κ within the
  /// restricted family; exact/atom-exact streams are complete.
  std::optional<TieredResult> Next();

 private:
  /// One solve unit: an atom of some connected component (or the component
  /// itself when Tier 0 is off / found nothing to split).
  struct Unit {
    std::vector<int> old_of_new;  // unit labels -> g labels
    std::unique_ptr<BagCost> restricted_cost;
    std::unique_ptr<TriangulationContext> context;
    std::unique_ptr<RankedTriangulationEnumerator> enumerator;
    std::vector<TriangulationTree> produced;  // memoized ranked prefix
    bool exhausted = false;
    SolveTier tier = SolveTier::kExact;
    /// Lifted mode: the unit this atom hangs under in its component's atom
    /// tree (-1 for the component's root atom), and the two atoms'
    /// intersection, a clique separator of g (g labels).
    int atom_parent = -1;
    VertexSet glue;
  };

  /// A Tier-0-eliminated vertex v (g labels): N(v) and N[v] at elimination
  /// time. N[v] is a maximal clique of every assembled triangulation.
  struct LiftBag {
    VertexSet neighbors;
    VertexSet bag;
  };

  /// Builds one unit (Tier 1, else Tier 2). False when construction must
  /// stop: in Mode::kExact when the exact build hit its limits and there is
  /// no fallback, and in every mode when the deadline expired (truncated_
  /// is then set).
  bool AddUnit(const Graph& sub, std::vector<int> old_of_new,
               const ContextOptions& options, const TierOptions& tier_options,
               double remaining_budget);
  /// Lifted mode: links the atoms [first, units_.size()) of one component
  /// by a maximum-weight spanning tree over |A_i ∩ A_j| (`atoms` in
  /// component labels, indexed from `first`).
  void BuildAtomTree(size_t first, const std::vector<VertexSet>& atoms,
                     const std::vector<int>& comp_old_of_new);
  /// True (and construction stops: init_ok_ false, truncated_ true) once
  /// the deadline has expired.
  bool CutByDeadline();
  bool Materialize(int unit, size_t i);
  CostValue Compose(const std::vector<size_t>& indices) const;
  Triangulation Assemble(const std::vector<size_t>& indices);

  const Graph& g_;
  const BagCost& cost_;
  CostComposition composition_;
  const Deadline* deadline_ = nullptr;
  bool init_ok_ = true;
  bool truncated_ = false;
  /// True once Tier 0 changed the unit structure (eliminated a vertex or
  /// split a component); selects the gluing assembly path.
  bool lifted_ = false;
  SolveTier tier_ = SolveTier::kExact;
  /// Everything of stats() but the solver counters.
  RunStats stats_;
  /// Tier-0-eliminated vertices, in elimination order.
  std::vector<LiftBag> lift_bags_;
  std::vector<Unit> units_;

  struct QueueEntry {
    CostValue cost;
    std::vector<size_t> indices;
    bool operator>(const QueueEntry& other) const {
      if (cost != other.cost) return cost > other.cost;
      return indices > other.indices;
    }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue_;
};

}  // namespace mintri

#endif  // MINTRI_ENUMERATION_TIERED_ENUM_H_
