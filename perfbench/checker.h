#ifndef MINTRI_PERFBENCH_CHECKER_H_
#define MINTRI_PERFBENCH_CHECKER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cost/bag_cost.h"
#include "enumeration/tiered_enum.h"

namespace perfbench {

/// What the enumerator reported about a stream, for the tier-label check.
struct StreamFacts {
  mintri::SolveTier tier = mintri::SolveTier::kExact;
  /// Tier 0 changed the unit structure (removed a vertex or split a
  /// component into several atoms).
  bool lifted = false;
  /// Some unit's exact attempt hit (or never got) the Tier-1 budget.
  bool degraded = false;
};

/// Time spent re-evaluating κ, reported as the cost layer's Evaluate cost.
struct CheckStats {
  long long evaluations = 0;
  double evaluate_seconds = 0;
};

/// Checks one ranked stream of `g` under `cost`, outside any timed region:
///  - every result is a minimal triangulation of g;
///  - its reported κ equals cost.Evaluate(g, bags);
///  - κ is non-decreasing on exact / atom-exact streams;
///  - no fill set repeats;
///  - every result carries the stream's tier, and that tier matches what
///    the enumerator did (heuristic iff degraded, atom-exact iff lifted);
///  - when `optimum` is given (a direct context built), the first κ equals
///    it on exact / atom-exact streams.
/// Returns one message per violation; empty means the stream is correct.
std::vector<std::string> CheckStream(
    const mintri::Graph& g, const mintri::BagCost& cost,
    const StreamFacts& facts, const std::vector<mintri::TieredResult>& results,
    std::optional<mintri::CostValue> optimum, CheckStats* stats);

/// The same predicate as mintri::IsMinimalTriangulation, in O(fill * n)
/// word operations instead of O(fill * m) graph rebuilds: h is minimal iff
/// it triangulates g and no single fill edge can be dropped
/// (Rose-Tarjan-Lueker), and for chordal h, h - uv is chordal iff the common
/// neighbourhood of u and v is a clique.
bool IsMinimalByCommonNeighbourhoods(const mintri::Graph& g,
                                     const mintri::Graph& h);

/// The from-scratch optimum: MinTriang over a direct context of the whole
/// (connected) graph, or nullopt when g is disconnected or the context does
/// not build within `time_limit` seconds.
std::optional<mintri::CostValue> DirectOptimum(const mintri::Graph& g,
                                               const mintri::BagCost& cost,
                                               double time_limit);

/// A 64-bit digest of a stream (fill sets, κ and tier labels, in order). A
/// repeat of an instance whose stream was fully checked is accepted when its
/// digest matches; otherwise it is checked again in full.
uint64_t StreamDigest(const mintri::Graph& g,
                      const std::vector<mintri::TieredResult>& results);

}  // namespace perfbench

#endif  // MINTRI_PERFBENCH_CHECKER_H_
