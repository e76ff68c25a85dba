#include "checker.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <set>

#include "chordal/minimality.h"
#include "triang/context.h"
#include "triang/min_triang.h"

namespace perfbench {

namespace {

using mintri::CostValue;
using mintri::SolveTier;

bool SameCost(CostValue a, CostValue b) {
  if (a == b) return true;  // also equal infinities
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

// IsMinimalTriangulation rebuilds h once per fill edge, O(fill * m): tens
// of seconds for a pass of full streams or of PACE-scale graphs. It
// cross-checks the equivalent local test on the first results of streams
// of small graphs; the local test checks every result.
constexpr int kLibraryCheckMaxVertices = 64;
constexpr size_t kLibraryCheckResults = 32;

uint64_t Mix(uint64_t h, uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

bool IsMinimalByCommonNeighbourhoods(const mintri::Graph& g,
                                     const mintri::Graph& h) {
  if (!mintri::IsTriangulationOf(g, h)) return false;
  for (const auto& [u, v] : mintri::FillEdges(g, h)) {
    mintri::VertexSet common = h.Neighbors(u);
    common.IntersectWith(h.Neighbors(v));
    if (h.IsClique(common)) return false;
  }
  return true;
}

std::vector<std::string> CheckStream(
    const mintri::Graph& g, const mintri::BagCost& cost,
    const StreamFacts& facts, const std::vector<mintri::TieredResult>& results,
    std::optional<CostValue> optimum, CheckStats* stats) {
  std::vector<std::string> violations;
  auto fail = [&](size_t rank, const std::string& what) {
    violations.push_back("result #" + std::to_string(rank + 1) + ": " + what);
  };
  const bool ordered = facts.tier != SolveTier::kHeuristic;

  if (facts.degraded != (facts.tier == SolveTier::kHeuristic)) {
    violations.push_back(std::string("stream labelled ") +
                         mintri::TierName(facts.tier) +
                         (facts.degraded ? " although a unit degraded"
                                         : " although no unit degraded"));
  } else if (!facts.degraded &&
             facts.lifted != (facts.tier == SolveTier::kAtomExact)) {
    violations.push_back(std::string("stream labelled ") +
                         mintri::TierName(facts.tier) +
                         (facts.lifted ? " although Tier 0 lifted it"
                                       : " although Tier 0 left it whole"));
  }

  std::set<std::vector<std::pair<int, int>>> seen;
  for (size_t i = 0; i < results.size(); ++i) {
    const mintri::Triangulation& t = results[i].triangulation;
    if (results[i].tier != facts.tier) {
      fail(i, std::string("tier ") + mintri::TierName(results[i].tier) +
                  " in a " + mintri::TierName(facts.tier) + " stream");
    }
    bool minimal = IsMinimalByCommonNeighbourhoods(g, t.filled);
    if (g.NumVertices() <= kLibraryCheckMaxVertices &&
        i < kLibraryCheckResults &&
        mintri::IsMinimalTriangulation(g, t.filled) != minimal) {
      fail(i, "the minimality tests disagree");
      minimal = false;
    }
    if (!minimal) fail(i, "not a minimal triangulation");
    const auto start = std::chrono::steady_clock::now();
    const CostValue actual = cost.Evaluate(g, t.bags);
    stats->evaluate_seconds += std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
    ++stats->evaluations;
    if (!SameCost(actual, t.cost)) {
      fail(i, "reported cost " + std::to_string(t.cost) + " but evaluates to " +
                  std::to_string(actual));
    }
    if (ordered && i > 0 &&
        t.cost < results[i - 1].triangulation.cost &&
        !SameCost(t.cost, results[i - 1].triangulation.cost)) {
      fail(i, "cost decreased in an ordered stream");
    }
    if (!seen.insert(t.FillEdgesSorted(g)).second) {
      fail(i, "fill set repeats an earlier result");
    }
  }
  if (ordered && optimum.has_value() && !results.empty() &&
      !SameCost(*optimum, results[0].triangulation.cost)) {
    violations.push_back("first cost " +
                         std::to_string(results[0].triangulation.cost) +
                         " but MinTriang gives " + std::to_string(*optimum));
  }
  return violations;
}

std::optional<CostValue> DirectOptimum(const mintri::Graph& g,
                                       const mintri::BagCost& cost,
                                       double time_limit) {
  if (g.NumVertices() == 0 || !g.IsConnected()) return std::nullopt;
  mintri::ContextOptions options;
  options.separator_limits.time_limit_seconds = time_limit;
  options.pmc_limits.time_limit_seconds = time_limit;
  auto ctx = mintri::TriangulationContext::Build(g, options);
  if (!ctx.has_value()) return std::nullopt;
  auto t = mintri::MinTriang(*ctx, cost);
  if (!t.has_value()) return std::nullopt;
  return t->cost;
}

uint64_t StreamDigest(const mintri::Graph& g,
                      const std::vector<mintri::TieredResult>& results) {
  uint64_t h = results.size();
  for (const mintri::TieredResult& r : results) {
    h = Mix(h, static_cast<uint64_t>(r.tier));
    h = Mix(h, std::hash<double>()(r.triangulation.cost));
    for (const auto& [u, v] : r.triangulation.FillEdgesSorted(g)) {
      h = Mix(h, (static_cast<uint64_t>(u) << 32) | static_cast<uint32_t>(v));
    }
  }
  return h;
}

}  // namespace perfbench
