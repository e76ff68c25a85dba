#ifndef MINTRI_ENUMERATION_RUN_STATS_H_
#define MINTRI_ENUMERATION_RUN_STATS_H_

#include <ostream>

#include "cost/bag_score_cache.h"
#include "preprocess/preprocess.h"
#include "triang/context.h"

namespace mintri {

/// One query's telemetry with one schema: what `mintri rank --stats`, every
/// batch record, `batch --stats`/`--stats-json` and the bench entries read.
/// The exact attempts and the heuristic family builds are kept apart, so an
/// abandoned exact build's separators and ms-/pmc-terminated tallies (the
/// Fig. 5 taxonomy) never mix with the family that answered instead.
struct RunStats {
  /// Tier 0, summed over the components it ran on.
  PreprocessInfo preprocess;
  /// Tier-1 exact context builds, abandoned attempts included. A unit the
  /// spent exact budget skipped counts as an ms-terminated build of 0 s.
  ContextBuildInfo exact;
  /// Tier-2 restricted-family builds. Their total_seconds also covers the
  /// LB-Triang seeding that picks the family, which no stage field holds.
  ContextBuildInfo heuristic;
  /// MinTriangSolver work, summed over the unit enumerators.
  long long optimizer_calls = 0;
  long long candidate_evals = 0;
  long long combine_calls = 0;
  long long index_updates = 0;
  long long range_queries = 0;
  /// The query's bag-score cache (zeros when its cost runs none).
  BagScoreCache::Stats cache;

  /// Adds another run in (the batch aggregate): every timer and counter
  /// sums; the atom sizes follow PreprocessInfo::Accumulate.
  void Accumulate(const RunStats& other);
};

/// Writes `stats` as one JSON object, without a trailing newline.
void WriteRunStatsJson(const RunStats& stats, std::ostream& out);

}  // namespace mintri

#endif  // MINTRI_ENUMERATION_RUN_STATS_H_
