#include "enumeration/run_stats.h"

namespace mintri {

namespace {

void WriteBuildJson(const char* name, const ContextBuildInfo& b,
                    std::ostream& out) {
  out << '"' << name << "\": {\"builds\": " << b.num_builds
      << ", \"ms_terminated\": " << b.num_ms_terminated
      << ", \"pmc_terminated\": " << b.num_pmc_terminated
      << ", \"seconds\": " << b.total_seconds
      << ", \"minsep_seconds\": " << b.minsep_seconds
      << ", \"pmc_seconds\": " << b.pmc_seconds
      << ", \"blocks_seconds\": " << b.blocks_seconds
      << ", \"wiring_seconds\": " << b.wiring_seconds
      << ", \"minseps\": " << b.num_minseps << ", \"pmcs\": " << b.num_pmcs
      << ", \"blocks\": " << b.num_blocks << "}";
}

}  // namespace

void RunStats::Accumulate(const RunStats& other) {
  preprocess.Accumulate(other.preprocess);
  exact.Accumulate(other.exact);
  heuristic.Accumulate(other.heuristic);
  optimizer_calls += other.optimizer_calls;
  candidate_evals += other.candidate_evals;
  combine_calls += other.combine_calls;
  index_updates += other.index_updates;
  range_queries += other.range_queries;
  cache.lookups += other.cache.lookups;
  cache.hits += other.cache.hits;
  cache.misses += other.cache.misses;
}

void WriteRunStatsJson(const RunStats& stats, std::ostream& out) {
  const PreprocessInfo& pre = stats.preprocess;
  out << "{\"preprocess\": {\"seconds\": " << pre.seconds
      << ", \"atoms\": " << pre.num_atoms
      << ", \"vertices_removed\": " << pre.vertices_removed
      << ", \"largest_atom\": " << pre.largest_atom
      << ", \"smallest_atom\": " << pre.smallest_atom << "}, ";
  WriteBuildJson("exact", stats.exact, out);
  out << ", ";
  WriteBuildJson("heuristic", stats.heuristic, out);
  out << ", \"solver\": {\"optimizer_calls\": " << stats.optimizer_calls
      << ", \"candidate_evals\": " << stats.candidate_evals
      << ", \"combine_calls\": " << stats.combine_calls
      << ", \"index_updates\": " << stats.index_updates
      << ", \"range_queries\": " << stats.range_queries
      << "}, \"cache\": {\"lookups\": " << stats.cache.lookups
      << ", \"hits\": " << stats.cache.hits
      << ", \"misses\": " << stats.cache.misses
      << ", \"hit_rate\": " << stats.cache.HitRate() << "}}";
}

}  // namespace mintri
