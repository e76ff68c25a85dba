#include "triang/context.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "parallel/thread_pool.h"
#include "separators/blocks.h"
#include "util/timer.h"

namespace mintri {

namespace {

// Below this many PMCs the Step-4 sweep is too cheap to amortize a fork-join,
// so it stays serial even when more threads were requested.
constexpr size_t kMinParallelWiring = 64;

// Everything Step 4 derives from one PMC Ω: its associated blocks in G
// (its children at the root) and, for each distinct associated separator S,
// the host block (S, C*) plus Ω's children inside the realization R(S, C*).
// Computed independently per PMC (serially or on worker threads) and merged
// in ascending-PMC order, so the wiring is identical at every thread count.
struct PmcWiring {
  bool usable = false;
  std::vector<int> assoc_ids;
  // (host block id, child block ids), ascending by associated separator id;
  // minseps_ is sorted, so separator-id order equals VertexSet order.
  std::vector<std::pair<int, std::vector<int>>> hosts;
};

// Clamps a MinSep/PMC stage's time limit to what is left of `deadline`.
void ClampToDeadline(const Deadline* deadline, EnumerationLimits* limits) {
  if (deadline == nullptr) return;
  limits->time_limit_seconds =
      std::min(limits->time_limit_seconds, deadline->RemainingSeconds());
}

}  // namespace

bool TriangulationContext::BuildBlocksAndWiring(TriangulationContext* ctx,
                                                bool allow_partial,
                                                int num_threads,
                                                const Deadline* deadline,
                                                ContextBuildInfo* bi) {
  const Graph& g = ctx->graph_;
  WallTimer stage_timer;

  // Step 3: full blocks, ascending by |S ∪ C| so that the DP sees children
  // before parents (children blocks are strictly smaller).
  ctx->blocks_.clear();
  std::vector<Block> full_blocks = AllFullBlocks(g, ctx->minseps_, deadline);
  if (IsExpired(deadline)) return false;
  for (Block& b : full_blocks) {
    BlockEntry e;
    e.separator = std::move(b.separator);
    e.component = std::move(b.component);
    e.vertices = std::move(b.vertices);
    ctx->blocks_.push_back(std::move(e));
  }
  std::sort(ctx->blocks_.begin(), ctx->blocks_.end(),
            [](const BlockEntry& a, const BlockEntry& b) {
              int ca = a.vertices.Count(), cb = b.vertices.Count();
              if (ca != cb) return ca < cb;
              return a.component < b.component;
            });
  for (const BlockEntry& b : ctx->blocks_) {
    ctx->block_index_.Insert(b.component);
  }
  // Separator id per block, so the wiring sweep dedups on ints.
  std::vector<int> sep_id_of_block(ctx->blocks_.size());
  for (size_t i = 0; i < ctx->blocks_.size(); ++i) {
    sep_id_of_block[i] =
        ctx->separator_index_.Find(ctx->blocks_[i].separator);
    assert(sep_id_of_block[i] >= 0);
  }
  bi->blocks_seconds = stage_timer.Seconds();
  bi->num_blocks = ctx->blocks_.size();

  // Step 4: DP wiring. For each PMC Ω:
  //  - its associated blocks in G (components of G \ Ω with their
  //    neighborhoods) are the children of Ω at the root;
  //  - for each associated minimal separator S of Ω, the block (S, C*) where
  //    C* ⊇ Ω \ S is a full block with S ⊂ Ω ⊆ S ∪ C*, and Ω's children
  //    inside R(S, C*) are the associated blocks whose component lies in C*.
  // Each PMC's wiring only reads the frozen Step-1..3 tables, so the sweep
  // forks over the PMCs.
  stage_timer.Reset();
  std::vector<PmcWiring> wiring(ctx->pmcs_.size());

  const auto wire_one = [&](size_t pi, ComponentScanner& scanner,
                            std::vector<int>& sep_scratch) {
    const VertexSet& omega = ctx->pmcs_[pi];
    PmcWiring& w = wiring[pi];

    // Associated blocks of Ω in G. Every (N(C), C) with C a component of
    // G \ Ω is a full block (Section 5.1), so the lookup can only fail when
    // a block's separator was never materialized: in the bounded-width
    // context (over-bound separator) or in a restricted-family context
    // (separator outside the family) — then Ω is unusable and skipped.
    bool missing = false;
    scanner.ForEachComponentWhile(
        g, omega, [&](const VertexSet& c, const VertexSet&) {
          int bid = ctx->block_index_.Find(c);
          if (bid < 0) {
            missing = true;
            return false;
          }
          w.assoc_ids.push_back(bid);
          return true;
        });
    if (missing) {
      assert(allow_partial);
      (void)allow_partial;
      w.assoc_ids.clear();
      return;
    }
    w.usable = true;

    // Per-block candidacy: one host block per distinct associated separator.
    sep_scratch.clear();
    for (int bid : w.assoc_ids) sep_scratch.push_back(sep_id_of_block[bid]);
    std::sort(sep_scratch.begin(), sep_scratch.end());
    sep_scratch.erase(std::unique(sep_scratch.begin(), sep_scratch.end()),
                      sep_scratch.end());
    for (int sid : sep_scratch) {
      const VertexSet& s = ctx->minseps_[sid];
      VertexSet rest = omega.Minus(s);
      assert(!rest.Empty());  // S = Ω is impossible for a PMC
      const VertexSet& cstar = scanner.ComponentOf(g, s, rest.First());
      int host = ctx->block_index_.Find(cstar);
      if (host < 0) continue;  // partial context: block not materialized
      assert(s.IsSubsetOf(omega) &&
             omega.IsSubsetOf(ctx->blocks_[host].vertices));
      std::vector<int> kids;
      for (int bid : w.assoc_ids) {
        if (cstar.Contains(ctx->blocks_[bid].component.First())) {
          kids.push_back(bid);
        }
      }
      w.hosts.emplace_back(host, std::move(kids));
    }
  };

  const int wiring_threads =
      (num_threads > 1 && ctx->pmcs_.size() >= kMinParallelWiring)
          ? num_threads
          : 1;
  // One chunked loop at every thread count (at one thread RunOnThreads runs
  // the worker inline); the deadline is polled once per chunk of PMCs.
  constexpr size_t kChunk = 8;
  std::atomic<size_t> cursor{0};
  parallel::RunOnThreads(wiring_threads, [&](int) {
    ComponentScanner scanner;
    std::vector<int> sep_scratch;
    while (!IsExpired(deadline)) {
      size_t begin = cursor.fetch_add(kChunk, std::memory_order_relaxed);
      if (begin >= wiring.size()) break;
      size_t end = std::min(begin + kChunk, wiring.size());
      for (size_t pi = begin; pi < end; ++pi) {
        wire_one(pi, scanner, sep_scratch);
      }
    }
  });
  if (IsExpired(deadline)) return false;

  // Deterministic merge, ascending by PMC then by associated separator.
  ctx->root_candidates_.clear();
  ctx->root_children_.clear();
  for (size_t pi = 0; pi < wiring.size(); ++pi) {
    PmcWiring& w = wiring[pi];
    if (!w.usable) continue;
    ctx->root_candidates_.push_back(static_cast<int>(pi));
    ctx->root_children_.push_back(std::move(w.assoc_ids));
    for (auto& [host, kids] : w.hosts) {
      BlockEntry& block = ctx->blocks_[host];
      block.candidate_pmcs.push_back(static_cast<int>(pi));
      block.children.push_back(std::move(kids));
    }
  }
  bi->wiring_seconds = stage_timer.Seconds();
  return true;
}

std::optional<TriangulationContext> TriangulationContext::Build(
    const Graph& g, const ContextOptions& options, ContextBuildInfo* info) {
  assert(g.NumVertices() > 0 && g.IsConnected());
  WallTimer total_timer;
  WallTimer stage_timer;
  ContextBuildInfo bi;
  TriangulationContext ctx;
  ctx.graph_ = g;
  ctx.width_bound_ = options.width_bound;

  const auto finish = [&](ContextBuildInfo::Termination termination) {
    bi.termination = termination;
    bi.num_builds = 1;
    bi.num_ms_terminated =
        termination == ContextBuildInfo::Termination::kMsTerminated ? 1 : 0;
    bi.num_pmc_terminated =
        termination == ContextBuildInfo::Termination::kPmcTerminated ? 1 : 0;
    bi.total_seconds = total_timer.Seconds();
    ctx.build_info_ = bi;
    if (info != nullptr) *info = bi;
  };

  // Step 1: minimal separators (Berry et al.), possibly size-bounded. The
  // context-level num_threads knob routes the stage through the parallel
  // engine unless a per-stage limit already asked for more.
  EnumerationLimits sep_limits = options.separator_limits;
  sep_limits.num_threads = std::max(sep_limits.num_threads,
                                    options.num_threads);
  ClampToDeadline(options.deadline, &sep_limits);
  MinimalSeparatorsResult seps =
      options.width_bound >= 0
          ? ListMinimalSeparatorsBounded(g, options.width_bound, sep_limits)
          : ListMinimalSeparators(g, sep_limits);
  bi.minsep_seconds = stage_timer.Seconds();
  bi.num_minseps = seps.separators.size();
  if (seps.status != EnumerationStatus::kComplete) {
    finish(ContextBuildInfo::Termination::kMsTerminated);
    return std::nullopt;
  }
  ctx.minseps_ = std::move(seps.separators);
  std::sort(ctx.minseps_.begin(), ctx.minseps_.end());
  for (const VertexSet& s : ctx.minseps_) ctx.separator_index_.Insert(s);

  // Step 2: potential maximal cliques (Bouchitté–Todinca).
  stage_timer.Reset();
  PmcOptions pmc_options;
  pmc_options.limits = options.pmc_limits;
  pmc_options.limits.num_threads =
      std::max(pmc_options.limits.num_threads, options.num_threads);
  ClampToDeadline(options.deadline, &pmc_options.limits);
  if (options.width_bound >= 0) pmc_options.max_size = options.width_bound + 1;
  // A size-bounded list is not all of MinSep(g): the PMC engine lists it.
  const std::vector<VertexSet> enumerate;
  PmcResult pmcs = ListPotentialMaximalCliques(
      g, options.width_bound >= 0 ? enumerate : ctx.minseps_, pmc_options);
  bi.pmc_seconds = stage_timer.Seconds();
  bi.num_pmcs = pmcs.pmcs.size();
  if (pmcs.status != EnumerationStatus::kComplete) {
    finish(ContextBuildInfo::Termination::kPmcTerminated);
    return std::nullopt;
  }
  ctx.pmcs_ = std::move(pmcs.pmcs);

  // Steps 3–4: full blocks + DP wiring. In the bounded-width context a PMC
  // may reference a never-materialized over-bound block; those PMCs are
  // skipped (allow_partial) exactly as before the wiring was factored out.
  if (!BuildBlocksAndWiring(&ctx, /*allow_partial=*/options.width_bound >= 0,
                            options.num_threads, options.deadline, &bi)) {
    finish(ContextBuildInfo::Termination::kTimedOut);
    return std::nullopt;
  }

  finish(ContextBuildInfo::Termination::kCompleted);
  return ctx;
}

std::optional<TriangulationContext> TriangulationContext::BuildFromFamily(
    const Graph& g, std::vector<VertexSet> minseps,
    std::vector<VertexSet> pmcs, ContextBuildInfo* info,
    const Deadline* deadline) {
  assert(g.NumVertices() > 0 && g.IsConnected());
  WallTimer total_timer;
  WallTimer stage_timer;
  ContextBuildInfo bi;
  TriangulationContext ctx;
  ctx.graph_ = g;
  ctx.width_bound_ = -1;

  std::sort(minseps.begin(), minseps.end());
  minseps.erase(std::unique(minseps.begin(), minseps.end()), minseps.end());
  ctx.minseps_ = std::move(minseps);
  for (const VertexSet& s : ctx.minseps_) ctx.separator_index_.Insert(s);
  bi.minsep_seconds = stage_timer.Seconds();
  bi.num_minseps = ctx.minseps_.size();

  stage_timer.Reset();
  std::sort(pmcs.begin(), pmcs.end());
  pmcs.erase(std::unique(pmcs.begin(), pmcs.end()), pmcs.end());
  ctx.pmcs_ = std::move(pmcs);
  bi.pmc_seconds = stage_timer.Seconds();
  bi.num_pmcs = ctx.pmcs_.size();

  const bool built = BuildBlocksAndWiring(&ctx, /*allow_partial=*/true,
                                          /*num_threads=*/1, deadline, &bi);

  bi.termination = built ? ContextBuildInfo::Termination::kCompleted
                         : ContextBuildInfo::Termination::kTimedOut;
  bi.num_builds = 1;
  bi.total_seconds = total_timer.Seconds();
  ctx.build_info_ = bi;
  if (info != nullptr) *info = bi;
  if (!built) return std::nullopt;
  return ctx;
}

}  // namespace mintri
