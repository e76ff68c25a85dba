#include "pmc/potential_maximal_cliques.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "graph/bitset_kernels.h"
#include "graph/vertex_set_pool.h"
#include "graph/vertex_set_table.h"
#include "parallel/sharded_set.h"
#include "parallel/thread_pool.h"

namespace mintri {

namespace {

// Scratch-reusing IsPmc tester. One component scan delivers every N(C)
// together with the full-component check; the cliquish test runs over a
// flattened cover bitmap ([v * words + w] instead of one heap vector per
// vertex). Keep one tester alive across candidate checks — its buffers are
// recycled — and use one tester per thread.
class PmcTester {
 public:
  bool Test(const Graph& g, const VertexSet& omega) {
    if (omega.Empty()) return false;
    const int n = g.NumVertices();

    // N(C) per component of G \ Ω, stopping early on a full component
    // (Ω would not be maximal).
    num_seps_ = 0;
    const bool no_full_component =
        scanner_.ForEachComponentWhile(
            g, omega, [&](const VertexSet&, const VertexSet& nb) {
              if (nb == omega) return false;
              if (num_seps_ < seps_.size()) {
                seps_[num_seps_] = nb;  // reuses the element's buffer
              } else {
                seps_.push_back(nb);
              }
              ++num_seps_;
              return true;
            });
    if (!no_full_component) return false;

    // Cliquish test: every non-adjacent pair within Ω must be covered by
    // some component neighborhood. cover_[v * stride + w] = bitset over
    // `seps_` containing v. Rows wide enough for the SIMD path get their
    // stride padded to a whole cache line so, with the buffer's aligned
    // base, every row the intersect kernel touches starts aligned; narrow
    // rows keep stride == words — the bitmap is re-zeroed on every IsPmc
    // call, so padding 1–2-word rows to 8 words just multiplies that
    // memset (and the cache footprint) for kernels that never dispatch.
    const size_t words = (num_seps_ + 63) / 64;
    const size_t stride =
        words < bitset::kSimdMinWords ? words : bitset::AlignWords(words);
    cover_.assign(static_cast<size_t>(n) * stride, 0);
    for (size_t i = 0; i < num_seps_; ++i) {
      seps_[i].ForEach([&](int v) {
        cover_[static_cast<size_t>(v) * stride + (i >> 6)] |=
            uint64_t{1} << (i & 63);
      });
    }
    members_.clear();
    omega.ForEach([&](int v) { members_.push_back(v); });
    for (size_t a = 0; a < members_.size(); ++a) {
      for (size_t b = a + 1; b < members_.size(); ++b) {
        const int x = members_[a], y = members_[b];
        if (g.HasEdge(x, y)) continue;
        const uint64_t* cx = cover_.data() + static_cast<size_t>(x) * stride;
        const uint64_t* cy = cover_.data() + static_cast<size_t>(y) * stride;
        if (!bitset::Intersects(cx, cy, words)) return false;
      }
    }
    return true;
  }

 private:
  ComponentScanner scanner_;
  std::vector<VertexSet> seps_;
  size_t num_seps_ = 0;
  bitset::WordVector cover_;
  std::vector<int> members_;
};

// Candidate spaces below which the parallel extension step falls back to
// serial, for the same fork-join cost reason as kMinParallelVertices (the
// prefix-graph cutoff, shared with ListMinimalSeparators). Both paths
// produce the same sets, so the cutover is unobservable in results.
constexpr size_t kMinParallelItems = 64;

// State of the vertex-incremental enumeration, over the relabeled graph
// whose vertex i is the i-th vertex in the insertion order.
class IncrementalEnumerator {
 public:
  IncrementalEnumerator(const Graph& g, const PmcOptions& options)
      : g_(g), options_(options), deadline_(options.limits.time_limit_seconds) {}

  // Runs the enumeration; returns PMCs of g (relabeled universe).
  PmcResult Run() {
    PmcResult result;
    const int n = g_.NumVertices();
    if (n == 0) return result;

    // PMC(G_1) for the single-vertex prefix.
    std::vector<VertexSet> pmcs = {VertexSet::Single(1, 0)};

    for (int i = 1; i < n; ++i) {
      // Build G_{i+1} over vertices 0..i.
      Graph next(i + 1);
      for (int u = 0; u <= i; ++u) {
        g_.Neighbors(u).ForEach([&](int v) {
          if (v < u && u <= i) next.AddEdge(u, v);
        });
      }
      EnumerationLimits sep_limits;
      sep_limits.time_limit_seconds = deadline_.RemainingSeconds();
      // Tiny prefix graphs finish in microseconds; below the threshold the
      // fork-join would cost more than the enumeration itself. Passing one
      // thread (rather than leaving the cutoff to ListMinimalSeparators)
      // also skips the canonical sort a multi-threaded call promises.
      sep_limits.num_threads =
          i + 1 >= kMinParallelVertices ? options_.limits.num_threads : 1;
      MinimalSeparatorsResult seps = ListMinimalSeparators(next, sep_limits);
      if (seps.status != EnumerationStatus::kComplete) {
        result.status = EnumerationStatus::kTruncated;
        return result;
      }
      std::vector<VertexSet> next_pmcs;
      if (!Step(next, i, pmcs, seps.separators, &next_pmcs)) {
        result.status = EnumerationStatus::kTruncated;
        return result;
      }
      pmcs = std::move(next_pmcs);
    }
    result.pmcs = std::move(pmcs);
    result.status = EnumerationStatus::kComplete;
    return result;
  }

 private:
  // Computes PMC(G_{i+1}) from PMC(G_i) and MinSep(G_{i+1}); vertex `a = i`
  // is the new vertex. Returns false when a limit was hit.
  bool Step(const Graph& next, int a, const std::vector<VertexSet>& prev_pmcs,
            const std::vector<VertexSet>& next_seps,
            std::vector<VertexSet>* out) {
    // Parallelize only once the candidate space can amortize the fork-join
    // (spawning threads and per-worker scratch costs tens of microseconds;
    // early prefix steps do less total work than that).
    if (options_.limits.num_threads > 1 &&
        prev_pmcs.size() + 2 * next_seps.size() >= kMinParallelItems) {
      return ParallelStep(next, a, prev_pmcs, next_seps, out);
    }
    // Per-step dedup on the shared arena/table layout: Clear() keeps the
    // slot array and arena capacity across steps, so after the first few
    // prefix steps the table stops allocating entirely. (The previous
    // std::unordered_set spent one node allocation on every distinct
    // candidate — the single hottest allocation site of the serial PMC
    // path once VertexSets themselves went inline.)
    tried_.Clear();
    auto consider = [&](VertexSet&& omega) -> bool {
      if (omega.Empty() || omega.Count() > options_.max_size ||
          !tried_.Insert(omega)) {
        pool_.Release(std::move(omega));
        return true;
      }
      if (tester_.Test(next, omega)) {
        out->push_back(std::move(omega));
        if (out->size() > options_.limits.max_results) return false;
      } else {
        pool_.Release(std::move(omega));
      }
      return true;
    };

    const std::vector<const VertexSet*> t_list = CaseFourTList(next_seps, a);
    const size_t num_items = prev_pmcs.size() + 2 * next_seps.size();
    for (size_t item = 0; item < num_items; ++item) {
      if (deadline_.Expired()) return false;
      if (!GenerateCandidates(next, a, prev_pmcs, next_seps, t_list, item,
                              &scanner_, &components_, &pool_, consider)) {
        return false;
      }
    }
    return true;
  }

  // The T's of the case-4 products S ∪ (T ∩ C). Unless exhaustive_pairs is
  // set, T ranges only over the separators containing the new vertex a (the
  // Bouchitté–Todinca case analysis; validated against brute force in the
  // test suite).
  std::vector<const VertexSet*> CaseFourTList(
      const std::vector<VertexSet>& next_seps, int a) const {
    std::vector<const VertexSet*> t_list;
    for (const VertexSet& t : next_seps) {
      if (options_.exhaustive_pairs || t.Contains(a)) t_list.push_back(&t);
    }
    return t_list;
  }

  // Generates the PMC candidates of one item of the flat work space
  // [0, |prev_pmcs| + 2|next_seps|) and feeds them to `consider`, stopping
  // early when it returns false (the return value is forwarded). Items are:
  // case 1 & 2 (a prefix PMC, lifted with and without the new vertex a),
  // then case 3 (S ∪ {a} for a separator S), then case 4 (the products
  // S ∪ (T ∩ C) for one outer separator S). Both the serial and the
  // parallel Step run on this single generator, so the case analysis can
  // never diverge between them; scratch is caller-supplied (per-thread in
  // the parallel path). Candidate sets come from the caller's free-list
  // pool and `consider` takes ownership — it must either keep the set (an
  // accepted PMC) or Release it back, so the generate-mostly-reject loop
  // recycles the same few buffers instead of churning one per candidate.
  template <typename Consider>
  static bool GenerateCandidates(const Graph& next, int a,
                                 const std::vector<VertexSet>& prev_pmcs,
                                 const std::vector<VertexSet>& next_seps,
                                 const std::vector<const VertexSet*>& t_list,
                                 size_t item, ComponentScanner* scanner,
                                 std::vector<VertexSet>* components,
                                 VertexSetPool* pool, const Consider& consider) {
    const size_t num_pmcs = prev_pmcs.size();
    const size_t num_seps = next_seps.size();
    const int n = next.NumVertices();
    if (item < num_pmcs) {
      VertexSet omega = pool->Acquire(n);
      prev_pmcs[item].ForEach([&](int v) { omega.Insert(v); });
      VertexSet with_a = pool->Acquire(n);
      with_a = omega;  // buffer-reusing copy
      with_a.Insert(a);
      return consider(std::move(omega)) && consider(std::move(with_a));
    }
    if (item < num_pmcs + num_seps) {
      VertexSet omega = pool->Acquire(n);
      omega = next_seps[item - num_pmcs];
      omega.Insert(a);
      return consider(std::move(omega));
    }
    const VertexSet& s = next_seps[item - num_pmcs - num_seps];
    scanner->Components(next, s, components);
    for (const VertexSet* t : t_list) {
      if (*t == s) continue;
      for (const VertexSet& c : *components) {
        VertexSet cand = pool->Acquire(n);
        cand = *t;
        cand.IntersectWith(c);
        if (cand.Empty()) {
          pool->Release(std::move(cand));
          continue;
        }
        cand.UnionWith(s);
        if (!consider(std::move(cand))) return false;
      }
    }
    return true;
  }

  // Multi-threaded Step: the candidate *sources* (prefix PMCs for cases 1&2,
  // separators for case 3, case-4 outer separators S) form a flat index
  // space that workers claim from an atomic cursor; each worker tests its
  // candidates with its own PmcTester/ComponentScanner scratch, dedup goes
  // through a sharded table on the cached VertexSet hashes, and accepted
  // PMCs land in per-worker vectors that are concatenated at the join. The
  // output *set* is exactly the serial one (every candidate is considered
  // and IsPmc is order-independent); only the order within `out` differs,
  // and ListPotentialMaximalCliques sorts the final result anyway.
  bool ParallelStep(const Graph& next, int a,
                    const std::vector<VertexSet>& prev_pmcs,
                    const std::vector<VertexSet>& next_seps,
                    std::vector<VertexSet>* out) {
    // Clamped before sizing shard/worker state, mirroring RunOnThreads.
    const int num_threads =
        std::clamp(options_.limits.num_threads, 1, parallel::kMaxRunThreads);
    const std::vector<const VertexSet*> t_list = CaseFourTList(next_seps, a);
    const size_t num_items = prev_pmcs.size() + 2 * next_seps.size();

    parallel::ShardedVertexSetTable tried(4 * num_threads);
    std::atomic<size_t> cursor{0};
    std::atomic<size_t> accepted{0};
    std::atomic<bool> stopped{false};
    std::vector<std::vector<VertexSet>> worker_out(num_threads);

    parallel::RunOnThreads(num_threads, [&](int worker) {
      PmcTester tester;
      ComponentScanner scanner;
      std::vector<VertexSet> components;
      VertexSetPool pool;
      std::vector<VertexSet>& local_out = worker_out[worker];

      auto consider = [&](VertexSet&& omega) -> bool {
        if (omega.Empty() || omega.Count() > options_.max_size ||
            !tried.Insert(omega)) {
          pool.Release(std::move(omega));
          return true;
        }
        if (tester.Test(next, omega)) {
          local_out.push_back(std::move(omega));
          if (accepted.fetch_add(1, std::memory_order_relaxed) + 1 >
              options_.limits.max_results) {
            return false;
          }
        } else {
          pool.Release(std::move(omega));
        }
        return true;
      };

      while (!stopped.load(std::memory_order_relaxed)) {
        const size_t item = cursor.fetch_add(1, std::memory_order_relaxed);
        if (item >= num_items) break;
        if (deadline_.Expired()) {
          stopped.store(true, std::memory_order_relaxed);
          break;
        }
        if (!GenerateCandidates(next, a, prev_pmcs, next_seps, t_list, item,
                                &scanner, &components, &pool, consider)) {
          stopped.store(true, std::memory_order_relaxed);
          break;
        }
      }
    });

    if (stopped.load(std::memory_order_relaxed)) return false;
    for (std::vector<VertexSet>& chunk : worker_out) {
      for (VertexSet& omega : chunk) out->push_back(std::move(omega));
    }
    return true;
  }

  const Graph& g_;
  const PmcOptions& options_;
  Deadline deadline_;

  // Reused scratch.
  PmcTester tester_;
  ComponentScanner scanner_;
  std::vector<VertexSet> components_;
  VertexSetPool pool_;
  VertexSetTable tried_;
};

}  // namespace

bool IsPmc(const Graph& g, const VertexSet& omega) {
  PmcTester tester;
  return tester.Test(g, omega);
}

PmcResult ListPotentialMaximalCliques(const Graph& g,
                                      const std::vector<VertexSet>& separators,
                                      const PmcOptions& options) {
  (void)separators;  // unread; see the header
  const int n = g.NumVertices();
  PmcResult result;
  if (n == 0) return result;

  // A PMC of a disconnected graph is a PMC of one of its components
  // (minimal triangulations act per component), so recurse component-wise.
  std::vector<VertexSet> components = g.ConnectedComponents();
  if (components.size() > 1) {
    for (const VertexSet& comp : components) {
      std::vector<int> old_of_new(comp.Count());
      {
        int next = 0;
        comp.ForEach([&](int v) { old_of_new[next++] = v; });
      }
      Graph sub = g.InducedSubgraph(comp);
      PmcResult part = ListPotentialMaximalCliques(sub, {}, options);
      if (part.status != EnumerationStatus::kComplete) {
        result.status = EnumerationStatus::kTruncated;
        return result;
      }
      for (const VertexSet& p : part.pmcs) {
        VertexSet mapped(n);
        p.ForEach([&](int v) { mapped.Insert(old_of_new[v]); });
        result.pmcs.push_back(std::move(mapped));
      }
    }
    std::sort(result.pmcs.begin(), result.pmcs.end());
    result.status = EnumerationStatus::kComplete;
    return result;
  }

  // Connectivity-preserving insertion order (BFS from vertex 0), so every
  // prefix graph is connected.
  std::vector<int> order;
  order.reserve(n);
  {
    VertexSet visited = VertexSet::Single(n, 0);
    std::vector<int> queue = {0};
    for (size_t head = 0; head < queue.size(); ++head) {
      int v = queue[head];
      order.push_back(v);
      g.Neighbors(v).ForEach([&](int u) {
        if (!visited.Contains(u)) {
          visited.Insert(u);
          queue.push_back(u);
        }
      });
    }
  }
  assert(static_cast<int>(order.size()) == n);

  // Relabel so that the insertion order is 0..n-1.
  std::vector<int> new_of_old(n);
  for (int i = 0; i < n; ++i) new_of_old[order[i]] = i;
  Graph relabeled(n);
  for (const auto& [u, v] : g.Edges()) {
    relabeled.AddEdge(new_of_old[u], new_of_old[v]);
  }

  IncrementalEnumerator enumerator(relabeled, options);
  PmcResult inner = enumerator.Run();
  result.status = inner.status;
  result.pmcs.reserve(inner.pmcs.size());
  for (const VertexSet& p : inner.pmcs) {
    VertexSet mapped(n);
    p.ForEach([&](int v) { mapped.Insert(order[v]); });
    result.pmcs.push_back(std::move(mapped));
  }
  std::sort(result.pmcs.begin(), result.pmcs.end());
  return result;
}

std::vector<VertexSet> PmcsBruteForce(const Graph& g) {
  const int n = g.NumVertices();
  std::vector<VertexSet> out;
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    VertexSet omega(n);
    for (int v = 0; v < n; ++v) {
      if ((mask >> v) & 1) omega.Insert(v);
    }
    if (IsPmc(g, omega)) out.push_back(std::move(omega));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mintri
