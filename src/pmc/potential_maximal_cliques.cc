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

// What `consider` made of one candidate.
enum class Verdict { kRejected, kAccepted, kStop };

// One prefix step's read-only input, shared by the serial Step and every
// worker of the parallel one. Its flat work space [0, NumItems()) is: one
// item per prefix PMC (cases 1 and 2), one per separator (case 3), then one
// per outer separator S of case 4.
struct StepInput {
  const Graph& next;                        // G_{i+1}
  int a;                                    // the vertex just added
  const std::vector<VertexSet>& prev_pmcs;  // PMC(G_i)
  const std::vector<VertexSet>& next_seps;  // Δ(G_{i+1})
  bool prune;                               // !exhaustive_pairs
  std::vector<const VertexSet*> outer;      // case-4 S's
  std::vector<const VertexSet*> t_list;     // case-4 T's

  size_t NumItems() const {
    return prev_pmcs.size() + next_seps.size() + outer.size();
  }
};

// State of the vertex-incremental enumeration, over the relabeled graph
// whose vertex i is the i-th vertex in the insertion order.
class IncrementalEnumerator {
 public:
  IncrementalEnumerator(const Graph& g, const PmcOptions& options)
      : g_(g), options_(options), deadline_(options.limits.time_limit_seconds) {}

  // Runs the enumeration; returns PMCs of g (relabeled universe).
  // `last_seps` is MinSep(g), relabeled, or empty to have the last prefix
  // step enumerate it like the others.
  PmcResult Run(std::vector<VertexSet> last_seps) {
    PmcResult result;
    const int n = g_.NumVertices();
    if (n == 0) return result;

    // PMC(G_1) for the single-vertex prefix; Δ(G_1) is empty.
    std::vector<VertexSet> pmcs = {VertexSet::Single(1, 0)};
    prev_seps_.Clear();

    for (int i = 1; i < n; ++i) {
      // Build G_{i+1} over vertices 0..i.
      Graph next(i + 1);
      for (int u = 0; u <= i; ++u) {
        g_.Neighbors(u).ForEach([&](int v) {
          if (v < u && u <= i) next.AddEdge(u, v);
        });
      }
      MinimalSeparatorsResult seps;
      if (i == n - 1 && !last_seps.empty()) {
        seps.separators = std::move(last_seps);
      } else {
        EnumerationLimits sep_limits;
        sep_limits.time_limit_seconds = deadline_.RemainingSeconds();
        // Tiny prefix graphs finish in microseconds; below the threshold the
        // fork-join would cost more than the enumeration itself. Passing one
        // thread (rather than leaving the cutoff to ListMinimalSeparators)
        // also skips the canonical sort a multi-threaded call promises.
        sep_limits.num_threads =
            i + 1 >= kMinParallelVertices ? options_.limits.num_threads : 1;
        seps = ListMinimalSeparators(next, sep_limits);
      }
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
      if (i + 1 < n) {
        prev_seps_.Clear();
        for (const VertexSet& s : seps.separators) prev_seps_.Insert(s);
      }
    }
    result.pmcs = std::move(pmcs);
    result.status = EnumerationStatus::kComplete;
    result.num_tests = num_tests_;
    return result;
  }

 private:
  // Computes PMC(G_{i+1}) from PMC(G_i) and MinSep(G_{i+1}); vertex `a = i`
  // is the new vertex and prev_seps_ holds Δ(G_i). Returns false when a
  // limit was hit.
  bool Step(const Graph& next, int a, const std::vector<VertexSet>& prev_pmcs,
            const std::vector<VertexSet>& next_seps,
            std::vector<VertexSet>* out) {
    StepInput input{next, a, prev_pmcs, next_seps, !options_.exhaustive_pairs,
                    {}, {}};
    CaseFourLists(&input);
    // Parallelize only once the candidate space can amortize the fork-join
    // (spawning threads and per-worker scratch costs tens of microseconds;
    // early prefix steps do less total work than that).
    const size_t num_items = input.NumItems();
    if (options_.limits.num_threads > 1 && num_items >= kMinParallelItems) {
      return ParallelStep(input, out);
    }
    // Per-step dedup on the shared arena/table layout: Clear() keeps the
    // slot array and arena capacity across steps, so after the first few
    // prefix steps the table stops allocating entirely.
    tried_.Clear();
    auto consider = [&](VertexSet&& omega) -> Verdict {
      if (omega.Empty() || omega.Count() > options_.max_size ||
          !tried_.Insert(omega)) {
        pool_.Release(std::move(omega));
        return Verdict::kRejected;
      }
      ++num_tests_;
      if (!tester_.Test(next, omega)) {
        pool_.Release(std::move(omega));
        return Verdict::kRejected;
      }
      out->push_back(std::move(omega));
      return out->size() > options_.limits.max_results ? Verdict::kStop
                                                       : Verdict::kAccepted;
    };

    for (size_t item = 0; item < num_items; ++item) {
      if (deadline_.Expired()) return false;
      if (!GenerateCandidates(input, item, &scanner_, &components_, &pool_,
                              consider)) {
        return false;
      }
    }
    return true;
  }

  // Fills the case-4 lists of S ∪ (T ∩ C) (Bouchitté–Todinca 2002,
  // ONE_MORE_VERTEX). Pruned, the outer S ranges only over the separators
  // of G_{i+1} that are new: S \ {a} ∉ Δ(G_i). T ranges only over the
  // separators containing a. Unpruned (exhaustive_pairs), both range over
  // all of Δ(G_{i+1}).
  void CaseFourLists(StepInput* input) {
    for (const VertexSet& s : input->next_seps) {
      if (!input->prune || s.Contains(input->a)) input->t_list.push_back(&s);
      if (input->prune) {
        // Vertex a is the last of G_{i+1}, so S \ {a} over G_i's universe
        // is S's elements below a.
        narrowed_.Reset(input->a);
        s.ForEach([&](int v) {
          if (v != input->a) narrowed_.Insert(v);
        });
        if (prev_seps_.Find(narrowed_) >= 0) continue;
      }
      input->outer.push_back(&s);
    }
  }

  // Generates the PMC candidates of one item of input.NumItems() and feeds
  // them to `consider`; returns false once it answers kStop. Both the serial
  // and the parallel Step run on this single generator, so the case
  // analysis can never diverge between them; scratch is caller-supplied
  // (per-thread in the parallel path). Candidate sets come from the
  // caller's free-list pool and `consider` takes ownership — it must either
  // keep the set (an accepted PMC) or Release it back, so the
  // generate-mostly-reject loop recycles the same few buffers instead of
  // churning one per candidate.
  //
  // Pruned, a prefix PMC p′ is lifted to p′ ∪ {a} only when p′ itself was
  // not accepted: PMCs form an antichain, so p′ ∪ {a} ⊋ p′ is no PMC when p′
  // is one. A p′ rejected as a duplicate may have been accepted elsewhere,
  // so it is lifted too — the order workers test candidates in then changes
  // the work done, never the output set. Case 3 skips every S ∋ a: S ∪ {a}
  // is S, a minimal separator, never a PMC.
  template <typename Consider>
  static bool GenerateCandidates(const StepInput& input, size_t item,
                                 ComponentScanner* scanner,
                                 std::vector<VertexSet>* components,
                                 VertexSetPool* pool,
                                 const Consider& consider) {
    const size_t num_pmcs = input.prev_pmcs.size();
    const size_t num_seps = input.next_seps.size();
    const int n = input.next.NumVertices();
    if (item < num_pmcs) {
      const VertexSet& prev = input.prev_pmcs[item];
      VertexSet omega = pool->Acquire(n);
      prev.ForEach([&](int v) { omega.Insert(v); });
      const Verdict verdict = consider(std::move(omega));
      if (verdict == Verdict::kStop) return false;
      if (verdict == Verdict::kAccepted && input.prune) return true;
      VertexSet with_a = pool->Acquire(n);
      prev.ForEach([&](int v) { with_a.Insert(v); });
      with_a.Insert(input.a);
      return consider(std::move(with_a)) != Verdict::kStop;
    }
    if (item < num_pmcs + num_seps) {
      const VertexSet& s = input.next_seps[item - num_pmcs];
      if (input.prune && s.Contains(input.a)) return true;
      VertexSet omega = pool->Acquire(n);
      omega = s;
      omega.Insert(input.a);
      return consider(std::move(omega)) != Verdict::kStop;
    }
    const VertexSet& s = *input.outer[item - num_pmcs - num_seps];
    scanner->Components(input.next, s, components);
    for (const VertexSet* t : input.t_list) {
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
        if (consider(std::move(cand)) == Verdict::kStop) return false;
      }
    }
    return true;
  }

  // Multi-threaded Step: workers claim items of the flat work space from an
  // atomic cursor; each worker tests its candidates with its own
  // PmcTester/ComponentScanner scratch, dedup goes through a sharded table
  // on the cached VertexSet hashes, and accepted PMCs land in per-worker
  // vectors that are concatenated at the join. The output *set* is exactly
  // the serial one (IsPmc is order-independent, and the pruning above drops
  // only candidates that are no PMC); only the order within `out` differs,
  // and ListPotentialMaximalCliques sorts the final result anyway.
  bool ParallelStep(const StepInput& input, std::vector<VertexSet>* out) {
    // Clamped before sizing shard/worker state, mirroring RunOnThreads.
    const int num_threads =
        std::clamp(options_.limits.num_threads, 1, parallel::kMaxRunThreads);
    const size_t num_items = input.NumItems();

    parallel::ShardedVertexSetTable tried(4 * num_threads);
    std::atomic<size_t> cursor{0};
    std::atomic<size_t> accepted{0};
    std::atomic<bool> stopped{false};
    std::vector<std::vector<VertexSet>> worker_out(num_threads);
    std::vector<long long> worker_tests(num_threads, 0);

    parallel::RunOnThreads(num_threads, [&](int worker) {
      PmcTester tester;
      ComponentScanner scanner;
      std::vector<VertexSet> components;
      VertexSetPool pool;
      std::vector<VertexSet>& local_out = worker_out[worker];

      long long& local_tests = worker_tests[worker];

      auto consider = [&](VertexSet&& omega) -> Verdict {
        if (omega.Empty() || omega.Count() > options_.max_size ||
            !tried.Insert(omega)) {
          pool.Release(std::move(omega));
          return Verdict::kRejected;
        }
        ++local_tests;
        if (!tester.Test(input.next, omega)) {
          pool.Release(std::move(omega));
          return Verdict::kRejected;
        }
        local_out.push_back(std::move(omega));
        return accepted.fetch_add(1, std::memory_order_relaxed) + 1 >
                       options_.limits.max_results
                   ? Verdict::kStop
                   : Verdict::kAccepted;
      };

      while (!stopped.load(std::memory_order_relaxed)) {
        const size_t item = cursor.fetch_add(1, std::memory_order_relaxed);
        if (item >= num_items) break;
        if (deadline_.Expired()) {
          stopped.store(true, std::memory_order_relaxed);
          break;
        }
        if (!GenerateCandidates(input, item, &scanner, &components, &pool,
                                consider)) {
          stopped.store(true, std::memory_order_relaxed);
          break;
        }
      }
    });

    for (long long tests : worker_tests) num_tests_ += tests;
    if (stopped.load(std::memory_order_relaxed)) return false;
    for (std::vector<VertexSet>& chunk : worker_out) {
      for (VertexSet& omega : chunk) out->push_back(std::move(omega));
    }
    return true;
  }

  const Graph& g_;
  const PmcOptions& options_;
  Deadline deadline_;

  // Δ(G_i) of the step in progress, for the case-4 "new separator" test.
  VertexSetTable prev_seps_;
  VertexSet narrowed_;

  // Reused scratch.
  PmcTester tester_;
  ComponentScanner scanner_;
  std::vector<VertexSet> components_;
  VertexSetPool pool_;
  VertexSetTable tried_;
  long long num_tests_ = 0;
};

}  // namespace

bool IsPmc(const Graph& g, const VertexSet& omega) {
  PmcTester tester;
  return tester.Test(g, omega);
}

PmcResult ListPotentialMaximalCliques(const Graph& g,
                                      const std::vector<VertexSet>& separators,
                                      const PmcOptions& options) {
  const int n = g.NumVertices();
  PmcResult result;
  if (n == 0) return result;

  // A PMC of a disconnected graph is a PMC of one of its components
  // (minimal triangulations act per component), so recurse component-wise.
  std::vector<VertexSet> components = g.ConnectedComponents();
  if (components.size() > 1) {
    for (const VertexSet& comp : components) {
      const std::vector<int> old_of_new = comp.ToVector();
      Graph sub = g.InducedSubgraph(comp);
      PmcResult part = ListPotentialMaximalCliques(sub, {}, options);
      if (part.status != EnumerationStatus::kComplete) {
        result.status = EnumerationStatus::kTruncated;
        return result;
      }
      result.num_tests += part.num_tests;
      for (const VertexSet& p : part.pmcs) {
        result.pmcs.push_back(p.Relabeled(old_of_new, n));
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

  std::vector<VertexSet> last_seps;
  for (const VertexSet& s : separators) {
    last_seps.push_back(s.Relabeled(new_of_old, n));
  }
  IncrementalEnumerator enumerator(relabeled, options);
  PmcResult inner = enumerator.Run(std::move(last_seps));
  result.status = inner.status;
  result.num_tests = inner.num_tests;
  result.pmcs.reserve(inner.pmcs.size());
  for (const VertexSet& p : inner.pmcs) {
    result.pmcs.push_back(p.Relabeled(order, n));
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
