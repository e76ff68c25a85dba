// Google-benchmark microbenchmarks for the core operations: component
// expansion, crossing checks, separator enumeration, PMC enumeration,
// LB-Triang, context construction, a single MinTriang pass, the per-result
// cost of ranked enumeration, and — measurable in isolation since the PR-9
// memory work — VertexSet alloc/free, dedup-table probes, and queue
// push/pop traffic (the three layers that bound the small-universe
// enumeration suites).

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "chordal/lb_triang.h"
#include "cost/standard_costs.h"
#include "enumeration/ranked_enum.h"
#include "graph/vertex_set_pool.h"
#include "graph/vertex_set_table.h"
#include "parallel/thread_pool.h"
#include "pmc/potential_maximal_cliques.h"
#include "separators/crossing.h"
#include "separators/minimal_separators.h"
#include "triang/min_triang.h"
#include "workloads/named_graphs.h"
#include "workloads/random_graphs.h"

namespace {

using namespace mintri;

Graph BenchGraph(int which) {
  switch (which) {
    case 0:
      return workloads::Grid(4, 5);
    case 1:
      return workloads::ConnectedErdosRenyi(24, 0.2, 99);
    default:
      return workloads::Mycielski(4);
  }
}

void BM_ComponentsAfterRemoving(benchmark::State& state) {
  Graph g = BenchGraph(static_cast<int>(state.range(0)));
  VertexSet removed(g.NumVertices());
  for (int v = 0; v < g.NumVertices(); v += 3) removed.Insert(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.ComponentsAfterRemoving(removed));
  }
}
BENCHMARK(BM_ComponentsAfterRemoving)->Arg(0)->Arg(1)->Arg(2);

void BM_CrossingCheck(benchmark::State& state) {
  Graph g = BenchGraph(static_cast<int>(state.range(0)));
  auto seps = ListMinimalSeparators(g).separators;
  if (seps.size() < 2) {
    state.SkipWithError("not enough separators");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    const VertexSet& a = seps[i % seps.size()];
    const VertexSet& b = seps[(i * 7 + 1) % seps.size()];
    benchmark::DoNotOptimize(AreParallel(g, a, b));
    ++i;
  }
}
BENCHMARK(BM_CrossingCheck)->Arg(0)->Arg(1)->Arg(2);

void BM_ListMinimalSeparators(benchmark::State& state) {
  Graph g = BenchGraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ListMinimalSeparators(g));
  }
}
BENCHMARK(BM_ListMinimalSeparators)->Arg(0)->Arg(1)->Arg(2);

void BM_ListPmcs(benchmark::State& state) {
  Graph g = BenchGraph(static_cast<int>(state.range(0)));
  auto seps = ListMinimalSeparators(g).separators;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ListPotentialMaximalCliques(g, seps));
  }
}
BENCHMARK(BM_ListPmcs)->Arg(0)->Arg(1)->Arg(2);

void BM_LbTriang(benchmark::State& state) {
  Graph g = BenchGraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LbTriangMinDegree(g));
  }
}
BENCHMARK(BM_LbTriang)->Arg(0)->Arg(1)->Arg(2);

void BM_ContextBuild(benchmark::State& state) {
  Graph g = BenchGraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TriangulationContext::Build(g));
  }
}
BENCHMARK(BM_ContextBuild)->Arg(0)->Arg(1)->Arg(2);

void BM_MinTriangWidth(benchmark::State& state) {
  Graph g = BenchGraph(static_cast<int>(state.range(0)));
  auto ctx = TriangulationContext::Build(g);
  WidthCost width;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinTriang(*ctx, width));
  }
}
BENCHMARK(BM_MinTriangWidth)->Arg(0)->Arg(1)->Arg(2);

void BM_RankedNext(benchmark::State& state) {
  // Amortized per-result cost of ranked enumeration (restarting the
  // enumerator whenever it is exhausted).
  Graph g = BenchGraph(static_cast<int>(state.range(0)));
  auto ctx = TriangulationContext::Build(g);
  WidthCost width;
  auto e = std::make_unique<RankedTriangulationEnumerator>(*ctx, width);
  for (auto _ : state) {
    auto t = e->Next();
    if (!t.has_value()) {
      e = std::make_unique<RankedTriangulationEnumerator>(*ctx, width);
    }
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_RankedNext)->Arg(0)->Arg(2);

// --- Allocation-layer microbenchmarks (PR 9) -------------------------------

void BM_VertexSetAllocFree(benchmark::State& state) {
  // Construct + destroy one set per iteration. capacity <= 128 runs the
  // small-buffer inline path (no allocator at all); larger capacities pay
  // one heap round-trip — the before/after of the SSO tentpole.
  const int capacity = static_cast<int>(state.range(0));
  for (auto _ : state) {
    VertexSet s(capacity);
    s.Insert(capacity - 1);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_VertexSetAllocFree)->Arg(64)->Arg(128)->Arg(192)->Arg(640);

void BM_VertexSetPoolAcquireRelease(benchmark::State& state) {
  // The pooled variant of the same traffic: steady-state Acquire/Release
  // recycles one buffer regardless of capacity.
  const int capacity = static_cast<int>(state.range(0));
  VertexSetPool pool;
  for (auto _ : state) {
    VertexSet s = pool.Acquire(capacity);
    s.Insert(capacity - 1);
    pool.Release(std::move(s));
  }
}
BENCHMARK(BM_VertexSetPoolAcquireRelease)->Arg(128)->Arg(640);

std::vector<VertexSet> ProbeCorpus(int capacity, int count) {
  std::vector<VertexSet> sets;
  sets.reserve(count);
  for (int i = 0; i < count; ++i) {
    VertexSet s(capacity);
    s.Insert(i % capacity);
    s.Insert((i * 31 + 7) % capacity);
    s.Insert((i * 131 + 13) % capacity);
    sets.push_back(std::move(s));
  }
  for (VertexSet& s : sets) (void)s.Hash();  // probe on warm hash caches
  return sets;
}

void BM_TableProbeHit(benchmark::State& state) {
  // One Find() per iteration against a populated table: the interleaved
  // slot layout makes this one cache line per probe step.
  auto sets = ProbeCorpus(85, 4096);
  VertexSetTable table;
  for (const VertexSet& s : sets) table.Insert(s);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(sets[i & 4095]));
    ++i;
  }
}
BENCHMARK(BM_TableProbeHit);

void BM_TableInsertDedup(benchmark::State& state) {
  // The enumeration engines' actual access pattern: mostly-duplicate
  // Insert() calls (each separator is rediscovered from many expansions).
  auto sets = ProbeCorpus(85, 1024);
  VertexSetTable table;
  table.Reserve(sets.size());
  for (const VertexSet& s : sets) table.Insert(s);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Insert(sets[(i * 17 + 5) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_TableInsertDedup);

void BM_QueuePushPopBatched(benchmark::State& state) {
  // PushBatch/NextBatch/FinishBatch round-trip on a 1-worker queue, batch
  // size matching the engines' kPopBatch: the per-item cost of the queue
  // traffic both engines generate.
  constexpr size_t kBatch = 16;
  parallel::WorkStealingQueue queue(1);
  uint64_t items[kBatch];
  for (size_t k = 0; k < kBatch; ++k) items[k] = k;
  for (auto _ : state) {
    queue.PushBatch(0, items, kBatch);
    size_t got = queue.NextBatch(0, items, kBatch);
    benchmark::DoNotOptimize(got);
    queue.FinishBatch(got);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_QueuePushPopBatched);

}  // namespace

BENCHMARK_MAIN();
