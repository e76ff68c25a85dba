#ifndef MINTRI_PERFBENCH_WORKLOADS_H_
#define MINTRI_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One benchmark input, exactly as `mintri rank` would receive it: the
/// bytes of a generated .gr file, parsed through ReadInstance.
struct Instance {
  std::string name;  // shape-<generator seed>[-r<relabelling>]
  std::string text;  // .gr file contents
  std::string cost;  // registry cost name (--cost=)
};

/// A workload: the fixed work of one pass (every instance once, each to
/// its k-th result) and the CLI flags it runs under.
struct Workload {
  std::string name;
  long long k = 1;           // --top=
  int threads = 1;           // --threads=
  double time_limit = 30.0;  // --time-limit= (also the Tier-1 budget)
  /// Budget (seconds) of the checker's from-scratch direct context.
  double check_limit = 1.0;
  std::vector<Instance> instances;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Generates `name`'s instances from `seed`. Deterministic: the same
/// (name, seed) gives byte-identical instance texts. Returns false for an
/// unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// Writes every generated instance as <dir>/<name>.gr plus a `replay.sh`
/// with the `mintri rank` command line that reproduces each one. Returns
/// false on an I/O error.
bool DumpWorkload(const Workload& w, const std::string& dir);

/// Threads for the context-bound workload: nproc, capped at 4.
int ContextThreads();

}  // namespace perfbench

#endif  // MINTRI_PERFBENCH_WORKLOADS_H_
