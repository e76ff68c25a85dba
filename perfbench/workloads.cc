#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <thread>

#include "graph/graph.h"
#include "graph/graph_io.h"
#include "util/rng.h"
#include "workloads/graphical_models.h"
#include "workloads/named_graphs.h"

namespace perfbench {

namespace {

using mintri::Graph;
using mintri::Rng;
namespace wl = mintri::workloads;

// A generator shape: one instance per fixed generator seed, so the
// structures, and with them the work, are the same for every --seed;
// --seed draws the vertex relabelling of every instance. Drawing the
// structures from --seed as well made the stream workload's medians differ
// by 30-50% between seeds.
struct Shape {
  std::string name;
  std::vector<uint64_t> generator_seeds;
  std::function<Graph(uint64_t generator_seed)> make;
};

// A uniformly random relabeling, so that a structurally fixed shape (a
// grid) still differs per seed in the ids the program sees, and with them
// its tie-breaks.
std::vector<int> RandomPermutation(int n, Rng& rng) {
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.NextInt(0, i)]);
  }
  return perm;
}

Graph Relabel(const Graph& g, const std::vector<int>& perm) {
  Graph out(g.NumVertices());
  for (const auto& [u, v] : g.Edges()) out.AddEdge(perm[u], perm[v]);
  return out;
}

std::string GraphText(const Graph& g) {
  std::ostringstream os;
  mintri::WriteDimacs(g, os);
  return os.str();
}

// Adds `relabellings` differently relabelled copies of every shape's
// instances.
void AddShapes(const std::vector<Shape>& shapes, const std::string& cost,
               int relabellings, Rng& rng, Workload* w) {
  for (const Shape& shape : shapes) {
    for (uint64_t generator_seed : shape.generator_seeds) {
      const Graph g = shape.make(generator_seed);
      for (int copy = 0; copy < relabellings; ++copy) {
        Instance inst;
        inst.name = shape.name + "-" + std::to_string(generator_seed);
        if (relabellings > 1) inst.name += "-r" + std::to_string(copy);
        inst.text =
            GraphText(Relabel(g, RandomPermutation(g.NumVertices(), rng)));
        inst.cost = cost;
        w->instances.push_back(std::move(inst));
      }
    }
  }
}

// Deep streams of small graphs whose context builds in a few
// milliseconds: the per-result solver repair and Lawler-Murty queue work.
// Each instance has 700-3600 minimal triangulations and k is above all of
// them, so every stream runs to its end. A relabelling still moves one
// stream's time by 10-50%. So the structures are picked from a narrow band
// (40-120 ms each), and each runs under six relabellings: the p90 then
// falls among two dozen streams of similar length instead of on how one
// relabelling of the second-slowest stream fell. Three relabellings left
// ttk_ms.p90 moving by about 5% (one standard deviation) from seed to seed.
void MakeStream(Rng& rng, Workload* w) {
  w->k = 5000;
  const std::vector<Shape> shapes = {
      {"grid-3x4", {0}, [](uint64_t) { return wl::Grid(3, 4); }},
      {"imgalign-3x5", {1000, 1007, 1011},
       [](uint64_t s) { return wl::ImageAlignmentGraph(3, 5, 5, s); }},
      {"objdet-13", {1002},
       [](uint64_t s) { return wl::ObjectDetectionGraph(13, 0.4, 11, s); }},
      {"dbn-3x6", {1002},
       [](uint64_t s) { return wl::DbnChain(3, 6, 0.3, 0.25, s); }},
      {"dbn-3x5", {1009, 1010, 1014},
       [](uint64_t s) { return wl::DbnChain(3, 5, 0.3, 0.25, s); }},
      {"csp-16", {1000, 1004, 1008, 1009},
       [](uint64_t s) { return wl::CspGraph(16, 12, 3, s); }},
      {"csp-14", {1000, 1001},
       [](uint64_t s) { return wl::CspGraph(14, 10, 3, s); }},
  };
  AddShapes(shapes, "width", /*relabellings=*/6, rng, w);
}

// Context-bound instances: the MinSep / PMC / blocks / wiring build is
// most of the time, k is small, and the build runs on ContextThreads().
// With one relabelling per structure, a relabelling moved an instance's
// time after its first result by 10-20% from seed to seed; six average
// that out (with three, ttk_ms.p90 still spread 0.10 over ten seeds).
void MakeBuild(Rng& rng, Workload* w) {
  w->k = 5;
  w->threads = ContextThreads();
  w->check_limit = 2.0;
  const std::vector<Shape> shapes = {
      {"grid-5x5", {0, 1}, [](uint64_t) { return wl::Grid(5, 5); }},
      {"grid-4x7", {0}, [](uint64_t) { return wl::Grid(4, 7); }},
      {"segment-5x5", {1000, 1001, 1002},
       [](uint64_t s) { return wl::SegmentationGraph(5, 5, 8, s); }},
      {"segment-4x7", {1000, 1001, 1002},
       [](uint64_t s) { return wl::SegmentationGraph(4, 7, 8, s); }},
      {"imgalign-4x7", {1000, 1001, 1002},
       [](uint64_t s) { return wl::ImageAlignmentGraph(4, 7, 9, s); }},
      {"myciel-5", {0}, [](uint64_t) { return wl::Mycielski(5); }},
      {"queen-5", {0}, [](uint64_t) { return wl::Queen(5); }},
      {"hypercube-4", {0}, [](uint64_t) { return wl::Hypercube(4); }},
  };
  AddShapes(shapes, "width", /*relabellings=*/6, rng, w);
}

uint64_t NameHash(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"stream", "build"};
  return kNames;
}

int ContextThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  *out = Workload{};
  out->name = name;
  Rng rng(seed ^ NameHash(name));
  if (name == "stream") {
    MakeStream(rng, out);
  } else if (name == "build") {
    MakeBuild(rng, out);
  } else {
    return false;
  }
  return true;
}

bool DumpWorkload(const Workload& w, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  std::ofstream replay(dir + "/replay.sh");
  replay << "#!/bin/sh\n# " << w.name << ": " << w.instances.size()
         << " instances; replay one with the mintri CLI.\n";
  for (const Instance& inst : w.instances) {
    const std::string input = inst.name + ".gr";
    std::ofstream file(dir + "/" + input, std::ios::binary);
    file << inst.text;
    if (!file) return false;
    replay << "mintri rank --cost=" << inst.cost << " --top=" << w.k
           << " --threads=" << w.threads << " --time-limit=" << w.time_limit
           << " --tier=auto " << input << "\n";
  }
  return static_cast<bool>(replay);
}

}  // namespace perfbench
