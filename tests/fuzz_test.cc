// Randomized differential tests ("fuzz" style): VertexSet against
// std::set<int>, Graph connectivity against a reference union-find, and a
// whole-pipeline cross-validation — Ω is a potential maximal clique iff it
// occurs as a maximal clique of some minimal triangulation (the *defining*
// property of PMCs, checked against the Parra–Scheffler brute force). A
// parallel mode reruns the separator/PMC pipeline through the
// work-stealing engine (num_threads > 1) on the same deterministic seeds,
// so the fuzzing also exercises the thread pool and sharded dedup table.
// The input parsers (.gr, .hg, .uai) are fuzzed by deterministic mutations
// of the tests/data seed files, the command-line flag parser by mutated
// argument vectors, and the batch list reader by random bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <numeric>
#include <set>
#include <sstream>
#include <string>

#include "cli/batch.h"
#include "cli/cli.h"
#include "graph/graph_io.h"
#include "hypergraph/hypergraph_io.h"
#include "inference/model_io.h"
#include "pmc/potential_maximal_cliques.h"
#include "test_util.h"
#include "util/rng.h"
#include "workloads/inference_models.h"
#include "workloads/random_graphs.h"
#include "workloads/tpch_queries.h"

namespace mintri {
namespace {

class VertexSetFuzz : public ::testing::TestWithParam<int> {};

TEST_P(VertexSetFuzz, MatchesStdSetReference) {
  Rng rng(GetParam());
  const int cap = 1 + static_cast<int>(rng.NextBounded(150));
  VertexSet a(cap), b(cap);
  std::set<int> ra, rb;
  for (int op = 0; op < 300; ++op) {
    int v = rng.NextInt(0, cap - 1);
    switch (rng.NextBounded(6)) {
      case 0:
        a.Insert(v);
        ra.insert(v);
        break;
      case 1:
        a.Erase(v);
        ra.erase(v);
        break;
      case 2:
        b.Insert(v);
        rb.insert(v);
        break;
      case 3: {
        VertexSet u = a.Union(b), i = a.Intersect(b), m = a.Minus(b);
        std::set<int> ru, ri, rm;
        std::set_union(ra.begin(), ra.end(), rb.begin(), rb.end(),
                       std::inserter(ru, ru.end()));
        std::set_intersection(ra.begin(), ra.end(), rb.begin(), rb.end(),
                              std::inserter(ri, ri.end()));
        std::set_difference(ra.begin(), ra.end(), rb.begin(), rb.end(),
                            std::inserter(rm, rm.end()));
        EXPECT_EQ(u.ToVector(), std::vector<int>(ru.begin(), ru.end()));
        EXPECT_EQ(i.ToVector(), std::vector<int>(ri.begin(), ri.end()));
        EXPECT_EQ(m.ToVector(), std::vector<int>(rm.begin(), rm.end()));
        break;
      }
      case 4: {
        EXPECT_EQ(a.Count(), static_cast<int>(ra.size()));
        EXPECT_EQ(a.Empty(), ra.empty());
        EXPECT_EQ(a.First(), ra.empty() ? -1 : *ra.begin());
        EXPECT_EQ(a.Contains(v), ra.count(v) > 0);
        break;
      }
      case 5: {
        bool subset = std::includes(rb.begin(), rb.end(), ra.begin(),
                                    ra.end());
        EXPECT_EQ(a.IsSubsetOf(b), subset);
        bool intersects = false;
        for (int x : ra) intersects |= rb.count(x) > 0;
        EXPECT_EQ(a.Intersects(b), intersects);
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VertexSetFuzz, ::testing::Range(0, 12));

class GraphFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GraphFuzz, ComponentsMatchUnionFind) {
  Rng rng(1000 + GetParam());
  const int n = 2 + static_cast<int>(rng.NextBounded(40));
  Graph g(n);
  std::vector<int> uf(n);
  std::iota(uf.begin(), uf.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (uf[x] != x) x = uf[x] = uf[uf[x]];
    return x;
  };
  int edges = static_cast<int>(rng.NextBounded(2 * n));
  for (int e = 0; e < edges; ++e) {
    int u = rng.NextInt(0, n - 1), v = rng.NextInt(0, n - 1);
    if (u == v) continue;
    g.AddEdge(u, v);
    uf[find(u)] = find(v);
  }
  std::set<int> roots;
  for (int v = 0; v < n; ++v) roots.insert(find(v));
  auto comps = g.ConnectedComponents();
  EXPECT_EQ(comps.size(), roots.size());
  // Every component is closed under the union-find relation.
  for (const VertexSet& c : comps) {
    int root = find(c.First());
    c.ForEach([&](int v) { EXPECT_EQ(find(v), root); });
  }
  EXPECT_EQ(g.IsConnected(), roots.size() == 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFuzz, ::testing::Range(0, 12));

class PipelineCross : public ::testing::TestWithParam<int> {};

TEST_P(PipelineCross, PmcsAreExactlyTheBagsOfMinimalTriangulations) {
  // The definition of PMC (Section 5.1): Ω ∈ PMC(G) iff Ω ∈ MaxClq(H) for
  // some minimal triangulation H. Left side: our BT02 enumerator. Right
  // side: maximal cliques over the Parra–Scheffler brute-force enumeration.
  Graph g = workloads::ConnectedErdosRenyi(8, 0.2 + 0.05 * (GetParam() % 5),
                                           90000 + GetParam());
  auto seps = ListMinimalSeparators(g).separators;
  auto pmcs = ListPotentialMaximalCliques(g, seps).pmcs;
  std::set<VertexSet> expected;
  for (const auto& fills : testutil::BruteForceMinimalTriangulationFills(g)) {
    Graph h = g;
    for (const auto& [u, v] : fills) h.AddEdge(u, v);
    for (VertexSet& c : CliqueTreeOfChordal(h).bags) {
      expected.insert(std::move(c));
    }
  }
  EXPECT_EQ(std::set<VertexSet>(pmcs.begin(), pmcs.end()), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineCross, ::testing::Range(0, 10));

// Parallel mode: the multi-threaded batch enumerators must agree with the
// serial ones on the same fixed-seed random graphs, at 2..4 threads.
class ParallelPipelineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParallelPipelineFuzz, ParallelEnginesMatchSerialOnRandomGraphs) {
  const int seed = GetParam();
  const int n = 10 + seed % 5;
  Graph g = workloads::ConnectedErdosRenyi(n, 0.2 + 0.05 * (seed % 4),
                                           96000 + seed);
  EnumerationLimits par_limits;
  par_limits.num_threads = 2 + seed % 3;

  auto serial_seps = ListMinimalSeparators(g).separators;
  std::sort(serial_seps.begin(), serial_seps.end());
  MinimalSeparatorsResult par_seps = ListMinimalSeparators(g, par_limits);
  ASSERT_EQ(par_seps.status, EnumerationStatus::kComplete);
  EXPECT_EQ(par_seps.separators, serial_seps) << "seed=" << seed;

  auto serial_pmcs = ListPotentialMaximalCliques(g, serial_seps).pmcs;
  PmcOptions par_options;
  par_options.limits.num_threads = par_limits.num_threads;
  PmcResult par_pmcs =
      ListPotentialMaximalCliques(g, serial_seps, par_options);
  ASSERT_EQ(par_pmcs.status, EnumerationStatus::kComplete);
  EXPECT_EQ(par_pmcs.pmcs, serial_pmcs) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelPipelineFuzz, ::testing::Range(0, 12));

// Parser fuzzing. Each input is a seed file with one to three edits: a byte
// overwritten, a short run deleted, a truncation, or a huge or negative
// number inserted. Half the edits land in the first 32 bytes, where the
// size fields are. Every input must parse to std::nullopt or to an instance
// within kMaxInputVertices whose graph builds and that survives a
// write/parse round trip unchanged.
constexpr int kParserMutations = 3000;

std::string ReadSeed(const std::string& name) {
  std::ifstream in(std::string(MINTRI_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in) << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

const char* const kNumbers[] = {
    "-1",         "0",          "-0",          "65537",
    "2147483647", "2147483648", "-2147483649", "4294967297",
    "10000000",   "1e9",        "nan",         "99999999999999999999"};

std::string Mutate(std::string text, Rng* rng) {
  const int edits = 1 + static_cast<int>(rng->NextBounded(3));
  for (int e = 0; e < edits; ++e) {
    const size_t span = rng->NextBool(0.5)
                            ? std::min<size_t>(text.size(), 32)
                            : text.size();
    const size_t pos = rng->NextBounded(span + 1);
    switch (rng->NextBounded(4)) {
      case 0:
        if (pos < text.size()) {
          text[pos] = static_cast<char>(rng->NextBounded(256));
        }
        break;
      case 1:
        text.erase(pos, 1 + rng->NextBounded(8));
        break;
      case 2:
        text.resize(pos);
        break;
      default:
        text.insert(pos, kNumbers[rng->NextBounded(std::size(kNumbers))]);
        break;
    }
  }
  return text;
}

// Runs `check` on kParserMutations mutants of `seeds` (round-robin).
template <typename Check>
void FuzzParser(const std::vector<std::string>& seeds, uint64_t rng_seed,
                Check check) {
  Rng rng(rng_seed);
  int accepted = 0;
  for (int i = 0; i < kParserMutations; ++i) {
    const std::string input = Mutate(seeds[i % seeds.size()], &rng);
    SCOPED_TRACE("mutation " + std::to_string(i));
    if (check(input)) ++accepted;
    if (::testing::Test::HasFailure()) return;
  }
  // Some mutants must still parse, or the checks above never ran.
  EXPECT_GT(accepted, 0);
}

TEST(ParserFuzz, DimacsMutantsAreRejectedOrValid) {
  std::vector<std::string> seeds;
  for (const char* name :
       {"c4.gr", "disconnected.gr", "paper_example.gr", "grid_32x32.gr"}) {
    seeds.push_back(ReadSeed(name));
  }
  FuzzParser(seeds, 7101, [](const std::string& input) {
    std::optional<Graph> g = ParseDimacsString(input);
    if (!g.has_value()) return false;
    EXPECT_LE(g->NumVertices(), kMaxInputVertices);
    std::ostringstream out;
    WriteDimacs(*g, out);
    EXPECT_EQ(ParseDimacsString(out.str()), g);
    return true;
  });
}

TEST(ParserFuzz, HypergraphMutantsAreRejectedOrValid) {
  std::ostringstream tpch;
  WriteHypergraph(workloads::TpchQueryHypergraph(workloads::TpchQueryGraph(5)),
                  tpch);
  FuzzParser({ReadSeed("triangle.hg"), tpch.str()}, 7102,
             [](const std::string& input) {
               std::optional<Hypergraph> h = ParseHypergraphString(input);
               if (!h.has_value()) return false;
               EXPECT_LE(h->NumVertices(), kMaxInputVertices);
               EXPECT_EQ(h->PrimalGraph().NumVertices(), h->NumVertices());
               std::ostringstream out, again;
               WriteHypergraph(*h, out);
               std::optional<Hypergraph> reparsed =
                   ParseHypergraphString(out.str());
               EXPECT_TRUE(reparsed.has_value());
               if (reparsed.has_value()) WriteHypergraph(*reparsed, again);
               EXPECT_EQ(again.str(), out.str());
               return true;
             });
}

TEST(ParserFuzz, UaiMutantsAreRejectedOrValid) {
  std::ostringstream grid;
  WriteUaiModel(workloads::GridMrf(2, 3, 7), grid);
  FuzzParser(
      {ReadSeed("chain3.uai"), grid.str()}, 7103, [](const std::string& input) {
        std::optional<GraphicalModel> m = ParseUaiModelString(input);
        if (!m.has_value()) return false;
        const int n = static_cast<int>(m->domains.size());
        EXPECT_LE(n, kMaxInputVertices);
        for (const Factor& f : m->factors) {
          EXPECT_TRUE(std::is_sorted(f.scope.begin(), f.scope.end()));
          size_t size = 1;
          for (int v : f.scope) {
            EXPECT_TRUE(v >= 0 && v < n) << v;
            if (v >= 0 && v < n) size *= static_cast<size_t>(m->domains[v]);
          }
          EXPECT_EQ(f.table.size(), size);
        }
        EXPECT_EQ(m->MarkovGraph().NumVertices(), n);
        std::ostringstream out, again;
        WriteUaiModel(*m, out);
        std::optional<GraphicalModel> reparsed =
            ParseUaiModelString(out.str());
        EXPECT_TRUE(reparsed.has_value());
        if (reparsed.has_value()) WriteUaiModel(*reparsed, again);
        EXPECT_EQ(again.str(), out.str());
        return true;
      });
}

// Command-line fuzzing. Each vector is a valid rank, batch or bench command
// line with one to three edits: an argument dropped, duplicated, truncated,
// given a random byte, or given a value from kNumbers. Every input stops
// its command before any solve — rank reads an unparseable stdin or a
// missing file, batch a missing list file, and every bench vector ends in
// --help — so each must exit 0 or 1, and an exit 1 writes its reason to
// stderr and nothing to stdout.
constexpr int kArgMutations = 2000;

std::vector<std::string> MutateArgs(std::vector<std::string> args, Rng* rng) {
  const int edits = 1 + static_cast<int>(rng->NextBounded(3));
  for (int e = 0; e < edits && !args.empty(); ++e) {
    const size_t i = rng->NextBounded(args.size());
    std::string& arg = args[i];
    switch (rng->NextBounded(5)) {
      case 0:
        args.erase(args.begin() + static_cast<long>(i));
        break;
      case 1: {
        const std::string copy = arg;
        args.insert(args.begin() + static_cast<long>(
                                       rng->NextBounded(args.size() + 1)),
                    copy);
        break;
      }
      case 2:
        arg.resize(rng->NextBounded(arg.size() + 1));
        break;
      case 3:
        // argv strings hold no NUL.
        if (!arg.empty()) {
          arg[rng->NextBounded(arg.size())] =
              static_cast<char>(1 + rng->NextBounded(255));
        }
        break;
      default:
        arg = arg.substr(0, arg.find('=') + 1) +
              kNumbers[rng->NextBounded(std::size(kNumbers))];
        break;
    }
  }
  return args;
}

void FuzzCommandLine(const std::string& command,
                     const std::vector<std::string>& valid, bool end_in_help,
                     uint64_t rng_seed) {
  Rng rng(rng_seed);
  int accepted = 0;
  for (int i = 0; i < kArgMutations; ++i) {
    std::vector<std::string> args = MutateArgs(valid, &rng);
    args.insert(args.begin(), command);
    if (end_in_help) args.push_back("--help");
    std::string line;
    for (const std::string& arg : args) line += " [" + arg + "]";
    SCOPED_TRACE("mutation " + std::to_string(i) + ":" + line);
    std::istringstream in("not an instance");
    std::ostringstream out, err;
    int code = -1;
    EXPECT_NO_THROW(code = RunCli(args, in, out, err));
    EXPECT_TRUE(code == 0 || code == 1) << code;
    if (code == 1) {
      EXPECT_FALSE(err.str().empty());
      EXPECT_EQ(out.str(), "");
    }
    accepted += code == 0;
    if (::testing::Test::HasFailure()) return;
  }
  // Bench's --help must answer some of the mutants.
  if (end_in_help) {
    EXPECT_GT(accepted, 0);
  }
}

TEST(CliFuzz, RankArgumentMutants) {
  FuzzCommandLine("rank",
                  {"--cost=fill", "--top=3", "--algo=ckk", "--bound=2",
                   "--format=td", "--input=hg", "--time-limit=5",
                   "--threads=2", "--tier=exact", "--stats",
                   "/nonexistent/g.gr"},
                  /*end_in_help=*/false, 7201);
}

TEST(CliFuzz, BatchArgumentMutants) {
  FuzzCommandLine("batch",
                  {"/nonexistent/list.txt", "--cost=fhw", "--top=2",
                   "--threads=2", "--inner-threads=2", "--deadline=2",
                   "--time-limit=5", "--tier=heuristic", "--stats",
                   "--stats-json=/nonexistent/s.json",
                   "--out=/nonexistent/o.jsonl"},
                  /*end_in_help=*/false, 7202);
}

TEST(CliFuzz, BenchArgumentMutants) {
  FuzzCommandLine("bench",
                  {"minseps", "pmc", "all", "--smoke", "--quiet",
                   "--threads=2", "--out=/nonexistent/b.json"},
                  /*end_in_help=*/true, 7203);
}

// The batch list reader on random bytes, biased towards the characters its
// rules are about: every spec it returns is one non-empty, trimmed line
// that is not a '#' comment.
TEST(CliFuzz, InstanceListReaderOnRandomBytes) {
  static const char kAlphabet[] = " \t\r\n#ab:/.";
  Rng rng(7204);
  for (int i = 0; i < kParserMutations; ++i) {
    std::string text(rng.NextBounded(64), '\0');
    for (char& c : text) {
      c = rng.NextBool(0.75)
              ? kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]
              : static_cast<char>(rng.NextBounded(256));
    }
    std::istringstream in(text);
    const std::vector<std::string> specs = ReadInstanceList(in);
    SCOPED_TRACE("input " + std::to_string(i));
    const auto lines = std::count(text.begin(), text.end(), '\n') + 1;
    EXPECT_LE(specs.size(), static_cast<size_t>(lines));
    for (const std::string& spec : specs) {
      ASSERT_FALSE(spec.empty());
      EXPECT_EQ(spec.find('\n'), std::string::npos) << spec;
      EXPECT_EQ(std::string(" \t\r").find(spec.front()), std::string::npos)
          << spec;
      EXPECT_EQ(std::string(" \t\r").find(spec.back()), std::string::npos)
          << spec;
      EXPECT_NE(spec.front(), '#') << spec;
    }
  }
}

}  // namespace
}  // namespace mintri
