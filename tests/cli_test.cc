#include "cli/cli.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace mintri {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult Invoke(const std::vector<std::string>& args, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out, err;
  int code = RunCli(args, in, out, err);
  return {code, out.str(), err.str()};
}

constexpr char kC4[] =
    "p tw 4 4\n"
    "1 2\n2 3\n3 4\n4 1\n";

TEST(CliTest, RankedSummaryOnC4) {
  CliResult r = Invoke({"--cost=fill", "--top=10"}, kC4);
  EXPECT_EQ(r.code, 0) << r.err;
  // C4 has exactly two minimal triangulations, both fill 1.
  EXPECT_NE(r.out.find("#1 cost=1 width=2 fill=1"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("#2 cost=1 width=2 fill=1"), std::string::npos);
  EXPECT_EQ(r.out.find("#3"), std::string::npos);
}

TEST(CliTest, TdFormatIsWellFormed) {
  CliResult r = Invoke({"--format=td", "--top=1"}, kC4);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("s td 2 3 4\n"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("b 1 "), std::string::npos);
  EXPECT_NE(r.out.find("b 2 "), std::string::npos);
}

TEST(CliTest, CkkBaseline) {
  CliResult r = Invoke({"--algo=ckk", "--top=10"}, kC4);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("#2"), std::string::npos);
  EXPECT_EQ(r.out.find("#3"), std::string::npos);
}

TEST(CliTest, BoundedWidth) {
  // Width bound 1 on C4: infeasible, no output rows but exit 0.
  CliResult r = Invoke({"--bound=1"}, kC4);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.find("#1"), std::string::npos);
}

TEST(CliTest, DisconnectedGraphWorksWithRanked) {
  CliResult r = Invoke({"--cost=fill", "--top=5"},
                    "p tw 8 8\n1 2\n2 3\n3 4\n4 1\n5 6\n6 7\n7 8\n8 5\n");
  EXPECT_EQ(r.code, 0) << r.err;
  // Two C4s: 2x2 = 4 minimal triangulations, total fill 2 each.
  EXPECT_NE(r.out.find("#4 cost=2"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("#5"), std::string::npos);
}

TEST(CliTest, HelpPrintsUsageAndExitsZero) {
  CliResult r = Invoke({"--help"}, "");
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("usage: mintri"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("--cost="), std::string::npos);
  EXPECT_EQ(Invoke({"-h"}, "").code, 0);
}

TEST(CliTest, ErrorsAreReported) {
  EXPECT_EQ(Invoke({"--cost=bogus"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--algo=bogus"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--fancy"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--top=1O"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--bound="}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--time-limit=3O"}, kC4).code, 1);
  EXPECT_EQ(Invoke({}, "not a graph").code, 1);
  EXPECT_EQ(Invoke({"nonexistent_file.gr"}, "").code, 1);
}

TEST(CliTest, NumericFlagOverflowIsRejected) {
  // strtoll saturates to LLONG_MAX on overflow without an errno check —
  // these used to parse "successfully". Worse, --bound=2^32+1 silently
  // truncated to bound=1 through the long long → int narrowing.
  EXPECT_EQ(Invoke({"--top=99999999999999999999"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--bound=4294967297"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--bound=99999999999999999999"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--time-limit=1e999"}, kC4).code, 1);
  CliResult bad = Invoke({"--top=99999999999999999999"}, kC4);
  EXPECT_NE(bad.err.find("invalid value for --top"), std::string::npos)
      << bad.err;
}

TEST(CliTest, StatsReportSolverCounters) {
  // --stats' record carries the solver's repair counters; the segment-tree
  // index does real work on any stream that needs a repair.
  CliResult r = Invoke({"--cost=fill", "--top=10", "--stats"}, kC4);
  EXPECT_EQ(r.code, 0) << r.err;
  const size_t line = r.err.find("\"solver\": {\"optimizer_calls\": ");
  ASSERT_NE(line, std::string::npos) << r.err;
  const std::string key = "\"index_updates\": ";
  const size_t at = r.err.find(key, line);
  ASSERT_NE(at, std::string::npos) << r.err;
  EXPECT_GT(std::stoll(r.err.substr(at + key.size())), 0) << r.err;
}

TEST(CliTest, ThreadsFlagValidation) {
  // 0, negative, garbage, empty, and absurd counts are all rejected up
  // front — including values whose low 32 bits would truncate to a small
  // "valid" int.
  EXPECT_EQ(Invoke({"--threads=0"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--threads=-2"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--threads=two"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--threads=2x"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--threads="}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--threads=500000"}, kC4).code, 1);
  EXPECT_EQ(Invoke({"--threads=4294967297"}, kC4).code, 1);
  CliResult bad = Invoke({"--threads=0"}, kC4);
  EXPECT_NE(bad.err.find("invalid value for --threads"), std::string::npos)
      << bad.err;

  // A valid thread count runs the normal pipeline to the same answer.
  CliResult r = Invoke({"--threads=2", "--cost=fill", "--top=10"}, kC4);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("#1 cost=1 width=2 fill=1"), std::string::npos)
      << r.out;
  EXPECT_EQ(r.out.find("#3"), std::string::npos);
}

TEST(CliTest, BenchThreadsFlag) {
  EXPECT_EQ(Invoke({"bench", "--threads=0"}, "").code, 1);
  EXPECT_EQ(Invoke({"bench", "--threads=-1"}, "").code, 1);
  EXPECT_EQ(Invoke({"bench", "--threads=garbage"}, "").code, 1);
  EXPECT_EQ(Invoke({"bench", "--threads=1000000"}, "").code, 1);

  // --threads=2 pins every entry of the report to two threads.
  CliResult r = Invoke(
      {"bench", "minseps", "--smoke", "--quiet", "--threads=2", "--out=-"},
      "");
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"threads\": 2"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("\"threads\": 1"), std::string::npos) << r.out;
}

TEST(CliTest, StateSpaceCost) {
  CliResult r = Invoke({"--cost=state-space", "--top=1"}, kC4);
  EXPECT_EQ(r.code, 0) << r.err;
  // Two bags of 3 binary variables: 8 + 8 = 16.
  EXPECT_NE(r.out.find("cost=16"), std::string::npos) << r.out;
}

TEST(CliTest, BenchHelpAndArgumentValidation) {
  CliResult help = Invoke({"bench", "--help"}, "");
  EXPECT_EQ(help.code, 0) << help.err;
  EXPECT_NE(help.out.find("usage: mintri bench"), std::string::npos)
      << help.out;
  EXPECT_NE(help.out.find("BENCH_core.json"), std::string::npos);

  EXPECT_EQ(Invoke({"bench", "bogus-suite"}, "").code, 1);
  EXPECT_EQ(Invoke({"bench", "--bogus-flag"}, "").code, 1);
}

TEST(CliTest, RankSubcommandIsTheBareAliasSpelled) {
  CliResult bare = Invoke({"--cost=fill", "--top=10"}, kC4);
  CliResult rank = Invoke({"rank", "--cost=fill", "--top=10"}, kC4);
  EXPECT_EQ(rank.code, 0) << rank.err;
  EXPECT_EQ(rank.out, bare.out);
}

TEST(CliTest, FhwOnTpchHypergraphBuiltin) {
  // TPC-H Q5's join cycle: the cheapest decomposition has fhw 2.
  CliResult r = Invoke({"rank", "--cost=fhw", "--top=1", "tpch:5"}, "");
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("#1 cost=2"), std::string::npos) << r.out;
  // The acyclic Q3 chain has fhw 1.
  CliResult acyclic =
      Invoke({"rank", "--cost=fhw", "--top=1", "tpch:3"}, "");
  EXPECT_EQ(acyclic.code, 0) << acyclic.err;
  EXPECT_NE(acyclic.out.find("#1 cost=1"), std::string::npos) << acyclic.out;
}

TEST(CliTest, HypertreeCostRequiresHypergraphInstance) {
  CliResult r = Invoke({"--cost=hypertree"}, kC4);
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("hypergraph"), std::string::npos) << r.err;
  EXPECT_EQ(Invoke({"--cost=fhw"}, kC4).code, 1);
}

TEST(CliTest, HypergraphOnStdin) {
  // The triangle query as a .hg stream: ghw 2, fhw 1.5.
  const char* kTriangle = "p hg 3 3\n1 2\n2 3\n3 1\n";
  CliResult ghw =
      Invoke({"--input=hg", "--cost=hypertree", "--top=1"}, kTriangle);
  EXPECT_EQ(ghw.code, 0) << ghw.err;
  EXPECT_NE(ghw.out.find("#1 cost=2"), std::string::npos) << ghw.out;
  CliResult fhw = Invoke({"--input=hg", "--cost=fhw", "--top=1"}, kTriangle);
  EXPECT_EQ(fhw.code, 0) << fhw.err;
  EXPECT_NE(fhw.out.find("#1 cost=1.5"), std::string::npos) << fhw.out;
  EXPECT_EQ(Invoke({"--input=hg"}, "not a hypergraph").code, 1);
  EXPECT_EQ(Invoke({"--input=bogus"}, kTriangle).code, 1);
}

TEST(CliTest, UaiModelOnStdin) {
  // Two binary variables, one pairwise factor: a single 2-variable bag,
  // state space 4.
  const char* kModel =
      "MARKOV\n2\n2 2\n1\n2 0 1\n4 1 2 3 4\n";
  CliResult r =
      Invoke({"--input=uai", "--cost=state-space", "--top=1"}, kModel);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("#1 cost=4"), std::string::npos) << r.out;
}

TEST(CliTest, StatsReportCacheHitRate) {
  CliResult r =
      Invoke({"rank", "--cost=fhw", "--top=5", "--stats", "tpch:5"}, "");
  EXPECT_EQ(r.code, 0) << r.err;
  const size_t cache = r.err.find("\"cache\": {\"lookups\": ");
  ASSERT_NE(cache, std::string::npos) << r.err;
  EXPECT_NE(r.err.find("\"hit_rate\": ", cache), std::string::npos) << r.err;
}

TEST(CliTest, BatchCommand) {
  CliResult help = Invoke({"batch", "--help"}, "");
  EXPECT_EQ(help.code, 0) << help.err;
  EXPECT_NE(help.out.find("usage: mintri batch"), std::string::npos);

  EXPECT_EQ(Invoke({"batch"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "no-such-list.txt"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--threads=0"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--inner-threads=-1"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--top=0"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--top=-3"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--time-limit=-1"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--time-limit=0"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--bogus"}, "").code, 1);
  // The batch parser is the same strict one as rank/bench: overflow and
  // trailing garbage are rejected, not silently accepted (the old
  // istringstream parser and cli.cc's unchecked strtoll disagreed on both).
  EXPECT_EQ(Invoke({"batch", "x.txt", "--top=99999999999999999999"}, "").code,
            1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--threads=8abc"}, "").code, 1);
  EXPECT_EQ(
      Invoke({"batch", "x.txt", "--inner-threads=99999999999999999999"}, "")
          .code,
      1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--time-limit=1e999"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--time-limit=nan"}, "").code, 1);
  // rank applies the same count and budget rule: these used to print
  // nothing (--top) or silently run the heuristic tier (--time-limit).
  for (const char* flag :
       {"--top=0", "--top=-1", "--time-limit=-1", "--time-limit=nan"}) {
    CliResult r = Invoke({"rank", flag}, kC4);
    EXPECT_EQ(r.code, 1) << flag;
    EXPECT_TRUE(r.out.empty()) << flag << "\n" << r.out;
    EXPECT_NE(r.err.find("invalid value for --"), std::string::npos)
        << flag << "\n" << r.err;
  }
}

// Size fields the process cannot back used to abort it with std::bad_alloc:
// Graph(n) is dense (n²/8 bytes), and the .uai reader sized its scope list
// from the declared factor count. Each is now an ordinary input error.
TEST(CliTest, OversizedInputsAreErrorsNotAborts) {
  struct Case {
    const char* input_flag;
    const char* extension;
    const char* text;
    const char* reason;
  };
  const Case cases[] = {
      {"--input=gr", ".gr", "p tw 10000000 0\n",
       "declares 10000000 vertices, above the input limit of 65536"},
      {"--input=hg", ".hg", "p hg 10000000 0\n",
       "declares 10000000 vertices, above the input limit of 65536"},
      {"--input=uai", ".uai", "MARKOV\n2\n2 2\n2000000000\n",
       "declares 2000000000 factors but lists only 0"},
  };
  for (const Case& c : cases) {
    CliResult r = Invoke({"rank", c.input_flag}, c.text);
    EXPECT_EQ(r.code, 1) << c.input_flag;
    EXPECT_NE(r.err.find(c.reason), std::string::npos)
        << c.input_flag << "\n" << r.err;

    // In a batch list the same input yields an error record, not a crash.
    const std::string dir = ::testing::TempDir();
    const std::string instance = dir + "oversized" + c.extension;
    const std::string list = dir + "oversized_list.txt";
    std::ofstream(instance) << c.text;
    std::ofstream(list) << instance << "\n";
    CliResult b = Invoke({"batch", list}, "");
    EXPECT_EQ(b.code, 2) << c.input_flag << "\n" << b.err;
    EXPECT_NE(b.out.find("\"status\": \"load-error\""), std::string::npos)
        << b.out;
    EXPECT_NE(b.out.find(c.reason), std::string::npos) << b.out;
  }
}

TEST(CliTest, BatchDeadlineFlags) {
  CliResult help = Invoke({"batch", "--help"}, "");
  EXPECT_NE(help.out.find("--deadline="), std::string::npos) << help.out;
  EXPECT_NE(help.out.find("--stats"), std::string::npos) << help.out;

  // A deadline of zero (or less) would cut every instance before it
  // starts; the flag requires a positive budget.
  EXPECT_EQ(Invoke({"batch", "x.txt", "--deadline=0"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--deadline=-1"}, "").code, 1);
  EXPECT_EQ(Invoke({"batch", "x.txt", "--deadline=2s"}, "").code, 1);
  // The multi-process sandbox is gone.
  CliResult workers = Invoke({"batch", "x.txt", "--workers=2"}, "");
  EXPECT_EQ(workers.code, 1);
  EXPECT_NE(workers.err.find("unknown option"), std::string::npos)
      << workers.err;
}

TEST(CliTest, BenchSmokeEmitsSchemaShapedJson) {
  // The smallest real run: one suite, smoke-trimmed families, JSON on
  // stdout. Spot-checks the schema keys the validator enforces.
  CliResult r = Invoke({"bench", "minseps", "--smoke", "--quiet", "--out=-"},
                       "");
  EXPECT_EQ(r.code, 0) << r.err;
  for (const char* key :
       {"\"schema_version\": 2", "\"git_sha\"", "\"time_scale\"",
        "\"smoke\": true", "\"suites\": [\"minseps\"]", "\"entries\"",
        "\"results_per_sec\"", "\"wall_ms\"", "\"status\"",
        "\"threads\": 1", "\"solver\"", "\"candidate_evals\"",
        "\"index_updates\"", "\"range_queries\""}) {
    EXPECT_NE(r.out.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(CliTest, BenchRankedEmitsOnlyIndexedEntries) {
  CliResult r = Invoke(
      {"bench", "ranked", "--smoke", "--quiet", "--threads=1", "--out=-"},
      "");
  EXPECT_EQ(r.code, 0) << r.err;
  const auto count = [&r](const std::string& needle) {
    size_t n = 0;
    for (size_t at = r.out.find(needle); at != std::string::npos;
         at = r.out.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  // One entry per smoke graph, every one on the indexed solver.
  EXPECT_GT(count("\"suite\": \"ranked\""), 0u) << r.out;
  EXPECT_EQ(count("\"solver\": \"indexed\""),
            count("\"suite\": \"ranked\""))
      << r.out;
  EXPECT_EQ(count("\"solver\": \"scan\""), 0u) << r.out;
}

TEST(CliTest, BenchResultsPerSecIsAfterFirstResultThroughput) {
  // Every ranked suite reports results/s after the first result, so an
  // entry with at most one result has no rate to report.
  CliResult r = Invoke({"bench", "ranked", "appcost", "--smoke", "--quiet",
                        "--threads=1", "--out=-"},
                       "");
  EXPECT_EQ(r.code, 0) << r.err;
  size_t entries = 0;
  for (size_t at = r.out.find("{\"suite\": "); at != std::string::npos;
       at = r.out.find("{\"suite\": ", at + 1)) {
    const size_t end = r.out.find('}', at);
    const std::string entry = r.out.substr(at, end - at);
    const auto number = [&entry](const std::string& key) {
      const size_t pos = entry.find("\"" + key + "\": ");
      EXPECT_NE(pos, std::string::npos) << key << " missing in " << entry;
      return std::stod(entry.substr(pos + key.size() + 4));
    };
    ++entries;
    if (number("count") <= 1) {
      EXPECT_EQ(number("results_per_sec"), 0.0) << entry;
    }
  }
  EXPECT_GT(entries, 0u) << r.out;
  EXPECT_NE(r.out.find("\"suite\": \"appcost\""), std::string::npos);

  // The enum suite is folded into ranked.
  EXPECT_EQ(Invoke({"bench", "enum"}, "").code, 1);
}

}  // namespace
}  // namespace mintri
