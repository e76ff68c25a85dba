// `mintri batch` end to end, in process: the output stream of one run is
// byte-identical at every --threads × --inner-threads split, and the
// per-instance --deadline turns an instance that would run for minutes into
// a truthful "timeout" record while the rest of the list is unaffected.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/batch.h"
#include "graph/graph_io.h"
#include "test_util.h"
#include "util/timer.h"

namespace mintri {
namespace {

std::vector<std::string> TpchSpecs() {
  return {"tpch:2", "tpch:5", "tpch:7", "tpch:8", "tpch:9", "tpch:20"};
}

// The 20×20 grid hypergraph: under the hypertree cost its exact edge covers
// run for minutes without a deadline.
std::string GridHypergraph() {
  return std::string(MINTRI_TEST_DATA_DIR) + "/grid_20x20.hg";
}

// A temp file holding one spec per line.
std::string WriteList(const std::string& name,
                      const std::vector<std::string>& specs) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  for (const std::string& s : specs) out << s << "\n";
  return path;
}

struct CommandResult {
  int code = 0;
  std::string out;
  std::string err;
};

// Runs RunBatchCommand over a spec list; the output's timers are zeroed so
// that it is byte-comparable.
CommandResult RunBatchCli(const std::vector<std::string>& specs,
                          const std::vector<std::string>& extra_args) {
  std::vector<std::string> args = {WriteList("batch_list.txt", specs),
                                   "--cost=fhw", "--top=2"};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::ostringstream out, err;
  const int code = RunBatchCommand(args, out, err);
  return {code, testutil::MaskTimings(out.str()), err.str()};
}

TEST(BatchShardTest, ByteIdenticalAcrossThreadsAndInnerThreads) {
  const CommandResult baseline = RunBatchCli(TpchSpecs(), {});
  ASSERT_EQ(baseline.code, 0) << baseline.err;
  for (int threads : {1, 2, 3, 6}) {
    for (int inner : {1, 2}) {
      const CommandResult r = RunBatchCli(
          TpchSpecs(), {"--threads=" + std::to_string(threads),
                        "--inner-threads=" + std::to_string(inner)});
      EXPECT_EQ(r.code, 0) << r.err;
      EXPECT_EQ(r.out, baseline.out)
          << "threads=" << threads << " inner-threads=" << inner;
    }
  }
}

TEST(BatchShardTest, GenerousDeadlineChangesNothing) {
  const CommandResult baseline = RunBatchCli(TpchSpecs(), {"--threads=2"});
  const CommandResult r =
      RunBatchCli(TpchSpecs(), {"--threads=2", "--deadline=600"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out, baseline.out);
}

TEST(BatchShardTest, LoadErrorsAreIdenticalAcrossThreads) {
  const std::vector<std::string> specs = {"tpch:5", "no-such-file.gr",
                                          "tpch:7", "gm:nope"};
  const CommandResult baseline = RunBatchCli(specs, {});
  EXPECT_EQ(baseline.code, 2);
  const CommandResult r = RunBatchCli(specs, {"--threads=3"});
  EXPECT_EQ(r.code, 2);
  EXPECT_EQ(r.out, baseline.out);
}

TEST(BatchShardTest, EmptyListIsRejected) {
  const CommandResult r = RunBatchCli({}, {"--threads=3"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("no instances listed"), std::string::npos) << r.err;
  EXPECT_TRUE(r.out.empty());
}

TEST(BatchShardTest, DeadlineCutsOnlyTheSlowInstance) {
  // The grid's hypertree covers would run for minutes; its deadline ends
  // it as a timeout record, and the TPC-H instances around it come out
  // exactly as in a run without the slow instance and the deadline.
  BatchOptions options;
  options.cost = "hypertree";
  options.top = 3;
  options.threads = 2;
  const std::vector<BatchRecord> quick =
      RunBatch({"tpch:5", "tpch:7"}, options);

  options.deadline = 2;
  WallTimer timer;
  const std::vector<BatchRecord> records =
      RunBatch({"tpch:5", GridHypergraph(), "tpch:7"}, options);
  EXPECT_LT(timer.Seconds(), 60.0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].status, "timeout");
  EXPECT_NE(records[1].error.find("--deadline=2"), std::string::npos)
      << records[1].error;
  EXPECT_EQ(records[1].n, 400);

  std::ostringstream expected, got;
  WriteBatchJson(quick, expected);
  WriteBatchJson({records[0], records[2]}, got);
  EXPECT_EQ(testutil::MaskTimings(got.str()),
            testutil::MaskTimings(expected.str()));
}

TEST(BatchShardTest, TimeoutRecordKeepsTheRowsEmittedBeforeExpiry) {
  // A 5×5 grid has far more minimal triangulations than a few seconds of
  // streaming deliver: the record is a timeout that carries every row
  // ranked before the deadline, in rank order. The budget leaves room for
  // the context build (tens of milliseconds) under the sanitizers.
  Graph grid(25);
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 5; ++c) {
      if (c + 1 < 5) grid.AddEdge(5 * r + c, 5 * r + c + 1);
      if (r + 1 < 5) grid.AddEdge(5 * r + c, 5 * (r + 1) + c);
    }
  }
  const std::string path = ::testing::TempDir() + "grid_5x5.gr";
  {
    std::ofstream out(path);
    WriteDimacs(grid, out);
  }
  BatchOptions options;
  options.cost = "fill";
  options.top = 100000000;
  options.deadline = 4;
  const std::vector<BatchRecord> records = RunBatch({path}, options);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, "timeout");
  ASSERT_FALSE(records[0].results.empty());
  for (size_t i = 0; i < records[0].results.size(); ++i) {
    EXPECT_EQ(records[0].results[i].rank, static_cast<int>(i) + 1);
    if (i > 0) {
      EXPECT_GE(records[0].results[i].cost, records[0].results[i - 1].cost);
    }
  }
}

TEST(BatchShardTest, StatsReportTheAggregate) {
  // --stats prints the aggregate as one JSON line on stderr, and
  // --stats-json writes the same object.
  const std::string stats_path = ::testing::TempDir() + "batch_stats.json";
  std::ostringstream out, err;
  const int code = RunBatchCommand(
      {WriteList("stats_list.txt", TpchSpecs()), "--cost=fhw", "--top=1",
       "--threads=2", "--stats", "--stats-json=" + stats_path},
      out, err);
  EXPECT_EQ(code, 0) << err.str();

  std::ifstream stats_file(stats_path);
  std::stringstream stats_json;
  stats_json << stats_file.rdbuf();
  const std::string line = stats_json.str();
  EXPECT_NE(err.str().find(line), std::string::npos)
      << err.str() << "\n" << line;
  for (const char* key :
       {"\"batch_stats_version\": 3", "\"threads\": 2", "\"instances\": 6",
        "\"ok\": 6", "\"failed\": 0", "\"cache\": {\"lookups\": ",
        "\"hit_rate\": "}) {
    EXPECT_NE(line.find(key), std::string::npos) << key << "\n" << line;
  }
  EXPECT_EQ(line.find("worker"), std::string::npos) << line;
}

}  // namespace
}  // namespace mintri
