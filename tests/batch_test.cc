// The batched multi-query driver: instances fan across the thread pool
// (parallel across queries), yet the records — and the serialized JSON —
// must be identical at every --threads / inner-threads split.

#include "cli/batch.h"

#include <gtest/gtest.h>

#include <sstream>

#include "test_util.h"

namespace mintri {
namespace {

// Serialization with wall-clock timings masked: every ranked result, count,
// and cache statistic must be thread-count-invariant; elapsed seconds are
// not.
std::string Serialize(const std::vector<BatchRecord>& records) {
  std::ostringstream os;
  WriteBatchJson(records, os);
  return testutil::MaskTimings(os.str());
}

std::vector<std::string> TpchSpecs() {
  return {"tpch:2", "tpch:5", "tpch:7", "tpch:8", "tpch:9", "tpch:20"};
}

TEST(BatchTest, DeterministicAcrossThreadCounts) {
  for (const char* cost : {"fhw", "hypertree"}) {
    BatchOptions options;
    options.cost = cost;
    options.top = 3;
    options.threads = 1;
    std::string serial = Serialize(RunBatch(TpchSpecs(), options));
    for (int threads : {2, 4, 8}) {
      options.threads = threads;
      EXPECT_EQ(Serialize(RunBatch(TpchSpecs(), options)), serial)
          << cost << " at " << threads << " threads";
    }
  }
}

TEST(BatchTest, DeterministicAcrossInnerThreads) {
  BatchOptions options;
  options.cost = "fhw";
  options.top = 2;
  options.threads = 2;
  options.inner_threads = 1;
  std::string serial = Serialize(RunBatch(TpchSpecs(), options));
  options.inner_threads = 4;
  EXPECT_EQ(Serialize(RunBatch(TpchSpecs(), options)), serial);
}

TEST(BatchTest, StateSpaceOverGraphicalModels) {
  std::vector<std::string> specs = {"gm:grid3x3", "gm:chain10", "gm:bn12",
                                    "gm:bn16", "gm:grid4x3"};
  BatchOptions options;
  options.cost = "state-space";
  options.top = 2;
  options.threads = 1;
  std::vector<BatchRecord> serial = RunBatch(specs, options);
  ASSERT_EQ(serial.size(), specs.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].instance, specs[i]);
    EXPECT_EQ(serial[i].status, "ok") << serial[i].error;
    EXPECT_FALSE(serial[i].results.empty());
    // state-space ranks by the junction-tree table total: positive and
    // nondecreasing within an instance.
    double last = 0;
    for (const BatchRecord::Row& row : serial[i].results) {
      EXPECT_GT(row.cost, 0.0);
      EXPECT_GE(row.cost, last);
      last = row.cost;
    }
  }
  options.threads = 4;
  EXPECT_EQ(Serialize(RunBatch(specs, options)), Serialize(serial));
}

TEST(BatchTest, CacheHitsReportedForEdgeCoverCosts) {
  BatchOptions options;
  options.cost = "fhw";
  options.top = 5;
  std::vector<BatchRecord> records = RunBatch({"tpch:5"}, options);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, "ok");
  EXPECT_GT(records[0].stats.cache.lookups, 0);
  EXPECT_GT(records[0].stats.cache.hits, 0);
}

TEST(BatchTest, BadSpecsAreRecordedNotFatal) {
  BatchOptions options;
  options.threads = 3;
  std::vector<BatchRecord> records = RunBatch(
      {"tpch:5", "no-such-file.gr", "tpch:99", "gm:nope"}, options);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].status, "ok");
  EXPECT_EQ(records[1].status, "load-error");
  EXPECT_EQ(records[2].status, "load-error");
  EXPECT_EQ(records[3].status, "load-error");
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_FALSE(records[i].error.empty());
    EXPECT_TRUE(records[i].results.empty());
  }
}

TEST(BatchTest, JsonShape) {
  BatchOptions options;
  options.cost = "fhw";
  options.top = 1;
  std::string json = Serialize(RunBatch({"tpch:5"}, options));
  for (const char* key :
       {"\"instance\": \"tpch:5\"", "\"cost\": \"fhw\"",
        "\"status\": \"ok\"", "\"cache\": {\"lookups\": ", "\"hits\": ",
        "\"results\": [{\"rank\": 1, "}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
}

}  // namespace
}  // namespace mintri
