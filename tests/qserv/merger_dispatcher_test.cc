#include <gtest/gtest.h>

#include <atomic>

#include "qserv/batch_codec.h"
#include "qserv/dispatcher.h"
#include "qserv/dump_integrity.h"
#include "qserv/merger.h"
#include "qserv/observables_codec.h"
#include "sql/dump.h"
#include "sql/rowcodec.h"
#include "util/md5.h"
#include "xrd/file_store.h"
#include "xrd/paths.h"

namespace qserv::core {
namespace {

// ------------------------------------------------------------------ merger

sql::TablePtr makeRows(const std::string& name, std::vector<int> values) {
  sql::Schema schema({{"v", sql::ColumnType::kInt}});
  auto t = std::make_shared<sql::Table>(name, schema);
  for (int v : values) {
    EXPECT_TRUE(t->appendRow(std::vector<sql::Value>{sql::Value(v)}).isOk());
  }
  return t;
}

/// \p payload sealed with the integrity trailer every chunk result carries.
std::string sealed(std::string payload) {
  appendDumpChecksum(payload);
  return payload;
}

/// A worker-shaped chunk result carrying \p values, with \p extra (e.g. the
/// observables line) between the rows and the trailer.
std::string resultOf(std::vector<int> values, const std::string& extra = "") {
  return sealed(
      sql::encodeTableBinary(*makeRows("r", std::move(values)), "r_x") +
      extra);
}

TEST(ResultMerger, UnionsDumpsIntoMergeTable) {
  ResultMerger merger("m");
  ASSERT_TRUE(merger.mergeResult(resultOf({1, 2})).isOk());
  ASSERT_TRUE(merger.mergeResult(resultOf({3})).isOk());
  EXPECT_EQ(merger.rowsMerged(), 3u);
  auto final = merger.finalize("SELECT SUM(v) FROM m");
  ASSERT_TRUE(final.isOk()) << final.status().toString();
  EXPECT_EQ((*final)->cell(0, 0).asInt(), 6);
}

TEST(ResultMerger, HandlesBinaryPayloads) {
  ResultMerger merger("m");
  ASSERT_TRUE(merger.mergeResult(resultOf({5, 7})).isOk());
  // A second binary result appends into the adopted merge table.
  ASSERT_TRUE(merger.mergeResult(resultOf({8})).isOk());
  auto final = merger.finalize("SELECT COUNT(*) AS n, SUM(v) FROM m");
  ASSERT_TRUE(final.isOk());
  EXPECT_EQ((*final)->cell(0, 0).asInt(), 3);
  EXPECT_EQ((*final)->cell(0, 1).asInt(), 20);
}

TEST(ResultMerger, ObservablesCommentIsHarmless) {
  ResultMerger merger("m");
  simio::WorkObservables obs;
  obs.rowsExamined = 9;
  std::string dump = resultOf({1}, encodeObservables(obs));
  ASSERT_TRUE(merger.mergeResult(dump).isOk());
  EXPECT_EQ(merger.rowsMerged(), 1u);
}

TEST(ResultMerger, EmptyDumpKeepsSchema) {
  ResultMerger merger("m");
  ASSERT_TRUE(merger.mergeResult(resultOf({})).isOk());
  auto final = merger.finalize("SELECT * FROM m");
  ASSERT_TRUE(final.isOk());
  EXPECT_EQ((*final)->numRows(), 0u);
  EXPECT_EQ((*final)->numColumns(), 1u);
}

TEST(ResultMerger, NoDumpsFinalizesEmpty) {
  ResultMerger merger("m");
  auto final = merger.finalize("SELECT * FROM m");
  ASSERT_TRUE(final.isOk());
  EXPECT_EQ((*final)->numRows(), 0u);
}

TEST(ResultMerger, MismatchedColumnCountFails) {
  ResultMerger merger("m");
  ASSERT_TRUE(merger.mergeResult(resultOf({1})).isOk());
  sql::Schema two({{"x", sql::ColumnType::kInt}, {"y", sql::ColumnType::kInt}});
  sql::Table wide("w", two);
  ASSERT_TRUE(wide.appendRow(std::vector<sql::Value>{sql::Value(1),
                                                     sql::Value(2)})
                  .isOk());
  EXPECT_FALSE(
      merger.mergeResult(sealed(sql::encodeTableBinary(wide, "r_b"))).isOk());
}

TEST(ResultMerger, GarbagePayloadFails) {
  ResultMerger merger("m");
  EXPECT_FALSE(merger.mergeResult("this is not a dump").isOk());
}

TEST(ResultMerger, SqlDumpTextIsNotAResult) {
  // The row codec is the only chunk-result format: dump text is rejected,
  // never replayed.
  ResultMerger merger("m");
  EXPECT_FALSE(
      merger.mergeResult(sealed(sql::dumpTable(*makeRows("a", {1}), "r_a")))
          .isOk());
  EXPECT_EQ(merger.rowsMerged(), 0u);
}

TEST(ResultMerger, BadResultLeavesMergeTableUntouched) {
  ResultMerger merger("m");
  ASSERT_TRUE(merger.mergeResult(resultOf({1, 2})).isOk());
  std::string truncated = resultOf({3, 4, 5});
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(merger.mergeResult(truncated).isOk());
  auto final = merger.finalize("SELECT COUNT(*), SUM(v) FROM m");
  ASSERT_TRUE(final.isOk());
  EXPECT_EQ((*final)->cell(0, 0).asInt(), 2);
  EXPECT_EQ((*final)->cell(0, 1).asInt(), 3);
}

TEST(ResultMerger, IntResultWidensIntoDoubleMergeColumn) {
  // Chunk results of one query may type a column differently (an INT
  // partial next to a DOUBLE one); the merge widens like appendFrom does.
  ResultMerger merger("m");
  sql::Table dbl("d", sql::Schema({{"v", sql::ColumnType::kDouble}}));
  ASSERT_TRUE(dbl.appendRow(std::vector<sql::Value>{sql::Value(0.5)}).isOk());
  ASSERT_TRUE(
      merger.mergeResult(sealed(sql::encodeTableBinary(dbl, "r_a"))).isOk());
  ASSERT_TRUE(merger.mergeResult(resultOf({2})).isOk());
  auto final = merger.finalize("SELECT SUM(v) FROM m");
  ASSERT_TRUE(final.isOk());
  EXPECT_DOUBLE_EQ((*final)->cell(0, 0).asDouble(), 2.5);
}

// --------------------------------------------------------------- dispatcher

/// Answer the batch request written to \p path: one result frame per chunk,
/// produced by \p answer, published on the batch's stream.
template <typename Answer>
util::Status answerBatch(xrd::FileStore& store, const std::string& path,
                         const std::string& payload, Answer answer) {
  auto batchId = xrd::parseBatchPath(path);
  if (!batchId) return util::Status::ok();  // /bcancel: nothing to stop
  auto request = decodeBatchRequest(payload);
  if (!request.isOk()) return request.status();
  for (const BatchChunkRequest& chunk : request->chunks) {
    store.publish(xrd::makeBatchStreamPath(*batchId),
                  answer(chunk.chunkId, chunk.payload));
  }
  return util::Status::ok();
}

/// A plugin whose first `failures` chunk executions fail transiently.
class FlakyPlugin : public xrd::OfsPlugin {
 public:
  FlakyPlugin(std::vector<std::int32_t> chunks, int failures)
      : chunks_(std::move(chunks)), failuresLeft_(failures) {}

  util::Status writeFile(const std::string& path, std::string payload) override {
    if (!xrd::parseBatchPath(path)) return util::Status::ok();
    ++writes_;
    return answerBatch(store_, path, payload,
                       [&](std::int32_t chunk, const std::string& query) {
      if (failuresLeft_.fetch_sub(1) > 0) {
        return encodeErrorFrame(chunk,
                                util::Status::unavailable("injected fault"));
      }
      std::string hash = util::Md5::hex(query);
      return encodeResultFrame(
          chunk, sealed(sql::encodeTableBinary(
                     *makeRows("r", {static_cast<int>(chunk)}), "r_" + hash)));
    });
  }

  util::Result<std::string> readFile(const std::string& path) override {
    return store_.waitFor(path, std::chrono::milliseconds(2000));
  }

  std::vector<std::int32_t> exportedChunks() const override { return chunks_; }

  int writes() const { return writes_.load(); }

 private:
  std::vector<std::int32_t> chunks_;
  std::atomic<int> failuresLeft_;
  std::atomic<int> writes_{0};
  xrd::FileStore store_;
};

TEST(Dispatcher, CollectsAllChunkResults) {
  auto redirector = std::make_shared<xrd::Redirector>();
  auto plugin = std::make_shared<FlakyPlugin>(std::vector<std::int32_t>{1, 2, 3},
                                              0);
  redirector->registerServer(
      std::make_shared<xrd::DataServer>("w0", plugin));
  Dispatcher dispatcher(redirector, 4);
  std::vector<ChunkQuerySpec> specs;
  for (std::int32_t c : {1, 2, 3}) {
    specs.push_back(ChunkQuerySpec{c, {}, "SELECT " + std::to_string(c)});
  }
  auto results = dispatcher.run(specs);
  ASSERT_TRUE(results.isOk()) << results.status().toString();
  EXPECT_EQ(results->size(), 3u);
  for (const auto& r : *results) {
    EXPECT_EQ(r.workerId, "w0");
    EXPECT_FALSE(r.dump.empty());
    // The dispatcher hashes the full payload: class header + query text.
    EXPECT_EQ(r.hash,
              util::Md5::hex(classHeaderLine(QueryClass::kScan) + "SELECT " +
                             std::to_string(r.chunkId)));
  }
}

TEST(Dispatcher, RetriesTransientFailures) {
  auto redirector = std::make_shared<xrd::Redirector>();
  auto plugin = std::make_shared<FlakyPlugin>(std::vector<std::int32_t>{7},
                                              /*failures=*/2);
  redirector->registerServer(std::make_shared<xrd::DataServer>("w0", plugin));
  Dispatcher dispatcher(redirector, 1, /*maxAttempts=*/3);
  auto results = dispatcher.run({ChunkQuerySpec{7, {}, "SELECT 7"}});
  ASSERT_TRUE(results.isOk()) << results.status().toString();
  EXPECT_EQ(plugin->writes(), 3);  // two injected faults, then success
}

TEST(Dispatcher, GivesUpAfterMaxAttempts) {
  auto redirector = std::make_shared<xrd::Redirector>();
  auto plugin = std::make_shared<FlakyPlugin>(std::vector<std::int32_t>{7},
                                              /*failures=*/100);
  redirector->registerServer(std::make_shared<xrd::DataServer>("w0", plugin));
  Dispatcher dispatcher(redirector, 1, /*maxAttempts=*/2);
  auto results = dispatcher.run({ChunkQuerySpec{7, {}, "SELECT 7"}});
  EXPECT_FALSE(results.isOk());
  EXPECT_EQ(results.status().code(), util::ErrorCode::kUnavailable);
}

TEST(Dispatcher, UnknownChunkFailsFast) {
  auto redirector = std::make_shared<xrd::Redirector>();
  Dispatcher dispatcher(redirector, 1);
  auto results = dispatcher.run({ChunkQuerySpec{99, {}, "SELECT 99"}});
  EXPECT_FALSE(results.isOk());
}

TEST(Dispatcher, ParsesInBandObservables) {
  auto redirector = std::make_shared<xrd::Redirector>();
  // A plugin whose dumps carry observables.
  class ObsPlugin : public xrd::OfsPlugin {
   public:
    util::Status writeFile(const std::string& path, std::string payload) override {
      return answerBatch(store_, path, payload,
                         [](std::int32_t chunk, const std::string&) {
        simio::WorkObservables obs;
        obs.bytesScanned = 12345;
        obs.rowsExamined = 67;
        return encodeResultFrame(chunk, resultOf({1}, encodeObservables(obs)));
      });
    }
    util::Result<std::string> readFile(const std::string& path) override {
      return store_.waitFor(path, std::chrono::milliseconds(1000));
    }
    std::vector<std::int32_t> exportedChunks() const override { return {5}; }

   private:
    xrd::FileStore store_;
  };
  redirector->registerServer(
      std::make_shared<xrd::DataServer>("w0", std::make_shared<ObsPlugin>()));
  Dispatcher dispatcher(redirector, 1);
  auto results = dispatcher.run({ChunkQuerySpec{5, {}, "SELECT 5"}});
  ASSERT_TRUE(results.isOk());
  EXPECT_DOUBLE_EQ((*results)[0].observables.bytesScanned, 12345.0);
  EXPECT_EQ((*results)[0].observables.rowsExamined, 67u);
}

}  // namespace
}  // namespace qserv::core
