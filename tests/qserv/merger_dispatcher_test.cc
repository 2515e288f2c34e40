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
#include "util/metrics.h"
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

/// A worker-shaped chunk result carrying \p values: the rows, then the
/// observables block \p obs, then the trailer.
std::string resultOf(std::vector<int> values,
                     const simio::WorkObservables& obs = {}) {
  return sealed(
      sql::encodeTableBinary(*makeRows("r", std::move(values)), "r_x") +
      encodeObservables(obs));
}

/// Merge \p payload the only way a payload reaches a merge table: verify
/// and decode it first.
util::Status mergePayload(ResultMerger& merger, std::string_view payload) {
  QSERV_ASSIGN_OR_RETURN(VerifiedResult result,
                         VerifiedResult::decode(payload));
  return merger.merge(std::move(result));
}

/// A plan that runs \p sql as the final SELECT.
MergePlan finalSelect(std::string sql) {
  MergePlan plan;
  plan.finalSelectSql = std::move(sql);
  return plan;
}

TEST(ResultMerger, UnionsDumpsIntoMergeTable) {
  ResultMerger merger("m");
  ASSERT_TRUE(mergePayload(merger, resultOf({1, 2})).isOk());
  ASSERT_TRUE(mergePayload(merger, resultOf({3})).isOk());
  EXPECT_EQ(merger.rowsMerged(), 3u);
  auto final = merger.finalize(finalSelect("SELECT SUM(v) FROM m"));
  ASSERT_TRUE(final.isOk()) << final.status().toString();
  EXPECT_EQ((*final)->cell(0, 0).asInt(), 6);
}

TEST(ResultMerger, HandlesBinaryPayloads) {
  ResultMerger merger("m");
  ASSERT_TRUE(mergePayload(merger, resultOf({5, 7})).isOk());
  // A second binary result appends into the adopted merge table.
  ASSERT_TRUE(mergePayload(merger, resultOf({8})).isOk());
  auto final =
      merger.finalize(finalSelect("SELECT COUNT(*) AS n, SUM(v) FROM m"));
  ASSERT_TRUE(final.isOk());
  EXPECT_EQ((*final)->cell(0, 0).asInt(), 3);
  EXPECT_EQ((*final)->cell(0, 1).asInt(), 20);
}

TEST(ResultMerger, ObservablesCommentIsHarmless) {
  ResultMerger merger("m");
  simio::WorkObservables obs;
  obs.rowsExamined = 9;
  std::string dump = resultOf({1}, obs);
  ASSERT_TRUE(mergePayload(merger, dump).isOk());
  EXPECT_EQ(merger.rowsMerged(), 1u);
}

TEST(ResultMerger, EmptyDumpKeepsSchema) {
  ResultMerger merger("m");
  ASSERT_TRUE(mergePayload(merger, resultOf({})).isOk());
  auto final = merger.finalize(finalSelect("SELECT * FROM m"));
  ASSERT_TRUE(final.isOk());
  EXPECT_EQ((*final)->numRows(), 0u);
  EXPECT_EQ((*final)->numColumns(), 1u);
}

TEST(ResultMerger, NoDumpsFinalizesEmpty) {
  ResultMerger merger("m");
  auto final = merger.finalize(finalSelect("SELECT * FROM m"));
  ASSERT_TRUE(final.isOk());
  EXPECT_EQ((*final)->numRows(), 0u);
}

TEST(ResultMerger, MismatchedColumnCountFails) {
  ResultMerger merger("m");
  ASSERT_TRUE(mergePayload(merger, resultOf({1})).isOk());
  sql::Schema two({{"x", sql::ColumnType::kInt}, {"y", sql::ColumnType::kInt}});
  sql::Table wide("w", two);
  ASSERT_TRUE(wide.appendRow(std::vector<sql::Value>{sql::Value(1),
                                                     sql::Value(2)})
                  .isOk());
  EXPECT_FALSE(
      mergePayload(merger, sealed(sql::encodeTableBinary(wide, "r_b") +
                                  encodeObservables({})))
          .isOk());
}

TEST(ResultMerger, GarbagePayloadFails) {
  ResultMerger merger("m");
  EXPECT_FALSE(mergePayload(merger, "this is not a dump").isOk());
}

TEST(ResultMerger, SqlDumpTextIsNotAResult) {
  // The row codec is the only chunk-result format: dump text is rejected,
  // never replayed.
  ResultMerger merger("m");
  EXPECT_FALSE(
      mergePayload(merger, sealed(sql::dumpTable(*makeRows("a", {1}), "r_a") +
                                  encodeObservables({})))
          .isOk());
  EXPECT_EQ(merger.rowsMerged(), 0u);
}

TEST(ResultMerger, BadResultLeavesMergeTableUntouched) {
  ResultMerger merger("m");
  ASSERT_TRUE(mergePayload(merger, resultOf({1, 2})).isOk());
  std::string truncated = resultOf({3, 4, 5});
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(mergePayload(merger, truncated).isOk());
  auto final = merger.finalize(finalSelect("SELECT COUNT(*), SUM(v) FROM m"));
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
      mergePayload(merger, sealed(sql::encodeTableBinary(dbl, "r_a") +
                                  encodeObservables({})))
          .isOk());
  ASSERT_TRUE(mergePayload(merger, resultOf({2})).isOk());
  auto final = merger.finalize(finalSelect("SELECT SUM(v) FROM m"));
  ASSERT_TRUE(final.isOk());
  EXPECT_DOUBLE_EQ((*final)->cell(0, 0).asDouble(), 2.5);
}

TEST(ResultMerger, ResealedTruncatedTableFailsToMerge) {
  // Bytes cut from the table and resealed with a valid trailer: the MD5
  // holds, so only the codec can tell. Before the decoder knew where a
  // table ends it read the observables line's first bytes as the last
  // value and merged a wrong number.
  simio::WorkObservables obs;
  obs.rowsExamined = 3;
  std::string table =
      sql::encodeTableBinary(*makeRows("r", {3, 4, 5}), "r_x");
  std::string cut = sealed(table.substr(0, table.size() - 3) +
                           encodeObservables(obs));
  std::string padded = sealed(table + "xyz" + encodeObservables(obs));
  ResultMerger merger("m");
  ASSERT_TRUE(mergePayload(merger, resultOf({1, 2})).isOk());
  for (const std::string& bad : {cut, padded}) {
    auto decoded = VerifiedResult::decode(bad);
    ASSERT_FALSE(decoded.isOk());
    EXPECT_EQ(decoded.status().code(), util::ErrorCode::kInvalidArgument);
    EXPECT_FALSE(mergePayload(merger, bad).isOk());
  }
  auto final = merger.finalize(finalSelect("SELECT COUNT(*), SUM(v) FROM m"));
  ASSERT_TRUE(final.isOk());
  EXPECT_EQ((*final)->cell(0, 0).asInt(), 2);
  EXPECT_EQ((*final)->cell(0, 1).asInt(), 3);
}

TEST(ResultMerger, DamagedTrailerIsDataLoss) {
  // The dispatcher re-fetches kDataLoss from another replica; anything else
  // fails the query.
  std::string damaged = resultOf({1});
  damaged[2] ^= 0x20;
  auto decoded = VerifiedResult::decode(damaged);
  ASSERT_FALSE(decoded.isOk());
  EXPECT_EQ(decoded.status().code(), util::ErrorCode::kDataLoss);
}

TEST(ResultMerger, IdentityPlanReturnsTheMergeTableAsTheFinalSelectWould) {
  // SELECT * over the merge table and the identity shortcut must agree on
  // names, types, NULLs and row order.
  sql::Schema schema({{"id", sql::ColumnType::kInt},
                      {"flux", sql::ColumnType::kDouble},
                      {"name", sql::ColumnType::kString}});
  auto chunk = [&](int base) {
    sql::Table t("r", schema);
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(t.appendRow(std::vector<sql::Value>{
                                  sql::Value(base + i),
                                  i == 1 ? sql::Value::null()
                                         : sql::Value(base * 0.5 + i),
                                  i == 2 ? sql::Value::null()
                                         : sql::Value("n" + std::to_string(i))})
                      .isOk());
    }
    simio::WorkObservables obs;
    return sealed(sql::encodeTableBinary(t, "r_x") + encodeObservables(obs));
  };
  MergePlan identity = finalSelect("SELECT * FROM m");
  identity.identity = true;
  ResultMerger direct("m");
  ResultMerger executed("m");
  for (int base : {10, 20}) {
    ASSERT_TRUE(mergePayload(direct, chunk(base)).isOk());
    ASSERT_TRUE(mergePayload(executed, chunk(base)).isOk());
  }
  auto& selects = util::MetricsRegistry::instance().counter(
      "merger.final_selects");
  std::uint64_t before = selects.value();
  auto got = direct.finalize(identity);
  ASSERT_TRUE(got.isOk()) << got.status().toString();
  EXPECT_EQ(selects.value(), before);  // nothing parsed or executed
  auto want = executed.finalize(finalSelect("SELECT * FROM m"));
  ASSERT_TRUE(want.isOk()) << want.status().toString();
  EXPECT_EQ(selects.value(), before + 1);
  EXPECT_EQ((*got)->name(), (*want)->name());
  ASSERT_EQ((*got)->numColumns(), (*want)->numColumns());
  ASSERT_EQ((*got)->numRows(), (*want)->numRows());
  for (std::size_t c = 0; c < (*want)->numColumns(); ++c) {
    EXPECT_EQ((*got)->schema().column(c).name,
              (*want)->schema().column(c).name);
    EXPECT_EQ((*got)->schema().column(c).type,
              (*want)->schema().column(c).type);
    for (std::size_t r = 0; r < (*want)->numRows(); ++r) {
      EXPECT_EQ((*got)->cell(r, c).compare((*want)->cell(r, c)), 0)
          << "row " << r << " col " << c;
      EXPECT_EQ((*got)->cell(r, c).isNull(), (*want)->cell(r, c).isNull());
    }
  }
}

// --------------------------------------------------------------- dispatcher

/// The template the fake workers below answer without running it.
const ChunkQueryTemplate kSelectOne{"SELECT 1", {}, false, QueryClass::kScan};

/// Answer the batch request written to \p path: one result frame per chunk,
/// produced by \p answer, published on the batch's stream.
template <typename Answer>
util::Status answerBatch(xrd::FileStore& store, const std::string& path,
                         const std::string& payload, Answer answer) {
  auto batchId = xrd::parseBatchPath(path);
  if (!batchId) return util::Status::ok();  // /bcancel: nothing to stop
  auto request = decodeBatchRequest(payload);
  if (!request.isOk()) return request.status();
  for (const ChunkQuerySpec& chunk : request->chunks) {
    store.publish(xrd::makeBatchStreamPath(*batchId),
                  answer(chunk.chunkId, *request));
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
                       [&](std::int32_t chunk, const BatchRequest& request) {
      if (failuresLeft_.fetch_sub(1) > 0) {
        return encodeErrorFrame(chunk,
                                util::Status::unavailable("injected fault"));
      }
      return encodeResultFrame(
          chunk, sealed(sql::encodeTableBinary(
                            *makeRows("r", {static_cast<int>(chunk)}),
                            "r_" + request.templateHash) +
                        encodeObservables({})));
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
  for (std::int32_t c : {1, 2, 3}) specs.push_back(ChunkQuerySpec{c, {}});
  auto results = dispatcher.run(kSelectOne, specs);
  ASSERT_TRUE(results.isOk()) << results.status().toString();
  EXPECT_EQ(results->size(), 3u);
  for (const auto& r : *results) {
    EXPECT_EQ(r.workerId, "w0");
    ASSERT_NE(r.rows.table(), nullptr);
    EXPECT_EQ(r.rows.table()->numRows(), 1u);
    // A result's identity is (template MD5, chunk id).
    EXPECT_EQ(r.hash, util::Md5::hex(kSelectOne.sql));
  }
}

TEST(Dispatcher, RetriesTransientFailures) {
  auto redirector = std::make_shared<xrd::Redirector>();
  auto plugin = std::make_shared<FlakyPlugin>(std::vector<std::int32_t>{7},
                                              /*failures=*/2);
  redirector->registerServer(std::make_shared<xrd::DataServer>("w0", plugin));
  Dispatcher dispatcher(redirector, 1, /*maxAttempts=*/3);
  auto results = dispatcher.run(kSelectOne, {ChunkQuerySpec{7, {}}});
  ASSERT_TRUE(results.isOk()) << results.status().toString();
  EXPECT_EQ(plugin->writes(), 3);  // two injected faults, then success
}

TEST(Dispatcher, GivesUpAfterMaxAttempts) {
  auto redirector = std::make_shared<xrd::Redirector>();
  auto plugin = std::make_shared<FlakyPlugin>(std::vector<std::int32_t>{7},
                                              /*failures=*/100);
  redirector->registerServer(std::make_shared<xrd::DataServer>("w0", plugin));
  Dispatcher dispatcher(redirector, 1, /*maxAttempts=*/2);
  auto results = dispatcher.run(kSelectOne, {ChunkQuerySpec{7, {}}});
  EXPECT_FALSE(results.isOk());
  EXPECT_EQ(results.status().code(), util::ErrorCode::kUnavailable);
}

TEST(Dispatcher, UnknownChunkFailsFast) {
  auto redirector = std::make_shared<xrd::Redirector>();
  Dispatcher dispatcher(redirector, 1);
  auto results = dispatcher.run(kSelectOne, {ChunkQuerySpec{99, {}}});
  EXPECT_FALSE(results.isOk());
}

TEST(Dispatcher, ParsesInBandObservables) {
  auto redirector = std::make_shared<xrd::Redirector>();
  // A plugin whose dumps carry observables.
  class ObsPlugin : public xrd::OfsPlugin {
   public:
    util::Status writeFile(const std::string& path, std::string payload) override {
      return answerBatch(store_, path, payload,
                         [](std::int32_t chunk, const BatchRequest&) {
        simio::WorkObservables obs;
        obs.bytesScanned = 12345;
        obs.rowsExamined = 67;
        return encodeResultFrame(chunk, resultOf({1}, obs));
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
  auto results = dispatcher.run(kSelectOne, {ChunkQuerySpec{5, {}}});
  ASSERT_TRUE(results.isOk());
  EXPECT_DOUBLE_EQ((*results)[0].rows.observables().bytesScanned, 12345.0);
  EXPECT_EQ((*results)[0].rows.observables().rowsExamined, 67u);
}

}  // namespace
}  // namespace qserv::core
