#include "qserv/worker.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "datagen/partitioner.h"
#include "datagen/schemas.h"
#include "qserv/batch_codec.h"
#include "qserv/cluster.h"
#include "qserv/dump_integrity.h"
#include "qserv/merger.h"
#include "sql/rowcodec.h"
#include "util/md5.h"
#include "util/strings.h"
#include "xrd/paths.h"

namespace qserv::core {
namespace {

/// A one-worker fixture with a couple of real partitioned chunks.
class WorkerTest : public ::testing::Test {
 protected:
  WorkerTest() : config_(CatalogConfig::lsst(18, 6, 0.05)) {}

  void SetUp() override {
    SkyDataOptions data;
    data.basePatchObjects = 800;
    data.region = sphgeom::SphericalBox(0, -7, 7, 7);  // a few chunks
    auto catalog = buildSkyCatalog(config_, data);
    ASSERT_TRUE(catalog.isOk()) << catalog.status().toString();
    db_ = std::make_shared<sql::Database>("w0");
    std::size_t bestRows = 0;
    for (const auto& chunk : catalog->chunks) {
      ASSERT_TRUE(datagen::loadChunkIntoDatabase(*db_, chunk).isOk());
      ASSERT_TRUE(
          db_->createIndex(chunk.objects->name(), "subChunkId").isOk());
      chunks_.push_back(chunk.chunkId);
      // Edge chunks may carry only overlap rows; tests that need data use
      // the most populated chunk.
      if (chunk.objects->numRows() > bestRows) {
        bestRows = chunk.objects->numRows();
        populatedChunk_ = chunk.chunkId;
      }
    }
    ASSERT_FALSE(chunks_.empty());
    ASSERT_GT(bestRows, 0u);
  }

  std::unique_ptr<Worker> makeWorker(WorkerConfig wc = {}) {
    return std::make_unique<Worker>("w0", db_, config_, chunks_, wc);
  }

  /// A batch of one running template \p sql on \p chunk: bound as
  /// \p bindings say, over \p subChunks.
  static BatchRequest requestFor(std::int32_t chunk, const std::string& sql,
                                 std::vector<std::int32_t> subChunks = {},
                                 std::vector<TableBinding> bindings = {}) {
    BatchRequest request;
    request.templateHash = util::Md5::hex(sql);
    request.query.sql = sql;
    request.query.bindings = std::move(bindings);
    request.chunks = {{chunk, std::move(subChunks)}};
    return request;
  }

  /// Write \p request; returns the batch id.
  static util::Result<std::string> submit(Worker& w,
                                          const BatchRequest& request) {
    std::string wire = encodeBatchRequest(request);
    std::string batchId = util::Md5::hex(wire);
    QSERV_RETURN_IF_ERROR(
        w.writeFile(xrd::makeBatchPath(batchId), std::move(wire)));
    return batchId;
  }

  /// Write \p text, bound to nothing, for \p chunk as a batch of one.
  static util::Result<std::string> submit(Worker& w, std::int32_t chunk,
                                          const std::string& text) {
    return submit(w, requestFor(chunk, text));
  }

  /// The observables a published result body carries.
  static simio::WorkObservables observablesOf(const std::string& body) {
    auto decoded = VerifiedResult::decode(body);
    EXPECT_TRUE(decoded.isOk()) << decoded.status().toString();
    return decoded.isOk() ? decoded->observables() : simio::WorkObservables{};
  }

  /// Read the next frame of batch \p batchId: its result body, or the
  /// chunk's failure carried by an error frame.
  static util::Result<std::string> await(Worker& w,
                                         const std::string& batchId) {
    QSERV_ASSIGN_OR_RETURN(std::string bytes,
                           w.readFile(xrd::makeBatchStreamPath(batchId)));
    QSERV_ASSIGN_OR_RETURN(BatchResultFrame frame, decodeResultFrame(bytes));
    QSERV_RETURN_IF_ERROR(frame.status);
    return std::move(frame.body);
  }

  /// Round-trip one chunk query through the ofs interface.
  static util::Result<std::string> runQuery(Worker& w,
                                            const BatchRequest& request) {
    QSERV_ASSIGN_OR_RETURN(std::string batchId, submit(w, request));
    return await(w, batchId);
  }
  static util::Result<std::string> runQuery(Worker& w, std::int32_t chunk,
                                            const std::string& text) {
    return runQuery(w, requestFor(chunk, text));
  }

  CatalogConfig config_;
  std::shared_ptr<sql::Database> db_;
  std::vector<std::int32_t> chunks_;
  std::int32_t populatedChunk_ = -1;
};

TEST_F(WorkerTest, OnlyTracedBatchesCarryTheWorkerBlock) {
  auto w = makeWorker();
  BatchRequest request =
      requestFor(populatedChunk_, "SELECT objectId FROM Object", {},
                 {{0, TableBindingKind::kChunk}});
  auto untraced = runQuery(*w, request);
  ASSERT_TRUE(untraced.isOk()) << untraced.status().toString();
  request.traceId = 5;
  auto traced = runQuery(*w, request);
  ASSERT_TRUE(traced.isOk()) << traced.status().toString();

  // The untraced body is the table and the observables block, sealed; the
  // traced one is the same bytes with the worker block appended before
  // the trailer.
  auto plain = verifiedDumpBody(*untraced);
  auto withBlock = verifiedDumpBody(*traced);
  ASSERT_TRUE(plain.isOk() && withBlock.isOk());
  ASSERT_EQ(withBlock->size(), plain->size() + kWorkerBlockBytes);
  EXPECT_EQ(withBlock->substr(0, plain->size()), *plain);
  EXPECT_TRUE(VerifiedResult::decode(*untraced).isOk());
  EXPECT_FALSE(VerifiedResult::decode(*untraced, /*traced=*/true).isOk());

  auto decoded = VerifiedResult::decode(*traced, /*traced=*/true);
  ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
  ASSERT_TRUE(decoded->workerTimings().has_value());
  const WorkerTimings& t = *decoded->workerTimings();
  EXPECT_NE(t.threadId, 0u);
  EXPECT_LE(t.arrivedUs, t.claimedUs);
  EXPECT_LE(t.claimedUs, t.execStartUs);
  EXPECT_LE(t.execStartUs, t.execEndUs);
  EXPECT_EQ(t.resultRows, decoded->table()->numRows());
  EXPECT_EQ(t.subchunks, 0u);
}

TEST_F(WorkerTest, ExecutesChunkQueryAndPublishesDump) {
  auto w = makeWorker();
  std::int32_t chunk = populatedChunk_;
  // The template names the base table; the worker binds it to the chunk.
  auto dump = runQuery(
      *w, requestFor(chunk, "SELECT COUNT(*) AS QS0_COUNT FROM Object", {},
                     {{0, TableBindingKind::kChunk}}));
  ASSERT_TRUE(dump.isOk()) << dump.status().toString();
  EXPECT_TRUE(sql::isBinaryTablePayload(*dump));
  EXPECT_NE(dump->find("QS0_COUNT"), std::string::npos);
  auto decoded = VerifiedResult::decode(*dump);
  ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
  auto rows =
      db_->execute("SELECT COUNT(*) FROM Object_" + std::to_string(chunk));
  ASSERT_TRUE(rows.isOk());
  EXPECT_EQ(decoded->table()->cell(0, 0).asInt(), (*rows)->cell(0, 0).asInt());
  EXPECT_EQ(w->tasksExecuted(), 1u);
}

TEST_F(WorkerTest, RejectsUnknownChunk) {
  auto w = makeWorker();
  EXPECT_EQ(submit(*w, 999999, "SELECT 1;").status().code(),
            util::ErrorCode::kNotFound);
}

TEST_F(WorkerTest, RejectsNonQueryPath) {
  auto w = makeWorker();
  EXPECT_EQ(w->writeFile("/bogus/1", "x").code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(w->readFile("/bogus/1").status().code(),
            util::ErrorCode::kInvalidArgument);
}

TEST_F(WorkerTest, BadSqlPublishesError) {
  auto w = makeWorker();
  std::int32_t chunk = populatedChunk_;
  std::string q = "SELECT FROM WHERE;";
  auto batchId = submit(*w, chunk, q);
  ASSERT_TRUE(batchId.isOk());
  auto r = await(*w, *batchId);
  EXPECT_FALSE(r.isOk());
}

TEST_F(WorkerTest, UnrewrittenAreaspecFailsLoudly) {
  // A chunk query that still contains the frontend-only pseudo-function
  // must fail on the worker, not silently return everything.
  auto w = makeWorker();
  std::int32_t chunk = populatedChunk_;
  std::string q = "SELECT COUNT(*) FROM Object_" + std::to_string(chunk) +
                  " WHERE qserv_areaspec_box(0,0,1,1);";
  auto batchId = submit(*w, chunk, q);
  ASSERT_TRUE(batchId.isOk());
  EXPECT_FALSE(await(*w, *batchId).isOk());
}

TEST_F(WorkerTest, ResultsAreOneShot) {
  WorkerConfig wc;
  wc.resultTimeout = std::chrono::milliseconds(200);
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  std::string q = "SELECT COUNT(*) AS c FROM Object_" +
                  std::to_string(chunk) + ";";
  auto batchId = submit(*w, chunk, q);
  ASSERT_TRUE(batchId.isOk());
  auto first = await(*w, *batchId);
  ASSERT_TRUE(first.isOk());
  // The frame was consumed on read; a second read times out.
  auto second = w->readFile(xrd::makeBatchStreamPath(*batchId));
  EXPECT_FALSE(second.isOk());
  EXPECT_EQ(w->resultStreamsPending(), 0u);
}

TEST_F(WorkerTest, SubchunkBuildAndCleanup) {
  auto w = makeWorker();
  std::int32_t chunk = populatedChunk_;
  sphgeom::Chunker chunker = config_.makeChunker();
  std::int32_t sc = chunker.subChunksOf(chunk)[0];
  std::string scTable = datagen::subChunkTableName("Object", chunk, sc);
  std::string ovTable =
      datagen::subChunkTableName("ObjectFullOverlap", chunk, sc);
  auto dump = runQuery(
      *w, requestFor(chunk,
                     "SELECT COUNT(*) AS c FROM Object AS o1, Object AS o2",
                     {sc},
                     {{0, TableBindingKind::kSubChunk},
                      {1, TableBindingKind::kFullOverlap}}));
  ASSERT_TRUE(dump.isOk()) << dump.status().toString();
  // Tables are dropped after the task (no caching by default, like the
  // paper's implementation).
  EXPECT_FALSE(db_->hasTable(scTable));
  EXPECT_FALSE(db_->hasTable(ovTable));
}

TEST_F(WorkerTest, SubchunkCachingKeepsTables) {
  WorkerConfig wc;
  wc.cacheSubchunks = true;
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  sphgeom::Chunker chunker = config_.makeChunker();
  std::int32_t sc = chunker.subChunksOf(chunk)[0];
  std::string scTable = datagen::subChunkTableName("Object", chunk, sc);
  // A template bound to nothing still gets the listed subchunks built.
  ASSERT_TRUE(
      runQuery(*w, requestFor(chunk, "SELECT COUNT(*) AS c FROM " + scTable,
                              {sc}))
          .isOk());
  EXPECT_TRUE(db_->hasTable(scTable));
}

TEST_F(WorkerTest, SubchunkRowsPartitionTheChunk) {
  // Union of subchunk tables == chunk table rows (build correctness).
  WorkerConfig wc;
  wc.cacheSubchunks = true;
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  sphgeom::Chunker chunker = config_.makeChunker();
  auto subChunks = chunker.subChunksOf(chunk);
  // One execution per subchunk, unioned.
  auto counts = runQuery(
      *w, requestFor(chunk, "SELECT COUNT(*) AS c FROM Object", subChunks,
                     {{0, TableBindingKind::kSubChunk}}));
  ASSERT_TRUE(counts.isOk()) << counts.status().toString();
  auto perSubChunk = VerifiedResult::decode(*counts);
  ASSERT_TRUE(perSubChunk.isOk()) << perSubChunk.status().toString();
  EXPECT_EQ(perSubChunk->table()->numRows(), subChunks.size());
  // Sum the published counts directly from the database.
  auto total =
      db_->execute("SELECT COUNT(*) FROM Object_" + std::to_string(chunk));
  ASSERT_TRUE(total.isOk());
  std::int64_t expect = (*total)->cell(0, 0).asInt();
  std::int64_t got = 0;
  for (auto sc : subChunks) {
    auto r = db_->execute("SELECT COUNT(*) FROM " +
                          datagen::subChunkTableName("Object", chunk, sc));
    ASSERT_TRUE(r.isOk());
    got += (*r)->cell(0, 0).asInt();
  }
  EXPECT_EQ(got, expect);
}

TEST_F(WorkerTest, ObservablesScaleWithRowScale) {
  WorkerConfig wc;
  wc.rowScale = 100.0;
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  std::string q = "SELECT COUNT(*) AS c FROM Object_" +
                  std::to_string(chunk) + " WHERE ra_PS > 0;";
  auto dump = runQuery(*w, chunk, q);
  ASSERT_TRUE(dump.isOk());
  auto obs = observablesOf(*dump);
  auto rows =
      db_->execute("SELECT COUNT(*) FROM Object_" + std::to_string(chunk));
  ASSERT_TRUE(rows.isOk());
  auto n = static_cast<std::uint64_t>((*rows)->cell(0, 0).asInt());
  EXPECT_EQ(obs.rowsExamined, n * 100);
  // bytesScanned charges Object's paper row width.
  EXPECT_NEAR(obs.bytesScanned,
              static_cast<double>(n) * 100.0 * datagen::kObjectRowBytes,
              1.0);
}

TEST_F(WorkerTest, ParallelTasksAcrossSlots) {
  WorkerConfig wc;
  wc.slots = 4;
  auto w = makeWorker(wc);
  std::vector<std::string> batches;
  for (int i = 0; i < 12; ++i) {
    std::int32_t chunk = chunks_[static_cast<std::size_t>(i) % chunks_.size()];
    auto batchId = submit(*w, chunk,
                          "SELECT COUNT(*) AS c FROM Object_" +
                              std::to_string(chunk) + " WHERE ra_PS > " +
                              std::to_string(i) + ";");
    ASSERT_TRUE(batchId.isOk());
    batches.push_back(*batchId);
  }
  for (const auto& batchId : batches) {
    auto r = await(*w, batchId);
    EXPECT_TRUE(r.isOk()) << r.status().toString();
  }
  EXPECT_EQ(w->tasksExecuted(), 12u);
}

TEST_F(WorkerTest, SharedScanGroupChargesIoOnce) {
  WorkerConfig wc;
  wc.slots = 1;
  wc.scheduler = SchedulerMode::kSharedScan;
  wc.startPaused = true;  // stage the queue before any task is claimed
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  // Three distinct scans of the same chunk queued together.
  std::vector<std::string> queries;
  for (int i = 0; i < 3; ++i) {
    queries.push_back("SELECT COUNT(*) AS c FROM Object_" +
                      std::to_string(chunk) + " WHERE ra_PS > " +
                      std::to_string(i * 100) + ";");
  }
  std::vector<std::string> batches;
  for (const auto& q : queries) {
    auto batchId = submit(*w, chunk, q);
    ASSERT_TRUE(batchId.isOk());
    batches.push_back(*batchId);
  }
  w->resume();
  int charged = 0;
  for (const auto& batchId : batches) {
    auto r = await(*w, batchId);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    if (observablesOf(*r).bytesScanned > 0) ++charged;
  }
  // The whole group shares one scan: exactly one task pays the I/O.
  EXPECT_EQ(charged, 1);
}

TEST_F(WorkerTest, FifoChargesEveryScan) {
  WorkerConfig wc;
  wc.slots = 1;
  wc.scheduler = SchedulerMode::kFifo;
  wc.startPaused = true;
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  std::vector<std::string> queries;
  // Predicates must intersect the chunk's declination range: a scan whose
  // range misses it entirely is zone-map pruned and pays no I/O at all.
  for (int i = 0; i < 3; ++i) {
    queries.push_back("SELECT COUNT(*) AS c FROM Object_" +
                      std::to_string(chunk) + " WHERE decl_PS > " +
                      std::to_string(-100 - i * 100) + ";");
  }
  std::vector<std::string> batches;
  for (const auto& q : queries) {
    auto batchId = submit(*w, chunk, q);
    ASSERT_TRUE(batchId.isOk());
    batches.push_back(*batchId);
  }
  w->resume();
  int charged = 0;
  for (const auto& batchId : batches) {
    auto r = await(*w, batchId);
    ASSERT_TRUE(r.isOk());
    if (observablesOf(*r).bytesScanned > 0) ++charged;
  }
  EXPECT_EQ(charged, 3);
}

TEST_F(WorkerTest, InteractiveClassBypassesScanGroup) {
  WorkerConfig wc;
  wc.slots = 1;
  wc.scheduler = SchedulerMode::kSharedScan;
  wc.startPaused = true;
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  // Two scan-class queries plus one interactive-classed query, all on the
  // same chunk. The interactive task rides the priority lane: it must not
  // join the scan group, so it pays its own read while the group shares one.
  std::vector<BatchRequest> queries;
  for (int cut : {-100, -200, -300}) {
    queries.push_back(requestFor(chunk,
                                 "SELECT COUNT(*) AS c FROM Object_" +
                                     std::to_string(chunk) +
                                     " WHERE decl_PS > " +
                                     std::to_string(cut) + ";"));
  }
  queries.back().query.queryClass = QueryClass::kInteractive;
  std::vector<std::string> batches;
  for (const auto& q : queries) {
    auto batchId = submit(*w, q);
    ASSERT_TRUE(batchId.isOk());
    batches.push_back(*batchId);
  }
  w->resume();
  int charged = 0;
  for (const auto& batchId : batches) {
    auto r = await(*w, batchId);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    if (observablesOf(*r).bytesScanned > 0) ++charged;
  }
  EXPECT_EQ(charged, 2);  // one for the scan group, one for the interactive
}

TEST_F(WorkerTest, AbandonedGroupLeaderDoesNotEatIoCharge) {
  // Regression: the scan-I/O charge used to be hardwired to the group's
  // first task. When that leader belongs to an abandoned batch it is
  // skipped without executing — the charge must fall to the first task
  // that actually runs, or the group's bytesScanned is silently zero.
  WorkerConfig wc;
  wc.slots = 1;
  wc.scheduler = SchedulerMode::kSharedScan;
  wc.startPaused = true;
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  std::string batchQuery = "SELECT COUNT(*) AS c FROM Object_" +
                           std::to_string(chunk) + " WHERE decl_PS > -500;";
  BatchRequest leader = requestFor(chunk, batchQuery);
  leader.streamWindow = 4;
  std::string wire = encodeBatchRequest(leader);
  std::string batchId = util::Md5::hex(wire);
  ASSERT_TRUE(w->writeFile(xrd::makeBatchPath(batchId), wire).isOk());
  // A second scan of the same chunk queues behind it, into the same group.
  auto survivor = submit(*w, chunk,
                         "SELECT COUNT(*) AS c FROM Object_" +
                             std::to_string(chunk) + " WHERE decl_PS > -600;");
  ASSERT_TRUE(survivor.isOk());
  // Abandon the batch before any task is claimed: the leader is skipped.
  ASSERT_TRUE(w->writeFile(xrd::makeBatchCancelPath(batchId), "").isOk());
  w->resume();
  auto r = await(*w, *survivor);
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  EXPECT_GT(observablesOf(*r).bytesScanned, 0.0);
}

TEST_F(WorkerTest, QueuedTasksIncludesClaimedUnfinishedWork) {
  // Regression: queuedTasks()/ping used to report only the queue, so a
  // worker grinding through claimed work looked idle to the control plane.
  WorkerConfig wc;
  wc.slots = 1;
  auto w = makeWorker(wc);
  ASSERT_GE(chunks_.size(), 2u);
  std::int32_t a = chunks_[0], b = chunks_[1];
  // Stream window 1: the second chunk's publish blocks until the first
  // frame is read, pinning one claimed-but-unfinished task in the slot.
  BatchRequest request = requestFor(a, "SELECT COUNT(*) AS c FROM Object",
                                    {}, {{0, TableBindingKind::kChunk}});
  request.chunks.push_back({b, {}});
  request.streamWindow = 1;
  std::string wire = encodeBatchRequest(request);
  std::string batchId = util::Md5::hex(wire);
  ASSERT_TRUE(w->writeFile(xrd::makeBatchPath(batchId), wire).isOk());
  // Both tasks have executed once tasksExecuted()==2, but the second is
  // stuck publishing (window full): it is in-flight, not finished.
  while (w->tasksExecuted() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(w->queuedTasks(), 1u);
  auto ping = w->readFile(std::string(xrd::kPingPath));
  ASSERT_TRUE(ping.isOk());
  EXPECT_NE(ping->find(" queue=1 "), std::string::npos) << *ping;
  // Drain the stream; the in-flight task finishes and the depth drops.
  std::string streamPath = xrd::makeBatchStreamPath(batchId);
  ASSERT_TRUE(w->readFile(streamPath).isOk());
  ASSERT_TRUE(w->readFile(streamPath).isOk());
  while (w->queuedTasks() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(w->queuedTasks(), 0u);
}

TEST_F(WorkerTest, MalformedSubchunksHeaderFailsOnlyThatChunk) {
  // Subchunk ids that are not non-negative int32s refuse the whole batch at
  // decode: nothing may throw on an executor thread, which would take the
  // process down.
  auto w = makeWorker();
  std::int32_t chunk = populatedChunk_;
  sphgeom::Chunker chunker = config_.makeChunker();
  std::int32_t sc = chunker.subChunksOf(chunk)[0];
  const std::string count = "SELECT COUNT(*) AS c FROM Object";
  const std::vector<TableBinding> perSubChunk = {
      {0, TableBindingKind::kSubChunk}};
  std::string wire = encodeBatchRequest(requestFor(chunk, count, {sc},
                                                   perSubChunk));
  for (std::uint32_t id : {0x80000000u, 0xffffffffu}) {
    std::string bad = wire;
    for (int i = 0; i < 4; ++i) {
      bad[bad.size() - 4 + i] = static_cast<char>(id >> (8 * i));
    }
    EXPECT_EQ(w->writeFile(xrd::makeBatchPath(util::Md5::hex(bad)), bad)
                  .code(),
              util::ErrorCode::kInvalidArgument)
        << id;
  }

  // A chunk whose subchunk list a per-subchunk template cannot run on
  // fails that chunk's frame only; its batch sibling succeeds.
  BatchRequest mixed = requestFor(chunk, count, {}, perSubChunk);
  mixed.chunks.push_back({chunk, {sc}});
  mixed.streamWindow = 4;
  auto batchId = submit(*w, mixed);
  ASSERT_TRUE(batchId.isOk()) << batchId.status().toString();
  int failed = 0, succeeded = 0;
  for (int i = 0; i < 2; ++i) {
    auto frame = w->readFile(xrd::makeBatchStreamPath(*batchId));
    ASSERT_TRUE(frame.isOk()) << frame.status().toString();
    auto decoded = decodeResultFrame(*frame);
    ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
    EXPECT_EQ(decoded->chunkId, chunk);
    if (decoded->status.isOk()) {
      ++succeeded;
    } else {
      EXPECT_EQ(decoded->status.code(), util::ErrorCode::kInvalidArgument);
      ++failed;
    }
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(succeeded, 1);

  // The worker still answers the next query.
  auto next = runQuery(*w, requestFor(chunk, count, {},
                                      {{0, TableBindingKind::kChunk}}));
  ASSERT_TRUE(next.isOk()) << next.status().toString();
  EXPECT_TRUE(VerifiedResult::decode(*next).isOk());
}

TEST_F(WorkerTest, ShutdownRejectsNewWork) {
  auto w = makeWorker();
  w->shutdown();
  EXPECT_FALSE(submit(*w, chunks_[0], "SELECT 1;").isOk());
}

}  // namespace
}  // namespace qserv::core
