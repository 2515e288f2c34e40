/// \file batch_fault_test.cc
/// \brief Fault injection against batched dispatch (§7.6 remedy): a
/// rejected batch write must send its chunks to replicas as batches of one,
/// a worker dying mid-stream must cost only its undelivered chunks (retried
/// on a replica), corrupted stream frames must be caught by the per-chunk
/// MD5 trailer — never merged — and abandoned streams must leave no state
/// behind on the workers. Runs under `ctest -L faults`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "qserv/cluster.h"
#include "qserv/dispatcher.h"
#include "qserv/query_analysis.h"
#include "qserv/query_rewriter.h"
#include "util/metrics.h"

namespace qserv::core {
namespace {

class BatchFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new CatalogConfig(CatalogConfig::lsst(18, 6, 0.05));
    SkyDataOptions data;
    data.basePatchObjects = 400;
    data.withSources = false;
    data.region = sphgeom::SphericalBox(0, -7, 14, 7);
    auto sky = buildSkyCatalog(*catalog_, data);
    ASSERT_TRUE(sky.isOk()) << sky.status().toString();
    sky_ = new datagen::PartitionedCatalog(std::move(sky).value());

    // Fault-free answers from a clean batched cluster.
    ClusterOptions clean;
    clean.frontend.catalog = *catalog_;
    clean.numWorkers = 3;
    auto cluster = MiniCluster::create(clean, *sky_);
    ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
    oracle_ = new std::vector<sql::TablePtr>();
    for (const auto& q : queries()) {
      auto r = (*cluster)->frontend().query(q);
      ASSERT_TRUE(r.isOk()) << q << ": " << r.status().toString();
      oracle_->push_back(r->result);
    }
  }

  static void TearDownTestSuite() {
    delete oracle_;
    oracle_ = nullptr;
    delete sky_;
    sky_ = nullptr;
    delete catalog_;
    catalog_ = nullptr;
  }

  static const std::vector<std::string>& queries() {
    static const std::vector<std::string> kQueries = {
        "SELECT COUNT(*) FROM Object",
        "SELECT COUNT(*), AVG(ra_PS) FROM Object WHERE decl_PS > 0",
        "SELECT MIN(objectId), MAX(objectId) FROM Object",
    };
    return kQueries;
  }

  /// Faulty-cluster base options: replicated chunks, fast retries, a hang
  /// backstop.
  static ClusterOptions faultyOptions() {
    ClusterOptions opts;
    opts.frontend.catalog = *catalog_;
    opts.numWorkers = 3;
    opts.replication = 2;
    opts.frontend.dispatchMaxAttempts = 6;
    opts.frontend.dispatchBackoff.base = std::chrono::microseconds(500);
    opts.frontend.dispatchBackoff.cap = std::chrono::microseconds(5'000);
    opts.frontend.queryDeadlineSeconds = 30.0;
    return opts;
  }

  /// Run every query on \p cluster; each must succeed with the fault-free
  /// answer, cell for cell (silent corruption is the one unforgivable
  /// outcome). Returns the executions for accounting checks.
  static std::vector<QservFrontend::Execution> runAllAgainstOracle(
      MiniCluster& cluster) {
    std::vector<QservFrontend::Execution> execs;
    for (std::size_t qi = 0; qi < queries().size(); ++qi) {
      const auto& sql = queries()[qi];
      auto r = cluster.frontend().query(sql);
      EXPECT_TRUE(r.isOk()) << sql << ": " << r.status().toString();
      if (!r.isOk()) continue;
      const auto& want = (*oracle_)[qi];
      EXPECT_EQ(r->result->numRows(), want->numRows()) << sql;
      EXPECT_EQ(r->result->numColumns(), want->numColumns()) << sql;
      if (r->result->numRows() != want->numRows() ||
          r->result->numColumns() != want->numColumns()) {
        continue;
      }
      for (std::size_t row = 0; row < want->numRows(); ++row) {
        for (std::size_t col = 0; col < want->numColumns(); ++col) {
          EXPECT_EQ(r->result->cell(row, col).compare(want->cell(row, col)),
                    0)
              << sql << " row " << row << " col " << col;
        }
      }
      execs.push_back(std::move(r).value());
    }
    return execs;
  }

  static CatalogConfig* catalog_;
  static datagen::PartitionedCatalog* sky_;
  static std::vector<sql::TablePtr>* oracle_;
};

CatalogConfig* BatchFaultTest::catalog_ = nullptr;
datagen::PartitionedCatalog* BatchFaultTest::sky_ = nullptr;
std::vector<sql::TablePtr>* BatchFaultTest::oracle_ = nullptr;

/// Helper: metrics-counter delta around a block.
class CounterDelta {
 public:
  CounterDelta() : before_(util::MetricsRegistry::instance().snapshot()) {}
  void stop() { after_ = util::MetricsRegistry::instance().snapshot(); }
  std::uint64_t operator()(const char* name) const {
    auto b = before_.counters.count(name) ? before_.counters.at(name) : 0;
    auto a = after_.counters.count(name) ? after_.counters.at(name) : 0;
    return a - b;
  }

 private:
  util::MetricsSnapshot before_;
  util::MetricsSnapshot after_;
};

TEST_F(BatchFaultTest, BatchWritesRejectedFallBackToPerChunk) {
  // Worker 0 rejects every write to a /batch/ path. Its chunks must fall
  // back to per-chunk dispatch — batches of one, answered by the replicas —
  // and every query still returns the oracle's answer: batching is an
  // optimization, never a new failure mode.
  ClusterOptions opts = faultyOptions();
  auto plan = xrd::FaultPlan::parse("write:path=/batch/,fail");
  ASSERT_TRUE(plan.isOk()) << plan.status().toString();
  opts.workerFaults[0] = *plan;
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();

  CounterDelta delta;
  auto execs = runAllAgainstOracle(**cluster);
  delta.stop();

  ASSERT_EQ(execs.size(), queries().size());
  std::size_t totalChunks = 0;
  for (const auto& e : execs) {
    totalChunks += e.chunksDispatched;
    // No chunk result came from the worker that rejects every batch.
    for (const auto& a : e.accounting) EXPECT_NE(a.workerId, "w0");
  }
  EXPECT_GT(delta("faultinj.write_faults"), 0u);
  // The rejected chunks were retried, and every chunk was delivered.
  EXPECT_GT(delta("dispatch.batch_chunk_retries"), 0u);
  EXPECT_GT(delta("xrd.stream_reads"), 0u);
  EXPECT_GE(delta("dispatch.chunks_ok"), totalChunks);
}

TEST_F(BatchFaultTest, WorkerDiesMidStreamOnlyItsChunksRetry) {
  // Worker 0 serves one stream read then latches down. Chunks already
  // delivered stay merged; undelivered chunks of its batch are retried on
  // the replica worker — chunk-level failure handling, not query-level.
  ClusterOptions opts = faultyOptions();
  auto plan = xrd::FaultPlan::parse("read:after=1,down");
  ASSERT_TRUE(plan.isOk()) << plan.status().toString();
  opts.workerFaults[0] = *plan;
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();

  CounterDelta delta;
  auto execs = runAllAgainstOracle(**cluster);
  delta.stop();

  ASSERT_EQ(execs.size(), queries().size());
  EXPECT_TRUE((*cluster)->injector(0)->isDown());
  // The dead worker cost chunk retries with replica exclusion, and the
  // retried chunks came back from elsewhere.
  EXPECT_GT(delta("dispatch.batch_chunk_retries"), 0u);
  EXPECT_GT(delta("dispatch.replica_exclusions"), 0u);
  std::size_t totalChunks = 0;
  for (const auto& e : execs) totalChunks += e.chunksDispatched;
  EXPECT_GE(delta("dispatch.chunks_ok"), totalChunks);
}

TEST_F(BatchFaultTest, CorruptStreamFramesCaughtByChecksumNeverMerged) {
  // Worker 0 corrupts most of its stream reads. Corruption lands either in
  // a frame header (counted as a damaged frame, chunk re-fetched) or in a
  // frame body (caught by the per-chunk MD5 trailer). Both end in a clean
  // batch-of-one retry on the replica; the merger must never see corrupt
  // data.
  ClusterOptions opts = faultyOptions();
  auto plan = xrd::FaultPlan::parse("seed=20260808; read:p=0.6,corrupt");
  ASSERT_TRUE(plan.isOk()) << plan.status().toString();
  opts.workerFaults[0] = *plan;
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();

  CounterDelta delta;
  auto execs = runAllAgainstOracle(**cluster);
  delta.stop();

  ASSERT_EQ(execs.size(), queries().size());
  EXPECT_GT(delta("faultinj.corruptions"), 0u);
  EXPECT_GT(delta("dispatch.checksum_mismatches") +
                delta("dispatch.damaged_frames"),
            0u);
  EXPECT_GT(delta("dispatch.batch_chunk_retries"), 0u);
  // The integrity gate: nothing corrupt ever reached the merger.
  EXPECT_EQ(delta("merger.checksum_rejects"), 0u);
}

TEST_F(BatchFaultTest, AbandonedStreamsLeaveNoWorkerState) {
  // Every result-frame read crawls, so a tight query deadline expires
  // mid-stream and the dispatcher abandons batches whose frames are still
  // queued or yet to be produced. A second cluster forces batches of one
  // (worker 0 rejects every batch). Once the tasks drain, no worker may
  // hold an unread result frame: a long-running worker's result store stays
  // bounded.
  auto slowFrames = xrd::FaultPlan::parse("read:path=/bstream/,delay=30");
  ASSERT_TRUE(slowFrames.isOk()) << slowFrames.status().toString();
  auto rejectBatches = xrd::FaultPlan::parse("write:path=/batch/,fail");
  ASSERT_TRUE(rejectBatches.isOk()) << rejectBatches.status().toString();

  ClusterOptions deadlineOpts = faultyOptions();
  deadlineOpts.frontend.queryDeadlineSeconds = 0.02;
  deadlineOpts.faults = *slowFrames;
  ClusterOptions retryOpts = faultyOptions();
  retryOpts.workerFaults[0] = *rejectBatches;

  auto drained = [](MiniCluster& cluster) {
    for (std::size_t w = 0; w < cluster.numWorkers(); ++w) {
      for (int i = 0; i < 5000 && cluster.worker(w).queuedTasks() > 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_EQ(cluster.worker(w).queuedTasks(), 0u) << "worker " << w;
      EXPECT_EQ(cluster.worker(w).resultStreamsPending(), 0u)
          << "worker " << w;
    }
  };

  auto deadlineCluster = MiniCluster::create(deadlineOpts, *sky_);
  ASSERT_TRUE(deadlineCluster.isOk()) << deadlineCluster.status().toString();
  CounterDelta delta;
  for (int round = 0; round < 3; ++round) {
    for (const auto& sql : queries()) {
      auto r = (*deadlineCluster)->frontend().query(sql);
      if (!r.isOk()) {
        EXPECT_EQ(r.status().code(), util::ErrorCode::kDeadlineExceeded)
            << sql;
      }
    }
  }
  delta.stop();
  EXPECT_GT(delta("dispatch.deadline_exceeded"), 0u);
  drained(**deadlineCluster);

  auto retryCluster = MiniCluster::create(retryOpts, *sky_);
  ASSERT_TRUE(retryCluster.isOk()) << retryCluster.status().toString();
  ASSERT_EQ(runAllAgainstOracle(**retryCluster).size(), queries().size());
  drained(**retryCluster);
}

TEST_F(BatchFaultTest, OneDispatchThreadAnswersFourWorkerFullSky) {
  // With a pool of one, the caller collects one batch and the pool the
  // other three in turn: still every chunk, the oracle's answer.
  ClusterOptions opts;
  opts.frontend.catalog = *catalog_;
  opts.numWorkers = 4;
  opts.frontend.dispatchParallelism = 1;
  opts.frontend.dispatchStreamWindow = 2;
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  auto execs = runAllAgainstOracle(**cluster);
  ASSERT_EQ(execs.size(), queries().size());
  for (const auto& e : execs) EXPECT_EQ(e.dispatchBatches, 4u);
}

TEST_F(BatchFaultTest, MergeFailureMidStreamCancelsSiblingsAndDrainsWorkers) {
  // A sink that fails on its third result stands in for a merge failure:
  // the run must stop its sibling batches, and every worker must end with
  // no queued task and no unread frame.
  ClusterOptions opts;
  opts.frontend.catalog = *catalog_;
  opts.numWorkers = 4;
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  auto analyzed = analyzeQuery("SELECT objectId, ra_PS FROM Object", *catalog_);
  ASSERT_TRUE(analyzed.isOk()) << analyzed.status().toString();
  sphgeom::Chunker chunker = catalog_->makeChunker();
  auto rewrite = QueryRewriter(*catalog_, chunker)
                     .rewrite(*analyzed,
                              (*cluster)->frontend().availableChunks(), "m");
  ASSERT_TRUE(rewrite.isOk()) << rewrite.status().toString();
  ASSERT_GT(rewrite->chunkQueries.size(), 8u);

  DispatcherConfig config;
  config.streamWindow = 1;
  Dispatcher dispatcher((*cluster)->redirector(), config);
  std::atomic<int> delivered{0};
  CounterDelta delta;
  auto report = dispatcher.runStreamed(
      rewrite->chunkTemplate, rewrite->chunkQueries, [&](ChunkResult&&) {
        return ++delivered == 3 ? util::Status::invalidArgument("merge broke")
                                : util::Status::ok();
      });
  delta.stop();
  ASSERT_FALSE(report.isOk());
  EXPECT_EQ(report.status().code(), util::ErrorCode::kAborted);
  EXPECT_NE(report.status().message().find("merge broke"), std::string::npos);
  EXPECT_LT(static_cast<std::size_t>(delivered.load()),
            rewrite->chunkQueries.size());
  EXPECT_GT(delta("dispatch.chunks_cancelled"), 0u);
  for (std::size_t w = 0; w < (*cluster)->numWorkers(); ++w) {
    auto& worker = (*cluster)->worker(w);
    for (int i = 0; i < 5000 && (worker.queuedTasks() > 0 ||
                                 worker.resultStreamsPending() > 0);
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(worker.queuedTasks(), 0u) << "worker " << w;
    EXPECT_EQ(worker.resultStreamsPending(), 0u) << "worker " << w;
  }
}

TEST_F(BatchFaultTest, UnparsableTemplateFailsQueryAndDrainsWorkers) {
  // A template the workers cannot parse: every chunk answers with the parse
  // error, the query fails with it instead of hanging, and no worker keeps
  // a task or an unread frame.
  ClusterOptions opts;
  opts.frontend.catalog = *catalog_;
  opts.numWorkers = 4;
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  ChunkQueryTemplate broken;
  broken.sql = "SELECT FROM Object WHERE";
  broken.bindings = {{0, TableBindingKind::kChunk}};
  std::vector<ChunkQuerySpec> specs;
  for (std::int32_t chunk : (*cluster)->frontend().availableChunks()) {
    specs.push_back(ChunkQuerySpec{chunk, {}});
  }
  ASSERT_GT(specs.size(), 8u);
  Dispatcher dispatcher((*cluster)->redirector(), DispatcherConfig{});
  DispatchOptions options;
  options.deadline = util::Deadline::afterSeconds(20.0);  // hang backstop
  auto report = dispatcher.runStreamed(
      broken, specs, [](ChunkResult&&) { return util::Status::ok(); },
      nullptr, nullptr, options);
  ASSERT_FALSE(report.isOk());
  EXPECT_EQ(report.status().code(), util::ErrorCode::kInvalidArgument)
      << report.status().toString();
  for (std::size_t w = 0; w < (*cluster)->numWorkers(); ++w) {
    auto& worker = (*cluster)->worker(w);
    for (int i = 0; i < 5000 && (worker.queuedTasks() > 0 ||
                                 worker.resultStreamsPending() > 0);
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(worker.queuedTasks(), 0u) << "worker " << w;
    EXPECT_EQ(worker.resultStreamsPending(), 0u) << "worker " << w;
  }
}

TEST_F(BatchFaultTest, DeadlineInsideCallerRunCollectorIsDeadlineExceeded) {
  // One worker, so the query's only batch is collected on the calling
  // thread; its frames crawl past the query's deadline.
  ClusterOptions opts = faultyOptions();
  opts.numWorkers = 1;
  opts.replication = 1;
  opts.frontend.queryDeadlineSeconds = 0.02;
  auto slowFrames = xrd::FaultPlan::parse("read:path=/bstream/,delay=30");
  ASSERT_TRUE(slowFrames.isOk()) << slowFrames.status().toString();
  opts.faults = *slowFrames;
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  auto r = (*cluster)->frontend().query("SELECT COUNT(*) FROM Object");
  ASSERT_FALSE(r.isOk());
  EXPECT_EQ(r.status().code(), util::ErrorCode::kDeadlineExceeded)
      << r.status().toString();
}

}  // namespace
}  // namespace qserv::core
