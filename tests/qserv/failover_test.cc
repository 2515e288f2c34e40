/// \file failover_test.cc
/// \brief End-to-end failure-handling matrix: every scenario a query can hit
/// on a faulty cluster must end in either a correct result or a clean,
/// prompt error — never a hang, a silent corruption, or a retry loop on the
/// same dead replica.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "qserv/cluster.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace qserv::core {
namespace {

/// Counter delta between two registry snapshots (0 when absent in either).
std::uint64_t delta(const util::MetricsSnapshot& before,
                    const util::MetricsSnapshot& after, const char* name) {
  auto b = before.counters.count(name) ? before.counters.at(name) : 0;
  auto a = after.counters.count(name) ? after.counters.at(name) : 0;
  return a - b;
}

class FailoverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new CatalogConfig(CatalogConfig::lsst(18, 6, 0.05));
    SkyDataOptions opts;
    opts.basePatchObjects = 500;
    opts.withSources = false;
    opts.region = sphgeom::SphericalBox(0, -7, 14, 7);
    auto sky = buildSkyCatalog(*catalog_, opts);
    ASSERT_TRUE(sky.isOk()) << sky.status().toString();
    sky_ = new datagen::PartitionedCatalog(std::move(sky).value());

    // Fault-free oracle: total object count, computed once.
    ClusterOptions copts;
    copts.frontend.catalog = *catalog_;
    copts.numWorkers = 2;
    auto cluster = MiniCluster::create(copts, *sky_);
    ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
    auto r = (*cluster)->frontend().query("SELECT COUNT(*) FROM Object");
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    oracleCount_ = r->result->cell(0, 0).asInt();
    ASSERT_GT(oracleCount_, 0);
  }

  static void TearDownTestSuite() {
    delete sky_;
    delete catalog_;
    sky_ = nullptr;
    catalog_ = nullptr;
  }

  static ClusterOptions baseOptions() {
    ClusterOptions opts;
    opts.frontend.catalog = *catalog_;
    opts.numWorkers = 3;
    // Fast retries so failing tests fail quickly.
    opts.frontend.dispatchBackoff.base = std::chrono::microseconds(500);
    opts.frontend.dispatchBackoff.cap = std::chrono::microseconds(5'000);
    return opts;
  }

  static CatalogConfig* catalog_;
  static datagen::PartitionedCatalog* sky_;
  static std::int64_t oracleCount_;
};

CatalogConfig* FailoverTest::catalog_ = nullptr;
datagen::PartitionedCatalog* FailoverTest::sky_ = nullptr;
std::int64_t FailoverTest::oracleCount_ = 0;

// 1. A replica dies mid-query stream: with replication the query must
//    fail over to the surviving copies and still return the right answer.
TEST_F(FailoverTest, ReplicaKilledMidQueryFailsOver) {
  auto opts = baseOptions();
  opts.replication = 2;
  // Worker 0 serves one result read, then drops dead mid-stream: with
  // batched dispatch (the default) the worker sees a single batch write, so
  // the death has to land on the result-stream reads to hit the query
  // mid-flight.
  auto plan = xrd::FaultPlan::parse("read:after=1,down");
  ASSERT_TRUE(plan.isOk());
  opts.workerFaults[0] = *plan;
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();

  auto before = util::MetricsRegistry::instance().snapshot();
  auto r = (*cluster)->frontend().query("SELECT COUNT(*) FROM Object");
  auto after = util::MetricsRegistry::instance().snapshot();

  ASSERT_TRUE(r.isOk()) << r.status().toString();
  EXPECT_EQ(r->result->cell(0, 0).asInt(), oracleCount_);
  ASSERT_TRUE((*cluster)->injector(0) != nullptr);
  EXPECT_TRUE((*cluster)->injector(0)->isDown());
  // The failover was visible: retries happened, replicas were excluded,
  // and every retry slept through the backoff schedule.
  EXPECT_GT(delta(before, after, "dispatch.retries"), 0u);
  EXPECT_GT(delta(before, after, "dispatch.replica_exclusions"), 0u);
  EXPECT_GE(after.histograms.at("dispatch.backoff_seconds").count,
            before.histograms.count("dispatch.backoff_seconds")
                ? before.histograms.at("dispatch.backoff_seconds").count
                : 0);
  // Typed span fields: some chunk took more than one attempt, and a failed
  // dispatcher span (batch or retry attempt) recorded its error.
  ASSERT_TRUE(r->trace);
  bool sawMultiAttempt = false, sawAttemptError = false;
  for (const auto& s : r->trace->spans()) {
    if (s.kind == util::SpanKind::kChunk && s.attempt > 1) {
      sawMultiAttempt = true;
    }
    if ((s.kind == util::SpanKind::kBatch ||
         s.kind == util::SpanKind::kAttempt) &&
        !s.error.empty()) {
      sawAttemptError = true;
    }
  }
  EXPECT_TRUE(sawMultiAttempt);
  EXPECT_TRUE(sawAttemptError);
}

// 2. Every replica of some chunk is gone: the query must fail promptly with
//    an aggregated error naming the chunk — not hang, not loop forever.
TEST_F(FailoverTest, AllReplicasDownFailsFastAndCancelsSiblings) {
  auto opts = baseOptions();
  opts.replication = 1;
  opts.frontend.dispatchParallelism = 2;  // leaves chunks queued to cancel
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk());
  ASSERT_GT((*cluster)->chunkIds().size(), 4u);
  for (std::size_t w = 0; w < (*cluster)->numWorkers(); ++w) {
    (*cluster)->server(w).setUp(false);
  }

  auto before = util::MetricsRegistry::instance().snapshot();
  util::Stopwatch watch;
  auto r = (*cluster)->frontend().query("SELECT COUNT(*) FROM Object");
  auto after = util::MetricsRegistry::instance().snapshot();

  ASSERT_FALSE(r.isOk());
  EXPECT_EQ(r.status().code(), util::ErrorCode::kUnavailable);
  EXPECT_NE(r.status().message().find("chunk"), std::string::npos);
  EXPECT_NE(r.status().message().find("attempt"), std::string::npos);
  // Fail fast: the first hard failure cancels still-queued siblings instead
  // of letting every chunk grind through its own full retry schedule.
  EXPECT_LT(watch.elapsedSeconds(), 10.0);
  EXPECT_GT(delta(before, after, "dispatch.chunks_cancelled"), 0u);
  EXPECT_GT(delta(before, after, "dispatch.chunks_failed"), 0u);
}

// 3. Transient write faults: retries with backoff eventually succeed and the
//    result is exactly what a healthy cluster returns.
TEST_F(FailoverTest, TransientFaultsRetryWithBackoffThenSucceed) {
  auto opts = baseOptions();
  opts.replication = 1;
  opts.frontend.dispatchMaxAttempts = 10;
  // Every worker fails ~30% of batch writes (seeded, so reproducible): a
  // rejected batch sends each of its chunks into a batch of one, and each
  // retry pays exactly one backoff draw. A query writes one batch per
  // worker, so a few queries give the faults a chance to fire.
  auto plan = xrd::FaultPlan::parse("seed=1234; write:p=0.3,fail");
  ASSERT_TRUE(plan.isOk());
  opts.faults = *plan;
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk());

  auto before = util::MetricsRegistry::instance().snapshot();
  for (int i = 0; i < 5; ++i) {
    auto r = (*cluster)->frontend().query("SELECT COUNT(*) FROM Object");
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(r->result->cell(0, 0).asInt(), oracleCount_);
  }
  auto after = util::MetricsRegistry::instance().snapshot();

  std::uint64_t injected = delta(before, after, "faultinj.write_faults");
  std::uint64_t retries = delta(before, after, "dispatch.retries");
  EXPECT_GT(injected, 0u);
  EXPECT_GE(retries, injected);  // every injected failure was retried
  // Each retry slept through exactly one backoff draw.
  std::int64_t backoffBefore =
      before.histograms.count("dispatch.backoff_seconds")
          ? before.histograms.at("dispatch.backoff_seconds").count
          : 0;
  EXPECT_EQ(static_cast<std::uint64_t>(
                after.histograms.at("dispatch.backoff_seconds").count -
                backoffBefore),
            retries);
}

// 4. A replica serves corrupt dumps: the checksum catches it, the chunk is
//    re-fetched from a clean replica, and nothing corrupt reaches the
//    merged result.
TEST_F(FailoverTest, CorruptDumpRetriedOnSecondReplica) {
  auto opts = baseOptions();
  opts.numWorkers = 2;
  opts.replication = 2;  // every chunk also lives on the clean worker
  auto plan = xrd::FaultPlan::parse("read:corrupt");
  ASSERT_TRUE(plan.isOk());
  opts.workerFaults[0] = *plan;  // worker 0 corrupts every dump it serves
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk());

  auto before = util::MetricsRegistry::instance().snapshot();
  auto r = (*cluster)->frontend().query("SELECT COUNT(*) FROM Object");
  auto after = util::MetricsRegistry::instance().snapshot();

  ASSERT_TRUE(r.isOk()) << r.status().toString();
  EXPECT_EQ(r->result->cell(0, 0).asInt(), oracleCount_);
  // The corruption fired and was caught by the dispatcher-side checksum;
  // no corrupt dump survived to the merger's last-line defense.
  EXPECT_GT(delta(before, after, "faultinj.corruptions"), 0u);
  EXPECT_GT(delta(before, after, "dispatch.checksum_mismatches"), 0u);
  EXPECT_EQ(delta(before, after, "merger.checksum_rejects"), 0u);
}

// 5. A per-query deadline bounds everything: a cluster mired in injected
//    latency makes the query fail with DEADLINE_EXCEEDED within the budget's
//    order of magnitude — it must not run to completion or hang.
TEST_F(FailoverTest, QueryDeadlineBoundsSlowCluster) {
  auto opts = baseOptions();
  opts.replication = 1;
  opts.frontend.queryDeadlineSeconds = 0.15;
  opts.frontend.dispatchMaxAttempts = 10;  // the deadline must stop us first
  // Every chunk write crawls for 50 ms and then fails: no attempt can ever
  // succeed, so the only clean exit is the deadline.
  auto plan = xrd::FaultPlan::parse("write:delay=50; write:fail");
  ASSERT_TRUE(plan.isOk());
  opts.faults = *plan;
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk());

  auto before = util::MetricsRegistry::instance().snapshot();
  util::Stopwatch watch;
  auto r = (*cluster)->frontend().query("SELECT COUNT(*) FROM Object");
  auto after = util::MetricsRegistry::instance().snapshot();

  ASSERT_FALSE(r.isOk());
  EXPECT_EQ(r.status().code(), util::ErrorCode::kDeadlineExceeded);
  EXPECT_LT(watch.elapsedSeconds(), 10.0);
  EXPECT_GT(delta(before, after, "dispatch.deadline_exceeded"), 0u);
}

}  // namespace
}  // namespace qserv::core
