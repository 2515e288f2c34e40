/// \file scan_fault_test.cc
/// \brief Shared-scan scheduler under fault injection: interactive point
/// queries must keep meeting their deadlines (priority lane) while
/// concurrent full-table scans churn through the same workers and a few
/// percent of xrd transactions misbehave. The paper's FIFO workers convoy
/// the point queries behind scans (§6.4, Fig 14); the §4.3 scheduler must
/// not — and faults must degrade to clean errors, never hangs.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "qserv/cluster.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace qserv::core {
namespace {

TEST(ScanSchedulerFaults, InteractiveDeadlinesMetWhileScansChurn) {
  CatalogConfig catalog = CatalogConfig::lsst(18, 6, 0.05);
  SkyDataOptions skyOpts;
  skyOpts.basePatchObjects = 400;
  skyOpts.withSources = false;
  skyOpts.region = sphgeom::SphericalBox(0, -7, 14, 7);
  auto sky = buildSkyCatalog(catalog, skyOpts);
  ASSERT_TRUE(sky.isOk()) << sky.status().toString();

  // Integer-exact, merge-order-independent aggregates: concurrent sessions
  // merge chunk results in arrival order, so float sums (AVG) can differ in
  // the last ulp run to run.
  const std::string scanSql =
      "SELECT COUNT(*), MIN(objectId), MAX(objectId) FROM Object "
      "WHERE decl_PS > -90";

  // Fault-free oracle for the scan's answer.
  sql::TablePtr scanOracle;
  {
    ClusterOptions clean;
    clean.frontend.catalog = catalog;
    clean.numWorkers = 3;
    auto cluster = MiniCluster::create(clean, *sky);
    ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
    auto r = (*cluster)->frontend().query(scanSql);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    scanOracle = r->result;
  }

  ClusterOptions opts;
  opts.frontend.catalog = catalog;
  opts.numWorkers = 3;
  opts.replication = 2;
  opts.worker.slots = 2;  // easy to saturate with scans
  opts.frontend.dispatchMaxAttempts = 6;
  opts.frontend.dispatchBackoff.base = std::chrono::microseconds(500);
  opts.frontend.dispatchBackoff.cap = std::chrono::microseconds(5'000);
  opts.frontend.queryDeadlineSeconds = 30.0;  // hang backstop, not the norm
  auto plan = xrd::FaultPlan::parse(
      "seed=20260808; write:p=0.03,fail; read:p=0.02,fail=internal; "
      "read:p=0.01,corrupt");
  ASSERT_TRUE(plan.isOk()) << plan.status().toString();
  opts.faults = *plan;
  auto cluster = MiniCluster::create(opts, *sky);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();

  auto before = util::MetricsRegistry::instance().snapshot();

  auto cleanOrCorrect = [&](const util::Result<QservFrontend::Execution>& r,
                            const sql::TablePtr& want,
                            const std::string& what) {
    if (!r.isOk()) {
      auto code = r.status().code();
      EXPECT_TRUE(code == util::ErrorCode::kUnavailable ||
                  code == util::ErrorCode::kDataLoss ||
                  code == util::ErrorCode::kInternal ||
                  code == util::ErrorCode::kDeadlineExceeded)
          << what << ": " << r.status().toString();
      return;
    }
    if (!want) return;
    ASSERT_EQ(r->result->numRows(), want->numRows()) << what;
    for (std::size_t col = 0; col < want->numColumns(); ++col) {
      EXPECT_EQ(r->result->cell(0, col).compare(want->cell(0, col)), 0)
          << what << " col " << col;
    }
  };

  // Scan churn: two sessions looping the full-table scan.
  std::atomic<bool> stopScans{false};
  std::vector<std::thread> scanners;
  for (int s = 0; s < 2; ++s) {
    scanners.emplace_back([&] {
      while (!stopScans.load(std::memory_order_acquire)) {
        auto r = (*cluster)->frontend().query(scanSql);
        cleanOrCorrect(r, scanOracle, scanSql);
      }
    });
  }

  // Interactive traffic: point lookups by objectId ride the priority lane.
  const auto& index = sky->index;
  ASSERT_FALSE(index.empty());
  for (int i = 0; i < 12; ++i) {
    std::int64_t id = index[(static_cast<std::size_t>(i) * 7919) %
                            index.size()].objectId;
    std::string pointSql =
        "SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = " +
        std::to_string(id);
    util::Stopwatch watch;
    auto r = (*cluster)->frontend().query(pointSql);
    // The deadline: never a hang, even with scans saturating every slot
    // and faults forcing retries.
    EXPECT_LT(watch.elapsedSeconds(), 30.0) << pointSql;
    if (r.isOk()) {
      ASSERT_EQ(r->result->numRows(), 1u) << pointSql;
      EXPECT_EQ(r->result->cell(0, 0).asInt(), id);
    } else {
      cleanOrCorrect(r, nullptr, pointSql);
    }
  }
  stopScans.store(true, std::memory_order_release);
  for (auto& t : scanners) t.join();

  auto after = util::MetricsRegistry::instance().snapshot();
  auto counterDelta = [&](const char* name) -> std::uint64_t {
    auto b = before.counters.count(name) ? before.counters.at(name) : 0;
    auto a = after.counters.count(name) ? after.counters.at(name) : 0;
    return a - b;
  };
  auto histCountDelta = [&](const char* name) -> std::int64_t {
    auto b = before.histograms.count(name)
                 ? before.histograms.at(name).count : 0;
    auto a = after.histograms.count(name)
                 ? after.histograms.at(name).count : 0;
    return a - b;
  };
  // The scheduler actually ran in shared-scan mode: scans rode passes, and
  // the point lookups were classified interactive on the workers.
  EXPECT_GT(counterDelta("worker.scan_passes"), 0u);
  EXPECT_GT(histCountDelta("worker.interactive_queue_wait_seconds"), 0);
  EXPECT_GT(histCountDelta("worker.scan_queue_wait_seconds"), 0);
}

}  // namespace
}  // namespace qserv::core
