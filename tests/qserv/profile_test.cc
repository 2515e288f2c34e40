/// Query-level profiling: EXPLAIN / EXPLAIN ANALYZE plans, per-stage
/// resource accounting, QueryStats history, slow-query log, and the
/// per-worker queue instruments (see DESIGN.md "Observability").
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "qserv/cluster.h"
#include "qserv/query_profile.h"
#include "qserv/secondary_index.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace qserv::core {
namespace {

class ProfileTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogConfig catalog = CatalogConfig::lsst(18, 6, 0.05);
    SkyDataOptions data;
    data.basePatchObjects = 500;
    data.withSources = true;
    data.region = sphgeom::SphericalBox(0, -7, 14, 7);
    auto sky = buildSkyCatalog(catalog, data);
    ASSERT_TRUE(sky.isOk());
    sky_ = new datagen::PartitionedCatalog(std::move(*sky));
    ClusterOptions opts;
    opts.numWorkers = 2;
    opts.frontend.catalog = catalog;
    auto cluster = MiniCluster::create(opts, *sky_);
    ASSERT_TRUE(cluster.isOk());
    cluster_ = cluster->release();
  }
  static void TearDownTestSuite() {
    delete cluster_;
    cluster_ = nullptr;
    delete sky_;
    sky_ = nullptr;
  }

  QservFrontend& frontend() { return cluster_->frontend(); }

  /// An objectId that exists in the loaded data (first secondary-index row).
  std::int64_t someObjectId() {
    auto table = frontend().metadata().findTable(SecondaryIndex::kTableName);
    EXPECT_TRUE(table && table->numRows() > 0);
    return table->intColumn(0)[0];
  }

  /// Value of \p property in a 2-column EXPLAIN plan table, or "".
  static std::string planValue(const sql::Table& plan,
                               const std::string& property) {
    for (std::size_t r = 0; r < plan.numRows(); ++r) {
      if (plan.stringColumn(0)[r] == property) return plan.stringColumn(1)[r];
    }
    return {};
  }

  static MiniCluster* cluster_;
  static datagen::PartitionedCatalog* sky_;
};

MiniCluster* ProfileTest::cluster_ = nullptr;
datagen::PartitionedCatalog* ProfileTest::sky_ = nullptr;

TEST_F(ProfileTest, ExplainLvUsesSecondaryIndex) {
  auto r = frontend().query("EXPLAIN SELECT * FROM Object WHERE objectId = " +
                            std::to_string(someObjectId()));
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  // EXPLAIN never executes: no chunks dispatched, no trace.
  EXPECT_EQ(r->chunksDispatched, 0u);
  EXPECT_EQ(planValue(*r->result, "pruning").rfind("secondary-index", 0), 0u)
      << planValue(*r->result, "pruning");
  EXPECT_NE(planValue(*r->result, "chunk template"), "");
}

TEST_F(ProfileTest, ExplainHvIsFullSky) {
  auto r = frontend().query(
      "EXPLAIN SELECT COUNT(*) FROM Object WHERE iFlux_PS > 0");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  EXPECT_EQ(planValue(*r->result, "pruning").rfind("full sky", 0), 0u)
      << planValue(*r->result, "pruning");
  EXPECT_EQ(planValue(*r->result, "filter").rfind("vectorized", 0), 0u)
      << planValue(*r->result, "filter");
}

TEST_F(ProfileTest, ExplainShvSelectsZoneJoin) {
  auto r = frontend().query(
      "EXPLAIN SELECT COUNT(*) FROM Object o1, Object o2 WHERE "
      "qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.01");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  EXPECT_EQ(planValue(*r->result, "join strategy").rfind("zone", 0), 0u)
      << planValue(*r->result, "join strategy");
}

TEST_F(ProfileTest, ExplainSpatialRestrictionUsesSpatialCover) {
  auto r = frontend().query(
      "EXPLAIN SELECT COUNT(*) FROM Object WHERE "
      "qserv_areaspec_box(1, -2, 3, 2)");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  EXPECT_EQ(planValue(*r->result, "pruning").rfind("spatial cover", 0), 0u)
      << planValue(*r->result, "pruning");
}

TEST_F(ProfileTest, ExplainAnalyzeStageSumNearWall) {
  const std::string queries[] = {
      // LV: index-pruned point lookup.
      "SELECT * FROM Object WHERE objectId = " + std::to_string(someObjectId()),
      // HV: full-sky scan.
      "SELECT COUNT(*) FROM Object WHERE iFlux_PS > 0",
      // SHV: near-neighbor zone join.
      "SELECT COUNT(*) FROM Object o1, Object o2 WHERE "
      "qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.01",
  };
  for (const std::string& q : queries) {
    (void)frontend().query(q);  // warm caches so timings are representative
    auto r = frontend().query("EXPLAIN ANALYZE " + q);
    ASSERT_TRUE(r.isOk()) << r.status().toString() << "\n  for: " << q;
    ASSERT_TRUE(r->profile) << q;
    const QueryProfile& p = *r->profile;
    EXPECT_GT(p.wallSeconds, 0.0);
    EXPECT_FALSE(p.stages.empty());
    // The per-stage czar breakdown must account for the query's wall time:
    // stage sum within 10% of wall (stages are sequential, so <= wall).
    EXPECT_LE(p.stageSeconds(), p.wallSeconds * 1.001) << q;
    EXPECT_GE(p.stageSeconds(), p.wallSeconds * 0.9) << q;
    // The breakdown table is the query result.
    ASSERT_TRUE(r->result);
    EXPECT_GT(r->result->numRows(), p.stages.size());
    EXPECT_GT(p.chunks, 0);
    EXPECT_GE(p.attempts, p.chunks);
    EXPECT_GT(p.queueWait.count, 0);
    EXPECT_GT(p.execute.count, 0);
  }
}

TEST_F(ProfileTest, ExplainAnalyzeSplitsMergeBusyFromDispatch) {
  auto r = frontend().query("EXPLAIN ANALYZE SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  ASSERT_TRUE(r->profile);
  const QueryProfile& p = *r->profile;
  ASSERT_GT(p.chunks, 1);
  double dispatch = -1.0;
  for (const ProfileStage& stage : p.stages) {
    if (stage.name == util::spanName(util::SpanKind::kDispatch)) {
      dispatch = stage.seconds;
    }
  }
  ASSERT_GT(dispatch, 0.0);
  // Every delivered chunk was merged on the czar, inside the dispatch stage:
  // the merge-busy time is part of it, never more.
  EXPECT_EQ(p.merge.count, p.chunks);
  EXPECT_GT(p.mergeBusySeconds, 0.0);
  EXPECT_LE(p.mergeBusySeconds, dispatch);
  // It renders as an indented child row after the dispatch stage.
  const sql::Table& table = *r->result;
  std::size_t dispatchRow = table.numRows(), mergeRow = table.numRows();
  for (std::size_t row = 0; row < table.numRows(); ++row) {
    const std::string& stage = table.stringColumn(0)[row];
    if (stage == util::spanName(util::SpanKind::kDispatch)) dispatchRow = row;
    if (stage == "  merge (busy)") mergeRow = row;
  }
  ASSERT_LT(mergeRow, table.numRows());
  EXPECT_GT(mergeRow, dispatchRow);
  EXPECT_EQ(table.doubleColumn(1)[mergeRow], p.mergeBusySeconds);
  EXPECT_EQ(table.intColumn(2)[mergeRow], p.merge.count);
}

TEST_F(ProfileTest, QueryStatsRetainsSummariesQueryableViaSql) {
  auto exec = frontend().query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(exec.isOk());
  std::uint64_t id = exec->queryId;

  auto rows = frontend().query(
      "SELECT queryId, status, wallSeconds, chunks FROM QueryStats "
      "WHERE queryId = " + std::to_string(id));
  ASSERT_TRUE(rows.isOk()) << rows.status().toString();
  ASSERT_EQ(rows->result->numRows(), 1u);
  EXPECT_EQ(rows->result->intColumn(0)[0], static_cast<std::int64_t>(id));
  EXPECT_EQ(rows->result->stringColumn(1)[0], "ok");
  EXPECT_GT(rows->result->doubleColumn(2)[0], 0.0);
  EXPECT_GT(rows->result->intColumn(3)[0], 0);
}

TEST_F(ProfileTest, ProfileForReturnsRetainedProfile) {
  auto exec = frontend().query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(exec.isOk());
  auto p = frontend().profileFor(exec->queryId);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->queryId, exec->queryId);
  EXPECT_EQ(p.get(), exec->profile.get());
  EXPECT_FALSE(frontend().profileFor(0));
}

TEST_F(ProfileTest, FailedQueryRecordsFailureStatusAndProfile) {
  auto r = frontend().query(
      "SELECT noSuchColumn FROM Object WHERE iFlux_PS > 0");
  ASSERT_FALSE(r.isOk());

  bool found = false;
  for (const auto& q : frontend().processList()) {
    if (q.sql.find("noSuchColumn") == std::string::npos) continue;
    found = true;
    EXPECT_TRUE(q.finished);
    EXPECT_NE(q.failureStatus, "");
    EXPECT_EQ(q.state.rfind("failed", 0), 0u) << q.state;
  }
  EXPECT_TRUE(found);

  // The failed query still left a QueryStats row with its error status.
  auto rows = frontend().query(
      "SELECT status FROM QueryStats WHERE status != 'ok'");
  ASSERT_TRUE(rows.isOk());
  EXPECT_GT(rows->result->numRows(), 0u);
}

TEST_F(ProfileTest, WorkerQueueInstrumentsPopulate) {
  (void)frontend().query("SELECT COUNT(*) FROM Object");
  auto snap = util::MetricsRegistry::instance().snapshot();
  bool sawWait = false;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("worker.w", 0) == 0 &&
        name.find(".queue_wait_seconds") != std::string::npos && h.count > 0) {
      sawWait = true;
    }
  }
  EXPECT_TRUE(sawWait) << "no per-worker queue-wait samples recorded";
}

TEST_F(ProfileTest, ExplainRejectsNonSelectBody) {
  EXPECT_FALSE(frontend().query("EXPLAIN DROP TABLE Object").isOk());
  EXPECT_FALSE(frontend().query("EXPLAIN ANALYZE").isOk());
}

// Config-dependent behaviour runs on its own small cluster.
class ProfileConfigTest : public ProfileTest {};

TEST_F(ProfileConfigTest, HistoryBoundsAndSlowQueryLog) {
  ClusterOptions opts;
  opts.numWorkers = 1;
  opts.frontend.catalog = CatalogConfig::lsst(18, 6, 0.05);
  opts.frontend.processListHistory = 2;
  opts.frontend.profileHistory = 2;
  opts.frontend.slowQuerySeconds = 1e-9;  // everything is "slow"
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk());
  auto& f = (*cluster)->frontend();

  ::testing::internal::CaptureStderr();
  std::uint64_t firstId = 0;
  for (int i = 0; i < 5; ++i) {
    auto r = f.query("SELECT COUNT(*) FROM Object");
    ASSERT_TRUE(r.isOk());
    if (i == 0) firstId = r->queryId;
  }
  std::string log = ::testing::internal::GetCapturedStderr();

  // Every query crossed the 1ns threshold: structured slowquery lines.
  EXPECT_NE(log.find("slowquery"), std::string::npos);
  EXPECT_NE(log.find("\"wallSeconds\""), std::string::npos);

  // processList keeps the 5 finished queries bounded at 2.
  std::size_t finished = 0;
  for (const auto& q : f.processList()) {
    if (q.finished) ++finished;
  }
  EXPECT_EQ(finished, 2u);

  // Profile history evicted the oldest; QueryStats keeps all 5.
  EXPECT_FALSE(f.profileFor(firstId));
  auto rows = f.query("SELECT COUNT(*) FROM QueryStats");
  ASSERT_TRUE(rows.isOk());
  // 5 profiled queries + this COUNT itself may already be recorded after it
  // ran; the COUNT sees the 5 prior rows.
  EXPECT_EQ(rows->result->intColumn(0)[0], 5);
}

TEST_F(ProfileConfigTest, QueryStatsHistoryIsBounded) {
  ClusterOptions opts;
  opts.numWorkers = 1;
  opts.frontend.catalog = CatalogConfig::lsst(18, 6, 0.05);
  opts.frontend.queryStatsHistory = 3;
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk());
  auto& f = (*cluster)->frontend();

  std::uint64_t firstId = 0;
  for (int i = 0; i < 5; ++i) {
    auto r = f.query("SELECT COUNT(*) FROM Object");
    ASSERT_TRUE(r.isOk());
    if (i == 0) firstId = r->queryId;
  }

  // The oldest rows were evicted past the cap; the first query is gone.
  auto rows = f.query("SELECT queryId FROM QueryStats");
  ASSERT_TRUE(rows.isOk());
  EXPECT_EQ(rows->result->numRows(), 3u);
  for (std::size_t r = 0; r < rows->result->numRows(); ++r) {
    EXPECT_NE(rows->result->intColumn(0)[r],
              static_cast<std::int64_t>(firstId));
  }
}

// Finishing queries append QueryStats rows while other threads SELECT from
// the table and flip the profiling toggle: the snapshot-swap publication
// (Database::replaceTable) and the atomic toggle must keep this race-free
// (run under TSan via build-tsan).
TEST_F(ProfileConfigTest, ConcurrentProfilingAndQueryStatsReads) {
  ClusterOptions opts;
  opts.numWorkers = 2;
  opts.frontend.catalog = CatalogConfig::lsst(18, 6, 0.05);
  opts.frontend.queryStatsHistory = 8;
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk());
  auto& f = (*cluster)->frontend();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&f, &failures] {
      for (int i = 0; i < 4; ++i) {
        if (!f.query("SELECT COUNT(*) FROM Object").isOk()) ++failures;
        // Scans the whole QueryStats snapshot while other queries finish.
        if (!f.query("SELECT queryId, sql, wallSeconds FROM QueryStats "
                     "WHERE wallSeconds >= 0.0")
                 .isOk()) {
          ++failures;
        }
      }
    });
  }
  for (int i = 0; i < 64; ++i) {
    f.setProfilingEnabled(i % 2 == 0);
    std::this_thread::yield();
  }
  f.setProfilingEnabled(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // One guaranteed-profiled query so the final count is never zero even if
  // every threaded query happened to land in a toggled-off window.
  ASSERT_TRUE(f.query("SELECT COUNT(*) FROM Object").isOk());
  auto rows = f.query("SELECT COUNT(*) FROM QueryStats");
  ASSERT_TRUE(rows.isOk());
  EXPECT_LE(rows->result->intColumn(0)[0], 8);
  EXPECT_GT(rows->result->intColumn(0)[0], 0);
}

// Tracing is opt-in per query: an unprofiled query records no spans and
// still answers right; a profiled one (EXPLAIN ANALYZE, or after the toggle
// is flipped on) gets one worker queue-wait and one execution span per
// dispatched chunk, carried back in-band.
TEST_F(ProfileConfigTest, OnlyProfiledQueriesAreTraced) {
  using util::SpanKind;
  ClusterOptions opts;
  opts.numWorkers = 2;
  opts.frontend.catalog = CatalogConfig::lsst(18, 6, 0.05);
  opts.frontend.enableProfiling = false;
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk());
  auto& f = (*cluster)->frontend();
  std::int64_t objects = 0;
  for (const datagen::ChunkData& chunk : sky_->chunks) {
    objects += static_cast<std::int64_t>(chunk.objects->numRows());
  }
  auto spansOf = [](const QservFrontend::Execution& exec, SpanKind kind) {
    std::size_t n = 0;
    for (const auto& s : exec.trace->spans()) {
      if (s.kind == kind) ++n;
    }
    return n;
  };

  auto plain = f.query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(plain.isOk()) << plain.status().toString();
  EXPECT_FALSE(plain->trace);
  EXPECT_FALSE(plain->profile);
  EXPECT_GT(plain->chunksDispatched, 1u);
  EXPECT_EQ(plain->result->cell(0, 0).asInt(), objects);
  EXPECT_GT(plain->queryId, 0u);

  auto analyzed = f.query("EXPLAIN ANALYZE SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(analyzed.isOk()) << analyzed.status().toString();
  ASSERT_TRUE(analyzed->trace);
  EXPECT_NE(analyzed->queryId, plain->queryId);
  EXPECT_EQ(analyzed->trace->id(), analyzed->queryId);
  EXPECT_EQ(spansOf(*analyzed, SpanKind::kQueueWait),
            analyzed->chunksDispatched);
  EXPECT_EQ(spansOf(*analyzed, SpanKind::kExec), analyzed->chunksDispatched);

  f.setProfilingEnabled(true);
  auto traced = f.query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(traced.isOk()) << traced.status().toString();
  ASSERT_TRUE(traced->trace);
  EXPECT_TRUE(traced->profile);
  EXPECT_EQ(traced->result->cell(0, 0).asInt(), objects);
  EXPECT_EQ(traced->chunksDispatched, plain->chunksDispatched);
  EXPECT_EQ(spansOf(*traced, SpanKind::kQueueWait), traced->chunksDispatched);
  EXPECT_EQ(spansOf(*traced, SpanKind::kExec), traced->chunksDispatched);

  // The in-flight list names queries by the same ids.
  bool listed = false;
  for (const auto& q : f.processList()) listed |= q.id == traced->queryId;
  EXPECT_TRUE(listed);
}

TEST_F(ProfileConfigTest, ProfilingDisabledSkipsBookkeeping) {
  ClusterOptions opts;
  opts.numWorkers = 1;
  opts.frontend.catalog = CatalogConfig::lsst(18, 6, 0.05);
  opts.frontend.enableProfiling = false;
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk());
  auto& f = (*cluster)->frontend();
  EXPECT_FALSE(f.profilingEnabled());

  auto r = f.query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(r.isOk());
  EXPECT_FALSE(r->profile);
  EXPECT_FALSE(f.profileFor(r->queryId));
  auto rows = f.query("SELECT COUNT(*) FROM QueryStats");
  ASSERT_TRUE(rows.isOk());
  EXPECT_EQ(rows->result->intColumn(0)[0], 0);

  // EXPLAIN ANALYZE still profiles on demand.
  auto analyzed = f.query("EXPLAIN ANALYZE SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(analyzed.isOk());
  EXPECT_TRUE(analyzed->profile);
}

}  // namespace
}  // namespace qserv::core
