/// End-to-end tests: every paper query shape executed through the full
/// distributed stack (frontend -> rewrite -> xrd dispatch -> workers ->
/// dumps -> merge -> final aggregation) and checked against an oracle —
/// the same SQL run on a single monolithic database holding all rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>

#include "datagen/schemas.h"
#include "qserv/cluster.h"
#include "sphgeom/coords.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/trace.h"

namespace qserv::core {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogConfig catalog = CatalogConfig::lsst(18, 6, 0.05);
    SkyDataOptions data;
    data.basePatchObjects = 1200;
    data.withSources = true;
    // A band around the equator: a handful of duplicator copies, tens of
    // chunks.
    data.region = sphgeom::SphericalBox(0, -7, 40, 7);
    auto cat = buildSkyCatalog(catalog, data);
    ASSERT_TRUE(cat.isOk()) << cat.status().toString();
    catalogData_ = new datagen::PartitionedCatalog(std::move(cat).value());

    ClusterOptions opts;
    opts.numWorkers = 4;
    opts.replication = 1;
    opts.frontend.catalog = catalog;
    auto cluster = MiniCluster::create(opts, *catalogData_);
    ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
    cluster_ = cluster->release();

    // Oracle: single database with monolithic Object/Source tables.
    oracle_ = new sql::Database("oracle");
    auto object = std::make_shared<sql::Table>("Object",
                                               datagen::objectSchema());
    auto source = std::make_shared<sql::Table>("Source",
                                               datagen::sourceSchema());
    for (const auto& chunk : catalogData_->chunks) {
      for (std::size_t r = 0; r < chunk.objects->numRows(); ++r) {
        ASSERT_TRUE(object->appendRow(chunk.objects->row(r)).isOk());
      }
      for (std::size_t r = 0; r < chunk.sources->numRows(); ++r) {
        ASSERT_TRUE(source->appendRow(chunk.sources->row(r)).isOk());
      }
    }
    ASSERT_TRUE(oracle_->registerTable(object).isOk());
    ASSERT_TRUE(oracle_->registerTable(source).isOk());
    ASSERT_TRUE(oracle_->createIndex("Object", "objectId").isOk());
    ASSERT_TRUE(oracle_->createIndex("Source", "objectId").isOk());
  }

  static void TearDownTestSuite() {
    delete cluster_;
    cluster_ = nullptr;
    delete oracle_;
    oracle_ = nullptr;
    delete catalogData_;
    catalogData_ = nullptr;
  }

  QservFrontend& frontend() { return cluster_->frontend(); }

  sql::TablePtr oracleQuery(const std::string& sql) {
    auto r = oracle_->execute(sql);
    EXPECT_TRUE(r.isOk()) << r.status().toString() << " for: " << sql;
    return r.isOk() ? *r : nullptr;
  }

  QservFrontend::Execution distQuery(const std::string& sql) {
    auto r = frontend().query(sql);
    EXPECT_TRUE(r.isOk()) << r.status().toString() << " for: " << sql;
    return r.isOk() ? std::move(r).value() : QservFrontend::Execution{};
  }

  /// Sample an existing objectId.
  std::int64_t someObjectId(std::size_t n = 0) {
    const auto& idx = catalogData_->index;
    return idx[(n * 7919) % idx.size()].objectId;
  }

  static datagen::PartitionedCatalog* catalogData_;
  static MiniCluster* cluster_;
  static sql::Database* oracle_;
};

datagen::PartitionedCatalog* IntegrationTest::catalogData_ = nullptr;
MiniCluster* IntegrationTest::cluster_ = nullptr;
sql::Database* IntegrationTest::oracle_ = nullptr;

// ---------------------------------------------------------------- LV shapes

TEST_F(IntegrationTest, Lv1ObjectRetrieval) {
  std::int64_t id = someObjectId(1);
  std::string sql =
      "SELECT * FROM Object WHERE objectId = " + std::to_string(id);
  auto exec = distQuery(sql);
  auto oracle = oracleQuery(sql);
  ASSERT_TRUE(exec.result && oracle);
  ASSERT_EQ(exec.result->numRows(), 1u);
  ASSERT_EQ(oracle->numRows(), 1u);
  // Same values, all columns.
  for (std::size_t c = 0; c < oracle->numColumns(); ++c) {
    EXPECT_EQ(exec.result->cell(0, c).compare(oracle->cell(0, c)), 0);
  }
  // Index pruning: only one chunk dispatched.
  EXPECT_EQ(exec.chunksDispatched, 1u);
}

TEST_F(IntegrationTest, Lv2TimeSeries) {
  std::int64_t id = someObjectId(2);
  std::string sql =
      "SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), "
      "ra, decl FROM Source WHERE objectId = " +
      std::to_string(id);
  auto exec = distQuery(sql);
  auto oracle = oracleQuery(sql);
  ASSERT_TRUE(exec.result && oracle);
  EXPECT_EQ(exec.result->numRows(), oracle->numRows());
  EXPECT_GT(exec.result->numRows(), 10u);  // k ~= 41 detections
  EXPECT_EQ(exec.chunksDispatched, 1u);
}

TEST_F(IntegrationTest, Lv2MissingObjectGivesNullResult) {
  // The paper notes randomized ids sometimes hit clipped Source coverage
  // and return empty results; an unknown id dispatches nowhere.
  auto exec = distQuery("SELECT ra, decl FROM Source WHERE objectId = 999999999");
  ASSERT_TRUE(exec.result);
  EXPECT_EQ(exec.result->numRows(), 0u);
  EXPECT_EQ(exec.chunksDispatched, 0u);
}

TEST_F(IntegrationTest, Lv3SpatiallyRestrictedFilter) {
  std::string sql =
      "SELECT COUNT(*) FROM Object "
      "WHERE ra_PS BETWEEN 1 AND 2 AND decl_PS BETWEEN 3 AND 4 "
      "AND fluxToAbMag(zFlux_PS) BETWEEN 15 AND 25";
  auto exec = distQuery(sql);
  auto oracle = oracleQuery(sql);
  ASSERT_TRUE(exec.result && oracle);
  ASSERT_EQ(exec.result->numRows(), 1u);
  EXPECT_EQ(exec.result->cell(0, 0).asInt(), oracle->cell(0, 0).asInt());
  EXPECT_GT(oracle->cell(0, 0).asInt(), 0);
}

TEST_F(IntegrationTest, AreaspecPrunesChunks) {
  auto all = frontend().chunksFor("SELECT COUNT(*) FROM Object");
  auto some = frontend().chunksFor(
      "SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(1, 1, 3, 3)");
  ASSERT_TRUE(all.isOk() && some.isOk());
  EXPECT_GT(some->size(), 0u);
  EXPECT_LT(some->size(), all->size());
}

TEST_F(IntegrationTest, AreaspecCountMatchesExplicitBoxFilter) {
  auto viaAreaspec = distQuery(
      "SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(2, -3, 8, 3)");
  auto viaFilter = oracleQuery(
      "SELECT COUNT(*) FROM Object WHERE "
      "qserv_ptInSphericalBox(ra_PS, decl_PS, 2, -3, 8, 3) = 1");
  ASSERT_TRUE(viaAreaspec.result && viaFilter);
  EXPECT_EQ(viaAreaspec.result->cell(0, 0).asInt(),
            viaFilter->cell(0, 0).asInt());
  EXPECT_GT(viaFilter->cell(0, 0).asInt(), 0);
}

// ---------------------------------------------------------------- HV shapes

TEST_F(IntegrationTest, Hv1FullSkyCount) {
  auto exec = distQuery("SELECT COUNT(*) FROM Object");
  auto oracle = oracleQuery("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(exec.result && oracle);
  EXPECT_EQ(exec.result->cell(0, 0).asInt(), oracle->cell(0, 0).asInt());
  // Every data-bearing chunk participated.
  EXPECT_EQ(exec.chunksDispatched, cluster_->chunkIds().size());
}

TEST_F(IntegrationTest, Hv2FullSkyFilter) {
  std::string sql =
      "SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, "
      "iFlux_PS, zFlux_PS, yFlux_PS FROM Object "
      // The paper's cut is i-z > 4 (selects ~4e-5 of rows); on this small
      // test region we use a softer threshold with the same shape so the
      // selected set is non-empty (~1% of rows).
      "WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 0.5";
  auto exec = distQuery(sql);
  auto oracle = oracleQuery(sql);
  ASSERT_TRUE(exec.result && oracle);
  EXPECT_EQ(exec.result->numRows(), oracle->numRows());
  EXPECT_GT(oracle->numRows(), 0u);
  EXPECT_LT(oracle->numRows(), exec.rowsMerged + 1);  // a selective cut
}

TEST_F(IntegrationTest, Hv3DensityGroupByChunk) {
  std::string sql =
      "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object "
      "GROUP BY chunkId ORDER BY chunkId";
  auto exec = distQuery(sql);
  auto oracle = oracleQuery(sql);
  ASSERT_TRUE(exec.result && oracle);
  ASSERT_EQ(exec.result->numRows(), oracle->numRows());
  for (std::size_t r = 0; r < oracle->numRows(); ++r) {
    EXPECT_EQ(exec.result->cell(r, 0).asInt(), oracle->cell(r, 0).asInt());
    EXPECT_NEAR(exec.result->cell(r, 1).asDouble(),
                oracle->cell(r, 1).asDouble(), 1e-9);
    EXPECT_NEAR(exec.result->cell(r, 2).asDouble(),
                oracle->cell(r, 2).asDouble(), 1e-9);
    EXPECT_EQ(exec.result->cell(r, 3).asInt(), oracle->cell(r, 3).asInt());
  }
}

TEST_F(IntegrationTest, AvgSplitMatchesOracle) {
  // The §5.3 worked example end to end.
  std::string sql =
      "SELECT AVG(uFlux_SG) FROM Object "
      "WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 6.0) AND uRadius_PS > 0.04";
  auto exec = distQuery(sql);
  auto oracle = oracleQuery(
      "SELECT AVG(uFlux_SG) FROM Object "
      "WHERE qserv_ptInSphericalBox(ra_PS, decl_PS, 0.0, 0.0, 10.0, 6.0) = 1 "
      "AND uRadius_PS > 0.04");
  ASSERT_TRUE(exec.result && oracle);
  ASSERT_EQ(exec.result->numRows(), 1u);
  double got = exec.result->cell(0, 0).asDouble();
  double want = oracle->cell(0, 0).asDouble();
  EXPECT_NEAR(got, want, std::fabs(want) * 1e-9);
}

// --------------------------------------------------------------- SHV shapes

TEST_F(IntegrationTest, Shv1NearNeighborMatchesBruteForce) {
  // Distributed near-neighbor pair count vs brute-force O(n^2) oracle over
  // the same region. 0.03 deg < overlap margin (0.05) so counts are exact.
  const double radius = 0.03;
  std::string region = "qserv_areaspec_box(3, -2, 6, 1)";
  std::string sql = util::format(
      "SELECT count(*) FROM Object o1, Object o2 WHERE %s AND "
      "qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < %.17g",
      region.c_str(), radius);
  auto exec = distQuery(sql);
  ASSERT_TRUE(exec.result);
  ASSERT_EQ(exec.result->numRows(), 1u);
  std::int64_t got = exec.result->cell(0, 0).asInt();

  // Brute force on the oracle: o1 restricted to the region, o2 anywhere.
  auto oracle = oracleQuery(util::format(
      "SELECT count(*) FROM Object o1, Object o2 WHERE "
      "qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, 3, -2, 6, 1) = 1 AND "
      "qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < %.17g",
      radius));
  ASSERT_TRUE(oracle);
  std::int64_t want = oracle->cell(0, 0).asInt();
  EXPECT_EQ(got, want);
  EXPECT_GT(got, 0);
}

TEST_F(IntegrationTest, Shv2SourcesNotNearObjects) {
  std::string sql =
      "SELECT o.objectId, s.sourceId, s.ra, s.decl, o.ra_PS, o.decl_PS "
      "FROM Object o, Source s "
      "WHERE qserv_areaspec_box(1, -5, 12, 5) "
      "AND o.objectId = s.objectId "
      "AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0045";
  auto exec = distQuery(sql);
  auto oracle = oracleQuery(
      "SELECT o.objectId, s.sourceId FROM Object o, Source s "
      "WHERE qserv_ptInSphericalBox(o.ra_PS, o.decl_PS, 1, -5, 12, 5) = 1 "
      "AND o.objectId = s.objectId "
      "AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0045");
  ASSERT_TRUE(exec.result && oracle);
  EXPECT_EQ(exec.result->numRows(), oracle->numRows());
  EXPECT_GT(oracle->numRows(), 0u);  // the stray-source population
}

// ------------------------------------------------------------ system traits

TEST_F(IntegrationTest, SimTasksAccompanyExecution) {
  auto exec = distQuery("SELECT COUNT(*) FROM Object");
  EXPECT_EQ(exec.simTasks.size(), exec.chunksDispatched);
  EXPECT_GT(exec.soloTiming.elapsedSec(),
            frontend().costParams().perQueryFixedOverheadSec);
}

TEST_F(IntegrationTest, ConcurrentQueriesFromMultipleThreads) {
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::int64_t expect = 0;
  {
    auto oracle = oracleQuery("SELECT COUNT(*) FROM Object");
    ASSERT_TRUE(oracle);
    expect = oracle->cell(0, 0).asInt();
  }
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string sql =
          (t % 2 == 0)
              ? "SELECT COUNT(*) FROM Object"
              : "SELECT * FROM Object WHERE objectId = " +
                    std::to_string(someObjectId(static_cast<std::size_t>(t)));
      auto r = frontend().query(sql);
      if (!r.isOk()) {
        failures.fetch_add(1);
        return;
      }
      if (t % 2 == 0 && r->result->cell(0, 0).asInt() != expect) {
        failures.fetch_add(1);
      }
      if (t % 2 == 1 && r->result->numRows() != 1) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(IntegrationTest, ClusterSizeEmulationShrinksDispatch) {
  // §6.3: the frontend dispatches only chunks of the emulated cluster.
  auto saved = frontend().availableChunks();
  std::vector<std::int32_t> half(saved.begin(),
                                 saved.begin() + saved.size() / 2);
  frontend().setAvailableChunks(half);
  auto exec = distQuery("SELECT COUNT(*) FROM Object");
  EXPECT_EQ(exec.chunksDispatched, half.size());
  frontend().setAvailableChunks(saved);
}

TEST_F(IntegrationTest, NonPartitionedQueryRunsOnFrontend) {
  auto exec = distQuery("SELECT 6 * 7 AS answer");
  ASSERT_TRUE(exec.result);
  EXPECT_EQ(exec.result->cell(0, 0).asInt(), 42);
  EXPECT_EQ(exec.chunksDispatched, 0u);
}

TEST_F(IntegrationTest, UnknownTableFails) {
  EXPECT_FALSE(frontend().query("SELECT * FROM NoSuch").isOk());
}

TEST_F(IntegrationTest, OrderByLimitAcrossChunks) {
  std::string sql =
      "SELECT objectId FROM Object WHERE ra_PS BETWEEN 0 AND 20 "
      "ORDER BY objectId DESC LIMIT 7";
  auto exec = distQuery(sql);
  auto oracle = oracleQuery(sql);
  ASSERT_TRUE(exec.result && oracle);
  ASSERT_EQ(exec.result->numRows(), oracle->numRows());
  for (std::size_t r = 0; r < oracle->numRows(); ++r) {
    EXPECT_EQ(exec.result->cell(r, 0).asInt(), oracle->cell(r, 0).asInt());
  }
}

// ------------------------------------------------------------- observability

TEST_F(IntegrationTest, QueryTraceSpansEveryLayer) {
  using util::SpanKind;
  auto exec = distQuery("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(exec.trace);
  EXPECT_EQ(exec.trace->id(), exec.queryId);
  EXPECT_GT(exec.chunksDispatched, 1u);

  // The trace crosses every layer of the stack.
  auto spans = exec.trace->spans();
  std::map<SpanKind, std::size_t> byKind;
  std::set<std::string> workersSeen;
  for (const auto& s : spans) {
    EXPECT_GE(s.endUs, s.startUs) << util::spanName(s.kind);
    EXPECT_TRUE(s.error.empty()) << util::spanName(s.kind);
    ++byKind[s.kind];
    if (s.kind == SpanKind::kExec) {
      EXPECT_GE(s.chunk, 0);
      workersSeen.insert(s.worker);
    }
  }
  // One dispatcher chunk span, one frame read and one merge on the czar,
  // and one worker queue wait and execution, per dispatched chunk.
  EXPECT_EQ(byKind[SpanKind::kChunk], exec.chunksDispatched);
  EXPECT_EQ(byKind[SpanKind::kFrameRead], exec.chunksDispatched);
  EXPECT_EQ(byKind[SpanKind::kMerge], exec.chunksDispatched);
  EXPECT_EQ(byKind[SpanKind::kExec], exec.chunksDispatched);
  EXPECT_EQ(byKind[SpanKind::kQueueWait], exec.chunksDispatched);
  // One batch, with its request write, per worker holding chunks.
  EXPECT_EQ(byKind[SpanKind::kBatch], exec.dispatchBatches);
  EXPECT_EQ(byKind[SpanKind::kBatchWrite], exec.dispatchBatches);
  EXPECT_EQ(workersSeen.size(), exec.dispatchBatches);
  // The czar phases of §4's pipeline each appear once (merging is
  // pipelined inside the dispatch phase, so it has no standalone czar span).
  for (SpanKind phase :
       {SpanKind::kParse, SpanKind::kAnalyze, SpanKind::kChunkPrune,
        SpanKind::kRewrite, SpanKind::kDispatch,
        SpanKind::kFinalAggregation}) {
    EXPECT_EQ(byKind[phase], 1u) << "czar phase " << util::spanName(phase);
  }
  EXPECT_EQ(exec.trace->components().size(), 5u);  // czar..merger

  // The export is loadable Chrome trace_event JSON.
  std::string json = exec.trace->toChromeJson();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_F(IntegrationTest, SingleChunkQueryTraceIsPruned) {
  std::int64_t id = someObjectId(5);
  auto exec = distQuery("SELECT * FROM Object WHERE objectId = " +
                        std::to_string(id));
  ASSERT_TRUE(exec.trace);
  std::size_t chunkSpans = 0;
  for (const auto& s : exec.trace->spans()) {
    if (s.kind == util::SpanKind::kChunk) ++chunkSpans;
  }
  EXPECT_EQ(chunkSpans, 1u);
}

TEST_F(IntegrationTest, WorkerQueueMetricsPopulated) {
  auto& reg = util::MetricsRegistry::instance();
  auto before = reg.snapshot();
  auto exec = distQuery("SELECT COUNT(*) FROM Object");
  auto after = reg.snapshot();

  // Every dispatched chunk passed through a worker queue and recorded its
  // wait and execution time.
  auto delta = [&](const char* name) {
    auto b = before.counters.count(name) ? before.counters.at(name) : 0;
    return after.counters.at(name) - b;
  };
  EXPECT_GE(delta("worker.tasks_enqueued"), exec.chunksDispatched);
  EXPECT_GE(delta("worker.tasks_executed"), exec.chunksDispatched);
  auto waitBefore = before.histograms.count("worker.queue_wait_seconds")
                        ? before.histograms.at("worker.queue_wait_seconds").count
                        : 0;
  const auto& wait = after.histograms.at("worker.queue_wait_seconds");
  EXPECT_GE(wait.count - waitBefore,
            static_cast<std::int64_t>(exec.chunksDispatched));
  EXPECT_GE(wait.max, 0.0);
  const auto& execHist = after.histograms.at("worker.execute_seconds");
  EXPECT_GT(execHist.count, 0);
  EXPECT_GT(execHist.max, 0.0);

  // Queue-depth and busy-slot gauges are back to idle after the query.
  EXPECT_EQ(after.gauges.at("worker.queue_depth"), 0);
  EXPECT_EQ(after.gauges.at("worker.busy_slots"), 0);

  // The dispatch and merge layers kept pace with the chunk count. Batched
  // dispatch (the default) writes once per (query, worker) instead of once
  // per chunk — that is the point — but every chunk still comes back as its
  // own result-stream read.
  EXPECT_GE(delta("dispatch.chunks_ok"), exec.chunksDispatched);
  EXPECT_GE(delta("merger.dumps_replayed"), exec.chunksDispatched);
  EXPECT_GT(exec.dispatchBatches, 0u);
  EXPECT_GE(delta("xrd.batch_writes"), exec.dispatchBatches);
  EXPECT_GE(delta("xrd.write_transactions"), exec.dispatchBatches);
  EXPECT_GE(delta("xrd.stream_reads"), exec.chunksDispatched);
}

TEST_F(IntegrationTest, ProcessListShowsFinishedQuery) {
  std::string sql = "SELECT COUNT(*) FROM Object";
  auto exec = distQuery(sql);
  auto list = frontend().processList();
  auto it = std::find_if(list.begin(), list.end(), [&](const auto& q) {
    return q.id == exec.queryId;
  });
  ASSERT_NE(it, list.end());
  EXPECT_TRUE(it->finished);
  EXPECT_EQ(it->state, "done");
  EXPECT_EQ(it->sql, sql);
  EXPECT_EQ(it->chunksTotal, exec.chunksDispatched);
  EXPECT_EQ(it->chunksCompleted, it->chunksTotal);
  EXPECT_GT(it->elapsedSeconds, 0.0);
}

TEST_F(IntegrationTest, ProcessListRecordsFailedQuery) {
  auto before = frontend().processList().size();
  EXPECT_FALSE(frontend().query("SELECT * FROM NoSuch").isOk());
  auto list = frontend().processList();
  EXPECT_EQ(list.size(), std::min(before + 1, std::size_t{32}));
  // Newest finished entry first.
  auto it = std::find_if(list.begin(), list.end(),
                         [](const auto& q) { return q.finished; });
  ASSERT_NE(it, list.end());
  EXPECT_EQ(it->state.rfind("failed: ", 0), 0u) << it->state;
}

// ------------------------------------------------------------ fault handling

TEST(IntegrationFailover, ReplicatedClusterSurvivesWorkerLoss) {
  CatalogConfig catalog = CatalogConfig::lsst(18, 6, 0.05);
  SkyDataOptions data;
  data.basePatchObjects = 300;
  data.withSources = false;
  data.region = sphgeom::SphericalBox(0, -7, 10, 7);
  auto cat = buildSkyCatalog(catalog, data);
  ASSERT_TRUE(cat.isOk());

  ClusterOptions opts;
  opts.numWorkers = 3;
  opts.replication = 2;
  opts.frontend.catalog = catalog;
  auto cluster = MiniCluster::create(opts, *cat);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();

  auto before = (*cluster)->frontend().query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(before.isOk()) << before.status().toString();

  // Kill one data server; every chunk still has a live replica.
  (*cluster)->server(0).setUp(false);
  auto after = (*cluster)->frontend().query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(after.isOk()) << after.status().toString();
  EXPECT_EQ(before->result->cell(0, 0).asInt(),
            after->result->cell(0, 0).asInt());
}

TEST(IntegrationFailover, UnreplicatedClusterFailsWhenOwnerDies) {
  CatalogConfig catalog = CatalogConfig::lsst(18, 6, 0.05);
  SkyDataOptions data;
  data.basePatchObjects = 200;
  data.withSources = false;
  data.region = sphgeom::SphericalBox(0, -7, 10, 7);
  auto cat = buildSkyCatalog(catalog, data);
  ASSERT_TRUE(cat.isOk());

  ClusterOptions opts;
  opts.numWorkers = 3;
  opts.replication = 1;
  opts.frontend.catalog = catalog;
  auto cluster = MiniCluster::create(opts, *cat);
  ASSERT_TRUE(cluster.isOk());

  (*cluster)->server(1).setUp(false);
  auto r = (*cluster)->frontend().query("SELECT COUNT(*) FROM Object");
  EXPECT_FALSE(r.isOk());
}

}  // namespace
}  // namespace qserv::core
