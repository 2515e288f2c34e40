/// Frontend (czar) edge cases: malformed input, unsupported shapes, empty
/// chunk covers, and execution accounting.
#include <gtest/gtest.h>

#include "qserv/cluster.h"
#include "util/metrics.h"

namespace qserv::core {
namespace {

class CzarTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogConfig catalog = CatalogConfig::lsst(18, 6, 0.05);
    SkyDataOptions data;
    data.basePatchObjects = 500;
    data.withSources = true;
    data.region = sphgeom::SphericalBox(0, -7, 14, 7);
    auto sky = buildSkyCatalog(catalog, data);
    ASSERT_TRUE(sky.isOk());
    ClusterOptions opts;
    opts.numWorkers = 2;
    opts.frontend.catalog = catalog;
    auto cluster = MiniCluster::create(opts, *sky);
    ASSERT_TRUE(cluster.isOk());
    cluster_ = cluster->release();
  }
  static void TearDownTestSuite() {
    delete cluster_;
    cluster_ = nullptr;
  }

  QservFrontend& frontend() { return cluster_->frontend(); }

  static MiniCluster* cluster_;
};

MiniCluster* CzarTest::cluster_ = nullptr;

TEST_F(CzarTest, MalformedSqlFails) {
  EXPECT_FALSE(frontend().query("SELEKT 1").isOk());
  EXPECT_FALSE(frontend().query("").isOk());
  EXPECT_FALSE(frontend().query("SELECT FROM Object").isOk());
}

TEST_F(CzarTest, NonSelectStatementsRejected) {
  EXPECT_FALSE(frontend().query("DROP TABLE Object").isOk());
  EXPECT_FALSE(frontend().query("INSERT INTO Object VALUES (1)").isOk());
}

TEST_F(CzarTest, SubqueriesUnsupportedLikeThePaper) {
  // "Qserv does not currently support SQL subqueries" (§5.3) — the parser
  // rejects them.
  EXPECT_FALSE(frontend()
                   .query("SELECT * FROM Object WHERE objectId IN "
                          "(SELECT objectId FROM Source)")
                   .isOk());
}

TEST_F(CzarTest, ThreePartitionedTablesRejected) {
  auto r = frontend().query(
      "SELECT COUNT(*) FROM Object o, Source s, Source s2 "
      "WHERE o.objectId = s.objectId AND s.objectId = s2.objectId");
  EXPECT_EQ(r.status().code(), util::ErrorCode::kUnimplemented);
}

TEST_F(CzarTest, AreaspecOutsideDataDispatchesNothing) {
  auto r = frontend().query(
      "SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(180, 40, 190, 50)");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  EXPECT_EQ(r->chunksDispatched, 0u);
  EXPECT_EQ(r->result->numRows(), 0u);
}

TEST_F(CzarTest, LimitZeroAcrossChunks) {
  auto r = frontend().query("SELECT objectId FROM Object LIMIT 0");
  ASSERT_TRUE(r.isOk());
  EXPECT_EQ(r->result->numRows(), 0u);
  EXPECT_GT(r->chunksDispatched, 0u);
}

TEST_F(CzarTest, RowsMergedAccountsChunkResults) {
  auto r = frontend().query(
      "SELECT count(*) AS n, chunkId FROM Object GROUP BY chunkId");
  ASSERT_TRUE(r.isOk());
  // One partial row per chunk that owns objects arrives at the merger
  // (edge chunks holding only overlap rows contribute none).
  EXPECT_EQ(r->rowsMerged, r->result->numRows());
  EXPECT_GT(r->result->numRows(), 0u);
  EXPECT_LE(r->result->numRows(), r->chunksDispatched);
}

TEST_F(CzarTest, ChunksForMatchesExecution) {
  std::string sql =
      "SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(1, -3, 5, 3)";
  auto planned = frontend().chunksFor(sql);
  auto exec = frontend().query(sql);
  ASSERT_TRUE(planned.isOk() && exec.isOk());
  EXPECT_EQ(planned->size(), exec->chunksDispatched);
}

TEST_F(CzarTest, WallTimeAndSoloTimingPopulated) {
  auto r = frontend().query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(r.isOk());
  EXPECT_GT(r->wallSeconds, 0.0);
  EXPECT_GT(r->soloTiming.elapsedSec(), 0.0);
  EXPECT_EQ(r->accounting.size(), r->chunksDispatched);
}

TEST_F(CzarTest, FunctionsComputedOnWorkersArriveInResults) {
  auto r = frontend().query(
      "SELECT objectId, fluxToAbMag(rFlux_PS) FROM Object "
      "WHERE qserv_areaspec_box(1, -3, 4, 3) ORDER BY objectId LIMIT 5");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  for (std::size_t i = 0; i < r->result->numRows(); ++i) {
    double mag = r->result->cell(i, 1).asDouble();
    EXPECT_GT(mag, 5.0);
    EXPECT_LT(mag, 35.0);
  }
}

TEST_F(CzarTest, RepeatedQueriesAreStable) {
  std::int64_t first = -1;
  for (int i = 0; i < 5; ++i) {
    auto r = frontend().query("SELECT COUNT(*) FROM Object");
    ASSERT_TRUE(r.isOk());
    std::int64_t n = r->result->cell(0, 0).asInt();
    if (first < 0) first = n;
    EXPECT_EQ(n, first);
  }
}

TEST_F(CzarTest, IdentityMergeRunsNoFinalSelect) {
  // An objectId lookup's merge plan is `SELECT * FROM <merge>`: the merge
  // table is the result, so no final SELECT is parsed or run. A COUNT
  // aggregates its partials with one.
  auto& selects =
      util::MetricsRegistry::instance().counter("merger.final_selects");
  auto min = frontend().query("SELECT MIN(objectId) FROM Object");
  ASSERT_TRUE(min.isOk()) << min.status().toString();
  std::int64_t id = min->result->cell(0, 0).asInt();

  std::uint64_t before = selects.value();
  auto lookup = frontend().query(
      "SELECT objectId, ra_PS FROM Object WHERE objectId = " +
      std::to_string(id));
  ASSERT_TRUE(lookup.isOk()) << lookup.status().toString();
  ASSERT_EQ(lookup->result->numRows(), 1u);
  EXPECT_EQ(lookup->result->cell(0, 0).asInt(), id);
  EXPECT_EQ(lookup->result->numColumns(), 2u);
  EXPECT_EQ(selects.value(), before);

  auto count = frontend().query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(count.isOk()) << count.status().toString();
  EXPECT_EQ(selects.value(), before + 1);
}

}  // namespace
}  // namespace qserv::core
