#include "qserv/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>

#include "datagen/schemas.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace qserv::core {
namespace {

/// Small shared dataset for cluster-level tests.
struct SmallSky {
  CatalogConfig catalog = CatalogConfig::lsst(18, 6, 0.05);
  datagen::PartitionedCatalog data;

  SmallSky() {
    SkyDataOptions opts;
    opts.basePatchObjects = 600;
    opts.withSources = false;
    opts.region = sphgeom::SphericalBox(0, -7, 14, 7);
    auto r = buildSkyCatalog(catalog, opts);
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    data = std::move(r).value();
  }
};

TEST(MiniCluster, RejectsBadOptions) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 0;
  EXPECT_FALSE(MiniCluster::create(opts, sky.data).isOk());
  opts.numWorkers = 2;
  opts.replication = 3;  // > workers
  EXPECT_FALSE(MiniCluster::create(opts, sky.data).isOk());
}

TEST(MiniCluster, ReplicationPlacesChunksOnDistinctWorkers) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 3;
  opts.replication = 2;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());
  for (std::int32_t chunk : (*cluster)->chunkIds()) {
    auto replicas = (*cluster)->redirector()->replicasOf(chunk);
    ASSERT_EQ(replicas.size(), 2u) << "chunk " << chunk;
    EXPECT_NE(replicas[0]->id(), replicas[1]->id());
  }
}

TEST(MiniCluster, PrimaryChunksPartitionTheChunkSet) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 4;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());
  std::size_t total = 0;
  for (std::size_t w = 0; w < (*cluster)->numWorkers(); ++w) {
    total += (*cluster)->chunksOfWorker(w).size();
  }
  EXPECT_EQ(total, (*cluster)->chunkIds().size());
}

TEST(MiniCluster, BinaryTransferClusterMatchesDumpCluster) {
  SmallSky sky;
  auto run = [&](TransferFormat format) {
    ClusterOptions opts;
    opts.frontend.catalog = sky.catalog;
    opts.numWorkers = 3;
    opts.worker.transfer = format;
    auto cluster = MiniCluster::create(opts, sky.data);
    EXPECT_TRUE(cluster.isOk());
    auto r = (*cluster)->frontend().query(
        "SELECT objectId, ra_PS FROM Object WHERE decl_PS > 0 "
        "ORDER BY objectId LIMIT 20");
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    return std::move(r).value().result;
  };
  auto viaDump = run(TransferFormat::kSqlDump);
  auto viaBinary = run(TransferFormat::kBinary);
  ASSERT_TRUE(viaDump && viaBinary);
  ASSERT_EQ(viaDump->numRows(), viaBinary->numRows());
  for (std::size_t r = 0; r < viaDump->numRows(); ++r) {
    for (std::size_t c = 0; c < viaDump->numColumns(); ++c) {
      EXPECT_EQ(viaDump->cell(r, c).compare(viaBinary->cell(r, c)), 0);
    }
  }
}

TEST(MiniCluster, BinaryTransferAggregates) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 3;
  opts.worker.transfer = TransferFormat::kBinary;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());
  auto r = (*cluster)->frontend().query(
      "SELECT COUNT(*), AVG(ra_PS) FROM Object");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  std::int64_t total = 0;
  for (const auto& chunk : sky.data.chunks) {
    total += static_cast<std::int64_t>(chunk.objects->numRows());
  }
  EXPECT_EQ(r->result->cell(0, 0).asInt(), total);
}

TEST(MiniCluster, ScanAggregatesRunColumnarOncePerChunk) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 3;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());

  // Oracle answers straight from the partitioned tables.
  std::vector<double> gFlux;
  std::int64_t idPlusOneSum = 0;
  for (const auto& chunk : sky.data.chunks) {
    const sql::Table& t = *chunk.objects;
    auto id = t.schema().indexOf("objectId");
    auto g = t.schema().indexOf("gFlux_PS");
    ASSERT_TRUE(id && g);
    for (std::size_t r = 0; r < t.numRows(); ++r) {
      idPlusOneSum += t.intColumn(*id)[r] + 1;
      if (!t.isNull(r, *g)) gFlux.push_back(t.doubleColumn(*g)[r]);
    }
  }
  ASSERT_FALSE(gFlux.empty());
  std::sort(gFlux.begin(), gFlux.end());
  const double lo = gFlux[gFlux.size() * 3 / 10];
  const double hi = gFlux[gFlux.size() * 7 / 10];

  auto counter = [](const char* name) -> std::uint64_t {
    auto snap = util::MetricsRegistry::instance().snapshot();
    return snap.counters.count(name) ? snap.counters.at(name) : 0;
  };
  struct Case {
    std::string sql;
    bool columnar;
  };
  const Case cases[] = {
      // HV3-shaped: per-chunk density.
      {"SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId", true},
      // HV4-shaped: filtered COUNT/MIN/MAX.
      {util::format("SELECT COUNT(*), MIN(decl_PS), MAX(decl_PS) FROM Object "
                    "WHERE gFlux_PS BETWEEN %.17g AND %.17g",
                    lo, hi),
       true},
      // An expression argument takes the per-row expression path.
      {"SELECT COUNT(*), SUM(objectId + 1) FROM Object", false},
  };
  for (const Case& c : cases) {
    std::uint64_t aggsBefore = counter("worker.columnar_aggregates");
    std::uint64_t rowsBefore = counter("worker.columnar_agg_rows");
    auto r = (*cluster)->frontend().query(c.sql);
    ASSERT_TRUE(r.isOk()) << r.status().toString() << " for " << c.sql;
    ASSERT_GT(r->chunksDispatched, 0u);
    std::uint64_t aggs = counter("worker.columnar_aggregates") - aggsBefore;
    std::uint64_t rows = counter("worker.columnar_agg_rows") - rowsBefore;
    if (c.columnar) {
      EXPECT_EQ(aggs, r->chunksDispatched) << c.sql;
      EXPECT_GT(rows, 0u) << c.sql;
    } else {
      EXPECT_EQ(aggs, 0u) << c.sql;
      EXPECT_EQ(rows, 0u) << c.sql;
      EXPECT_EQ(r->result->cell(0, 1), sql::Value(idPlusOneSum));
    }
  }
}

TEST(FrontendPool, RoundRobinsQueriesAcrossMasters) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 3;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());

  FrontendConfig fc;
  fc.catalog = sky.catalog;
  FrontendPool pool(fc, (*cluster)->redirector(), (*cluster)->chunkIds(),
                    /*numFrontends=*/3);
  ASSERT_TRUE(pool.loadIndex(sky.data.index).isOk());
  EXPECT_EQ(pool.size(), 3u);

  std::int64_t expect = -1;
  for (int i = 0; i < 6; ++i) {
    auto r = pool.query("SELECT COUNT(*) FROM Object");
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    std::int64_t count = r->result->cell(0, 0).asInt();
    if (expect < 0) expect = count;
    EXPECT_EQ(count, expect);  // every master returns the same answer
  }
  auto routed = pool.routedCounts();
  ASSERT_EQ(routed.size(), 3u);
  for (auto n : routed) EXPECT_EQ(n, 2u);  // balanced
}

TEST(FrontendPool, IndexedLookupsWorkThroughEveryMaster) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 2;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());

  FrontendConfig fc;
  fc.catalog = sky.catalog;
  FrontendPool pool(fc, (*cluster)->redirector(), (*cluster)->chunkIds(), 2);
  ASSERT_TRUE(pool.loadIndex(sky.data.index).isOk());

  std::int64_t id = sky.data.index[sky.data.index.size() / 3].objectId;
  for (int i = 0; i < 4; ++i) {  // hits both masters
    auto r = pool.query("SELECT * FROM Object WHERE objectId = " +
                        std::to_string(id));
    ASSERT_TRUE(r.isOk());
    EXPECT_EQ(r->result->numRows(), 1u);
    EXPECT_EQ(r->chunksDispatched, 1u);
  }
}

TEST(FrontendPool, ConcurrentQueriesAcrossMasters) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 3;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());

  FrontendConfig fc;
  fc.catalog = sky.catalog;
  FrontendPool pool(fc, (*cluster)->redirector(), (*cluster)->chunkIds(), 3);
  ASSERT_TRUE(pool.loadIndex(sky.data.index).isOk());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      auto r = pool.query("SELECT COUNT(*) FROM Object WHERE ra_PS > 5");
      if (!r.isOk()) failures.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(MiniCluster, DistributedDistinctMatchesOracle) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 3;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());
  // subChunkId values repeat across chunks: chunk-local dedup alone would
  // be wrong; the merge must re-dedup the union.
  auto r = (*cluster)->frontend().query(
      "SELECT DISTINCT subChunkId FROM Object ORDER BY subChunkId");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  std::set<std::int64_t> expect;
  for (const auto& chunk : sky.data.chunks) {
    for (std::size_t i = 0; i < chunk.objects->numRows(); ++i) {
      expect.insert(chunk.objects->cell(i, datagen::kObjSubChunkId).asInt());
    }
  }
  ASSERT_EQ(r->result->numRows(), expect.size());
  std::size_t i = 0;
  for (std::int64_t v : expect) {
    EXPECT_EQ(r->result->cell(i++, 0).asInt(), v);
  }
  // Chunk-local dedup shrinks traffic: fewer rows merged than total rows.
  EXPECT_LT(r->rowsMerged, 600u * 2u);
}

TEST(MiniCluster, DistributedHavingFiltersMergedGroups) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 3;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());

  // Oracle: per-subChunkId counts over the raw rows (keys span chunks, so
  // HAVING on partial chunk groups would give a different — wrong — set).
  std::map<std::int64_t, std::int64_t> counts;
  for (const auto& chunk : sky.data.chunks) {
    for (std::size_t i = 0; i < chunk.objects->numRows(); ++i) {
      counts[chunk.objects->cell(i, datagen::kObjSubChunkId).asInt()]++;
    }
  }
  std::int64_t threshold = 0;
  for (const auto& [k, n] : counts) threshold = std::max(threshold, n);
  threshold = threshold / 2;
  std::size_t expect = 0;
  for (const auto& [k, n] : counts) {
    if (n > threshold) ++expect;
  }
  ASSERT_GT(expect, 0u);

  auto r = (*cluster)->frontend().query(util::format(
      "SELECT subChunkId, COUNT(*) AS n FROM Object GROUP BY subChunkId "
      "HAVING COUNT(*) > %lld ORDER BY subChunkId",
      static_cast<long long>(threshold)));
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  ASSERT_EQ(r->result->numRows(), expect);
  for (std::size_t i = 0; i < r->result->numRows(); ++i) {
    std::int64_t key = r->result->cell(i, 0).asInt();
    EXPECT_EQ(r->result->cell(i, 1).asInt(), counts.at(key));
    EXPECT_GT(counts.at(key), threshold);
  }
}

TEST(MiniCluster, DistinctWithAggregatesRejected) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 2;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());
  auto r = (*cluster)->frontend().query("SELECT DISTINCT COUNT(*) FROM Object");
  EXPECT_EQ(r.status().code(), util::ErrorCode::kUnimplemented);
}

TEST(MiniCluster, DatabaseQualifiedTableNames) {
  // §5.3: queries may arrive with a database qualifier ("LSST.Object");
  // analysis and rewriting must treat it as the partitioned Object table.
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 2;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());
  auto qualified =
      (*cluster)->frontend().query("SELECT COUNT(*) FROM LSST.Object");
  auto bare = (*cluster)->frontend().query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(qualified.isOk()) << qualified.status().toString();
  ASSERT_TRUE(bare.isOk());
  EXPECT_EQ(qualified->result->cell(0, 0).asInt(),
            bare->result->cell(0, 0).asInt());
  EXPECT_EQ(qualified->chunksDispatched, bare->chunksDispatched);
}

// -------- parameterized overlap-radius correctness sweep -----------------
// Property: for any join radius strictly below the overlap margin, the
// distributed near-neighbor count equals a brute-force count over the raw
// rows (no pair is lost at chunk or subchunk borders).
class OverlapSweep : public ::testing::TestWithParam<double> {};

TEST_P(OverlapSweep, DistributedPairCountIsExact) {
  const double radius = GetParam();
  CatalogConfig catalog = CatalogConfig::lsst(18, 6, /*overlapDeg=*/0.06);
  SkyDataOptions opts;
  opts.basePatchObjects = 900;
  opts.withSources = false;
  opts.region = sphgeom::SphericalBox(0, -7, 8, 7);
  auto sky = buildSkyCatalog(catalog, opts);
  ASSERT_TRUE(sky.isOk());

  ClusterOptions copts;
  copts.frontend.catalog = catalog;
  copts.numWorkers = 3;
  auto cluster = MiniCluster::create(copts, *sky);
  ASSERT_TRUE(cluster.isOk());

  std::string sql = util::format(
      "SELECT count(*) FROM Object o1, Object o2 "
      "WHERE qserv_areaspec_box(1, -4, 6, 3) "
      "AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < %.17g",
      radius);
  auto exec = (*cluster)->frontend().query(sql);
  ASSERT_TRUE(exec.isOk()) << exec.status().toString();
  std::int64_t got = exec->result->cell(0, 0).asInt();

  // Brute force.
  sphgeom::SphericalBox box(1, -4, 6, 3);
  std::vector<std::pair<double, double>> all, inBox;
  for (const auto& chunk : sky->chunks) {
    for (std::size_t r = 0; r < chunk.objects->numRows(); ++r) {
      double ra = chunk.objects->cell(r, datagen::kObjRaPs).asDouble();
      double dec = chunk.objects->cell(r, datagen::kObjDeclPs).asDouble();
      all.emplace_back(ra, dec);
      if (box.contains(ra, dec)) inBox.emplace_back(ra, dec);
    }
  }
  std::int64_t want = 0;
  for (const auto& [ra1, dec1] : inBox) {
    for (const auto& [ra2, dec2] : all) {
      if (sphgeom::angSepDeg(ra1, dec1, ra2, dec2) < radius) ++want;
    }
  }
  EXPECT_EQ(got, want) << "radius " << radius;
  EXPECT_GT(got, 0);
}

INSTANTIATE_TEST_SUITE_P(Radii, OverlapSweep,
                         ::testing::Values(0.005, 0.02, 0.04, 0.059));

}  // namespace
}  // namespace qserv::core
