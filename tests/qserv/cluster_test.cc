#include "qserv/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <thread>

#include "datagen/schemas.h"
#include "oracle.h"
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

TEST(MiniCluster, ModeledTimeFollowsChunkSpecOrder) {
  // Results arrive interleaved across the worker streams; the modeled tasks
  // must not: they follow the dispatched chunk order, so the same query
  // prices the same virtual seconds on every run.
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 4;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());
  QservFrontend& frontend = (*cluster)->frontend();
  const std::string sql = "SELECT COUNT(*) FROM Object WHERE uFlux_PS > 0";
  auto chunks = frontend.chunksFor(sql);
  ASSERT_TRUE(chunks.isOk());
  ASSERT_GT(chunks->size(), 4u);
  std::vector<simio::SimChunkTask> firstTasks;
  double firstSolo = 0.0;
  for (int run = 0; run < 5; ++run) {
    auto exec = frontend.query(sql);
    ASSERT_TRUE(exec.isOk()) << exec.status().toString();
    ASSERT_EQ(exec->accounting.size(), chunks->size());
    ASSERT_EQ(exec->simTasks.size(), chunks->size());
    for (std::size_t i = 0; i < chunks->size(); ++i) {
      EXPECT_EQ(exec->accounting[i].chunkId, (*chunks)[i]) << "run " << run;
    }
    if (run == 0) {
      firstTasks = exec->simTasks;
      firstSolo = exec->soloTiming.completionSec;
      continue;
    }
    EXPECT_EQ(exec->soloTiming.completionSec, firstSolo) << "run " << run;
    for (std::size_t i = 0; i < firstTasks.size(); ++i) {
      EXPECT_EQ(exec->simTasks[i].worker, firstTasks[i].worker);
      EXPECT_EQ(exec->simTasks[i].serviceSec, firstTasks[i].serviceSec);
    }
  }
}

TEST(MiniCluster, ClusterMatchesSingleNodeOracle) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 3;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  auto oracleDb = oracle::build(sky.data);
  const std::string sql =
      "SELECT objectId, ra_PS FROM Object WHERE decl_PS > 0 "
      "ORDER BY objectId LIMIT 20";
  auto r = (*cluster)->frontend().query(sql);
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  auto want = oracleDb->execute(sql);
  ASSERT_TRUE(want.isOk()) << want.status().toString();
  ASSERT_EQ((*want)->numRows(), 20u);
  oracle::expectSameResult(r->result, *want, /*ordered=*/true, sql);
}

/// \p src with cell (row, \p col) replaced for each entry of \p values.
sql::TablePtr withCells(const sql::Table& src, std::size_t col,
                        const std::vector<std::pair<std::size_t, sql::Value>>&
                            values) {
  auto out = std::make_shared<sql::Table>(src.name(), src.schema());
  for (std::size_t r = 0; r < src.numRows(); ++r) {
    std::vector<sql::Value> row = src.row(r);
    for (const auto& [at, v] : values) {
      if (at == r) row[col] = v;
    }
    EXPECT_TRUE(out->appendRow(row).isOk());
  }
  return out;
}

/// Same type and the same bits (so NaN matches NaN, and -0.0 only -0.0).
bool bitIdentical(const sql::Value& a, const sql::Value& b) {
  if (a.type() != b.type()) return false;
  if (a.isDouble()) {
    double x = a.asDouble(), y = b.asDouble();
    return std::memcmp(&x, &y, sizeof x) == 0;
  }
  return a == b;
}

TEST(MiniCluster, EdgeValuesArriveBitExactAndMatchSingleNodeOracle) {
  SmallSky sky;
  // Plant edge values in uFlux_PS of the two most populated chunks. The
  // first chunk's partial SUM is NaN: SQL text has no NaN literal, so a dump
  // would have shipped it as NULL and the merged SUM would skip it.
  std::vector<std::size_t> order(sky.data.chunks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sky.data.chunks[a].objects->numRows() >
           sky.data.chunks[b].objects->numRows();
  });
  ASSERT_GE(order.size(), 2u);
  datagen::ChunkData& nanChunk = sky.data.chunks[order[0]];
  datagen::ChunkData& infChunk = sky.data.chunks[order[1]];
  ASSERT_GE(infChunk.objects->numRows(), 3u);
  const std::size_t flux = *nanChunk.objects->schema().indexOf("uFlux_PS");
  const std::size_t id = *nanChunk.objects->schema().indexOf("objectId");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  nanChunk.objects = withCells(*nanChunk.objects, flux,
                               {{0, sql::Value(nan)},
                                {1, sql::Value(-0.0)},
                                {2, sql::Value::null()}});
  infChunk.objects = withCells(*infChunk.objects, flux,
                               {{0, sql::Value(4.9406564584124654e-324)},
                                {1, sql::Value(-inf)}});
  std::vector<std::int64_t> ids;
  for (std::size_t r = 0; r < 3; ++r) {
    ids.push_back(nanChunk.objects->intColumn(id)[r]);
  }
  for (std::size_t r = 0; r < 2; ++r) {
    ids.push_back(infChunk.objects->intColumn(id)[r]);
  }

  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 3;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  auto oracleDb = oracle::build(sky.data);
  auto both = [&](const std::string& sql)
      -> std::pair<sql::TablePtr, sql::TablePtr> {
    auto got = (*cluster)->frontend().query(sql);
    EXPECT_TRUE(got.isOk()) << got.status().toString() << " for " << sql;
    auto want = oracleDb->execute(sql);
    EXPECT_TRUE(want.isOk()) << want.status().toString() << " for " << sql;
    if (!got.isOk() || !want.isOk()) return {};
    return {got->result, *want};
  };

  // Values that pass through untouched arrive bit for bit: planted doubles,
  // NULL, quoted and backslashed strings, and INT64 extremes.
  std::vector<std::string> idList;
  for (std::int64_t v : ids) idList.push_back(std::to_string(v));
  const std::string rowsSql =
      "SELECT objectId, uFlux_PS, 'it''s' AS quoted, 'back\\\\slash' AS "
      "escaped, 9223372036854775807 AS maxInt, -9223372036854775807 - 1 AS "
      "minInt FROM Object WHERE objectId IN (" +
      util::join(idList, ", ") + ") ORDER BY objectId";
  auto [got, want] = both(rowsSql);
  ASSERT_TRUE(got && want);
  ASSERT_EQ(want->numRows(), ids.size());
  ASSERT_EQ(got->numRows(), want->numRows());
  ASSERT_EQ(got->numColumns(), want->numColumns());
  for (std::size_t r = 0; r < want->numRows(); ++r) {
    for (std::size_t c = 0; c < want->numColumns(); ++c) {
      EXPECT_TRUE(bitIdentical(got->cell(r, c), want->cell(r, c)))
          << "row " << r << " col " << c << ": got "
          << got->cell(r, c).toDisplayString() << ", want "
          << want->cell(r, c).toDisplayString();
    }
    EXPECT_EQ(got->cell(r, 2), sql::Value("it's"));
    EXPECT_EQ(got->cell(r, 3), sql::Value("back\\slash"));
    EXPECT_EQ(got->cell(r, 4),
              sql::Value(std::numeric_limits<std::int64_t>::max()));
    EXPECT_EQ(got->cell(r, 5),
              sql::Value(std::numeric_limits<std::int64_t>::min()));
  }
  int nans = 0, negZeros = 0, nulls = 0;
  for (std::size_t r = 0; r < got->numRows(); ++r) {
    sql::Value v = got->cell(r, 1);
    if (v.isNull()) {
      ++nulls;
    } else if (std::isnan(v.asDouble())) {
      ++nans;
    } else if (v.asDouble() == 0.0 && std::signbit(v.asDouble())) {
      ++negZeros;
    }
  }
  EXPECT_EQ(nans, 1);
  EXPECT_EQ(negZeros, 1);
  EXPECT_EQ(nulls, 1);

  // A NaN partial SUM reaches the czar as NaN, so the merged SUM is NaN,
  // exactly as on one node; per-chunk sums keep their NaN and -inf.
  auto [sum, sumWant] = both("SELECT SUM(uFlux_PS) FROM Object");
  ASSERT_TRUE(sum && sumWant);
  ASSERT_TRUE(sumWant->cell(0, 0).isDouble());
  EXPECT_TRUE(std::isnan(sumWant->cell(0, 0).asDouble()));
  EXPECT_TRUE(bitIdentical(sum->cell(0, 0), sumWant->cell(0, 0)));
  const std::string perChunk =
      "SELECT chunkId, SUM(uFlux_PS) AS s, COUNT(uFlux_PS) AS n FROM Object "
      "GROUP BY chunkId ORDER BY chunkId";
  auto [groups, groupsWant] = both(perChunk);
  oracle::expectSameResult(groups, groupsWant, /*ordered=*/true, perChunk);
}

TEST(MiniCluster, BinaryTransferAggregates) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 3;
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
