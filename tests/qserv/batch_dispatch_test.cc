/// \file batch_dispatch_test.cc
/// \brief Batched per-worker dispatch (§7.6 remedy): wire-codec roundtrips,
/// batch accounting and observability, and a seeded randomized parity sweep
/// asserting that dispatch returns a single-node oracle's answer across
/// LV / HV / SHV query shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "oracle.h"
#include "qserv/batch_codec.h"
#include "qserv/cluster.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/strings.h"

namespace qserv::core {
namespace {

// --------------------------------------------------------------- wire codec

BatchRequest sampleRequest() {
  BatchRequest request;
  request.traceId = 0x0123456789abcdefULL;
  request.streamWindow = 8;
  request.templateHash = std::string(32, 'a');
  request.query.sql = "SELECT COUNT(*) AS c FROM Object AS o1, Object AS o2";
  request.query.bindings = {{0, TableBindingKind::kSubChunk},
                            {1, TableBindingKind::kFullOverlap}};
  request.query.aggregate = true;
  request.query.queryClass = QueryClass::kScan;
  request.chunks = {{101, {1, 2, 3}}, {202, {}}, {303, {7}}};
  return request;
}

TEST(BatchCodec, RequestRoundTrip) {
  BatchRequest request = sampleRequest();
  // Template text that embeds NUL bytes, newlines and text that looks like
  // framing: byte counts, not delimiters, must drive the decoder.
  request.query.sql += std::string("\0 --#CHUNK QBR1\n", 16);
  std::string wire = encodeBatchRequest(request);

  auto decoded = decodeBatchRequest(wire);
  ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
  EXPECT_EQ(decoded->traceId, request.traceId);
  EXPECT_EQ(decoded->streamWindow, 8);
  EXPECT_EQ(decoded->templateHash, request.templateHash);
  EXPECT_EQ(decoded->query.sql, request.query.sql);
  EXPECT_EQ(decoded->query.bindings, request.query.bindings);
  EXPECT_TRUE(decoded->query.aggregate);
  EXPECT_EQ(decoded->query.queryClass, QueryClass::kScan);
  ASSERT_EQ(decoded->chunks.size(), request.chunks.size());
  for (std::size_t i = 0; i < request.chunks.size(); ++i) {
    EXPECT_EQ(decoded->chunks[i].chunkId, request.chunks[i].chunkId);
    EXPECT_EQ(decoded->chunks[i].subChunkIds, request.chunks[i].subChunkIds);
  }
}

TEST(BatchCodec, EnvelopeCarriesQueryClass) {
  for (QueryClass cls : {QueryClass::kInteractive, QueryClass::kScan}) {
    BatchRequest request = sampleRequest();
    request.query.queryClass = cls;
    auto decoded = decodeBatchRequest(encodeBatchRequest(request));
    ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
    EXPECT_EQ(decoded->query.queryClass, cls);
  }
}

TEST(BatchCodec, UnknownClassByteIsRejected) {
  std::string wire = encodeBatchRequest(sampleRequest());
  const std::size_t classAt = 4 + 8;  // magic, trace id
  for (char cls : {'\x02', '\x7f', '\xff'}) {
    std::string bad = wire;
    bad[classAt] = cls;
    auto r = decodeBatchRequest(bad);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), util::ErrorCode::kInvalidArgument);
  }
}

TEST(BatchCodec, RequestRejectsDamage) {
  std::string wire = encodeBatchRequest(sampleRequest());
  // Truncation, trailing garbage, and a non-batch header are all framing
  // violations, not "best effort" parses.
  for (const std::string& bad :
       {wire.substr(0, wire.size() - 1), wire + "x",
        std::string("-- QSERV-BATCH 2 4\n"), std::string()}) {
    auto r = decodeBatchRequest(bad);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), util::ErrorCode::kInvalidArgument)
        << r.status().toString();
  }
}

TEST(BatchCodec, ResultFrameRoundTrip) {
  std::string body("dump\0with\nbinary bytes --#FRAME 1 ok 0\n", 39);
  std::string frame = encodeResultFrame(42, body);
  auto decoded = decodeResultFrame(frame);
  ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
  EXPECT_EQ(decoded->chunkId, 42);
  EXPECT_TRUE(decoded->status.isOk());
  EXPECT_EQ(decoded->body, body);
}

TEST(BatchCodec, ErrorFrameCarriesWorkerStatus) {
  std::string frame =
      encodeErrorFrame(7, util::Status::unavailable("worker going down"));
  auto decoded = decodeResultFrame(frame);
  ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
  EXPECT_EQ(decoded->chunkId, 7);
  EXPECT_EQ(decoded->status.code(), util::ErrorCode::kUnavailable);
  EXPECT_NE(decoded->status.message().find("worker going down"),
            std::string::npos);
}

TEST(BatchCodec, DamagedFrameIsDataLoss) {
  std::string frame = encodeResultFrame(5, "the result body");
  std::string scrambledHeader = frame;
  scrambledHeader[4] = 'X';  // inside "--#FRAME"
  for (const std::string& bad :
       {scrambledHeader, frame.substr(0, frame.size() - 3), std::string()}) {
    auto r = decodeResultFrame(bad);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), util::ErrorCode::kDataLoss)
        << r.status().toString();
  }
}

// ---------------------------------------------------------- cluster fixture

class BatchDispatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new CatalogConfig(CatalogConfig::lsst(18, 6, 0.05));
    SkyDataOptions data;
    data.basePatchObjects = 700;
    data.withSources = false;
    data.region = sphgeom::SphericalBox(0, -7, 30, 7);
    auto sky = buildSkyCatalog(*catalog_, data);
    ASSERT_TRUE(sky.isOk()) << sky.status().toString();
    catalogData_ = new datagen::PartitionedCatalog(std::move(sky).value());
  }

  static void TearDownTestSuite() {
    delete catalogData_;
    catalogData_ = nullptr;
    delete catalog_;
    catalog_ = nullptr;
  }

  static std::unique_ptr<MiniCluster> makeCluster(
      std::optional<xrd::FaultPlan> faults = std::nullopt) {
    ClusterOptions opts;
    opts.numWorkers = 3;
    opts.frontend.catalog = *catalog_;
    if (faults) {
      // Damaged frames are re-fetched from the other replica as batches of
      // one.
      opts.replication = 2;
      opts.faults = *faults;
      opts.frontend.dispatchMaxAttempts = 8;
      opts.frontend.dispatchBackoff.base = std::chrono::microseconds(200);
      opts.frontend.dispatchBackoff.cap = std::chrono::microseconds(2'000);
    }
    auto cluster = MiniCluster::create(opts, *catalogData_);
    EXPECT_TRUE(cluster.isOk()) << cluster.status().toString();
    return cluster.isOk() ? std::move(*cluster) : nullptr;
  }

  static QservFrontend::Execution query(MiniCluster& cluster,
                                        const std::string& sql) {
    auto r = cluster.frontend().query(sql);
    EXPECT_TRUE(r.isOk()) << r.status().toString() << " for: " << sql;
    return r.isOk() ? std::move(r).value() : QservFrontend::Execution{};
  }

  static CatalogConfig* catalog_;
  static datagen::PartitionedCatalog* catalogData_;
};

CatalogConfig* BatchDispatchTest::catalog_ = nullptr;
datagen::PartitionedCatalog* BatchDispatchTest::catalogData_ = nullptr;

// ----------------------------------------------------------- batched basics

TEST_F(BatchDispatchTest, OneBatchPerWorkerNotPerChunk) {
  auto cluster = makeCluster();
  ASSERT_TRUE(cluster);
  auto before = util::MetricsRegistry::instance().snapshot();
  auto exec = query(*cluster, "SELECT COUNT(*) FROM Object");
  auto after = util::MetricsRegistry::instance().snapshot();
  auto delta = [&](const char* name) -> std::uint64_t {
    auto b = before.counters.count(name) ? before.counters.at(name) : 0;
    auto a = after.counters.count(name) ? after.counters.at(name) : 0;
    return a - b;
  };

  ASSERT_TRUE(exec.result);
  // A full-sky query on 3 workers needs exactly 3 batch requests, not one
  // write per chunk — that is the whole point of the remedy.
  EXPECT_EQ(exec.dispatchBatches, cluster->numWorkers());
  EXPECT_GT(exec.chunksDispatched, cluster->numWorkers());
  EXPECT_EQ(delta("dispatch.batches"), exec.dispatchBatches);
  EXPECT_EQ(delta("xrd.batch_writes"), exec.dispatchBatches);
  EXPECT_EQ(delta("xrd.write_transactions"), exec.dispatchBatches);
  // Every chunk's result arrived as a stream frame, none via fallback.
  EXPECT_GE(delta("xrd.stream_reads"), exec.chunksDispatched);
  EXPECT_EQ(delta("dispatch.batch_fallback_chunks"), 0u);
  EXPECT_EQ(delta("dispatch.batch_chunk_retries"), 0u);
}

TEST_F(BatchDispatchTest, ExplainReportsDispatchStrategy) {
  auto batched = makeCluster();
  ASSERT_TRUE(batched);
  auto dispatchRow = [&](MiniCluster& cluster) -> std::string {
    auto exec = query(cluster, "EXPLAIN SELECT COUNT(*) FROM Object");
    if (!exec.result) return {};
    for (std::size_t r = 0; r < exec.result->numRows(); ++r) {
      if (exec.result->cell(r, 0).asString() == "dispatch") {
        return exec.result->cell(r, 1).asString();
      }
    }
    return {};
  };
  std::string batchedDesc = dispatchRow(*batched);
  EXPECT_NE(batchedDesc.find("batched"), std::string::npos) << batchedDesc;
  EXPECT_NE(batchedDesc.find("per-worker batches"), std::string::npos)
      << batchedDesc;
}

TEST_F(BatchDispatchTest, ProfileRecordsBatchTransferDistribution) {
  auto cluster = makeCluster();
  ASSERT_TRUE(cluster);
  auto exec = query(*cluster, "SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(exec.result);
  auto profile = cluster->frontend().profileFor(exec.queryId);
  ASSERT_TRUE(profile);
  EXPECT_EQ(profile->batches,
            static_cast<std::int64_t>(exec.dispatchBatches));
  EXPECT_EQ(profile->batchTransfer.count, profile->batches);
  EXPECT_GT(profile->batchTransfer.sum, 0.0);
  EXPECT_EQ(profile->chunks,
            static_cast<std::int64_t>(exec.chunksDispatched));
  EXPECT_EQ(profile->retries, 0);
}

// ------------------------------------------------------------- parity sweep

TEST_F(BatchDispatchTest, RandomizedParityWithSingleNodeOracle) {
  // Batched dispatch (one batch per worker, pipelined merge) runs a seeded
  // query mix; it must return what one database holding the unpartitioned
  // catalog returns. So must a replicated cluster whose damaged frames are
  // retried as batches of one.
  auto batched = makeCluster();
  ASSERT_TRUE(batched);
  auto damaging = xrd::FaultPlan::parse("seed=7; read:p=0.2,corrupt");
  ASSERT_TRUE(damaging.isOk()) << damaging.status().toString();
  auto retried = makeCluster(*damaging);
  ASSERT_TRUE(retried);
  auto oracleDb = oracle::build(*catalogData_);

  // Each case: the distributed SQL, the oracle's equivalent (areaspec
  // becomes an explicit point-in-box test), and whether rows are ordered.
  struct Case {
    std::string sql;
    std::string oracleSql;
    bool ordered = false;
  };
  util::Rng rng(0xBA7C4ED15);
  std::vector<Case> cases;
  // LV: secondary-index object retrievals at random ids.
  const auto& index = catalogData_->index;
  ASSERT_FALSE(index.empty());
  for (int i = 0; i < 4; ++i) {
    std::int64_t id = index[rng.below(index.size())].objectId;
    std::string sql =
        "SELECT * FROM Object WHERE objectId = " + std::to_string(id);
    cases.push_back({sql, sql});
  }
  // HV: full-sky aggregates and a randomized row-heavy declination band.
  const std::string count = "SELECT COUNT(*) FROM Object";
  cases.push_back({count, count});
  std::string density =
      "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object "
      "GROUP BY chunkId ORDER BY chunkId";
  cases.push_back({density, density, /*ordered=*/true});
  for (int i = 0; i < 2; ++i) {
    int lo = -6 + static_cast<int>(rng.below(10));
    std::string sql = util::format(
        "SELECT objectId, ra_PS, decl_PS, rFlux_PS FROM Object "
        "WHERE decl_PS BETWEEN %d AND %d",
        lo, lo + 2);
    cases.push_back({sql, sql});
  }
  // SHV: near-neighbor self-joins over randomized small boxes (0.03 deg is
  // under the 0.05 deg overlap margin, so chunked counts are exact).
  for (int i = 0; i < 2; ++i) {
    int ra = static_cast<int>(rng.below(20));
    const char* pairs =
        "qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.03";
    cases.push_back(
        {util::format("SELECT count(*) FROM Object o1, Object o2 WHERE "
                      "qserv_areaspec_box(%d, -2, %d, 1) AND %s",
                      ra, ra + 3, pairs),
         util::format("SELECT count(*) FROM Object o1, Object o2 WHERE "
                      "qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, %d, -2, "
                      "%d, 1) = 1 AND %s",
                      ra, ra + 3, pairs)});
  }

  // Templates bind FROM table refs only: a select alias or a string literal
  // that spells a chunk table's name must come back untouched.
  const std::string chunkTable =
      "Object_" + std::to_string(catalogData_->chunks.front().chunkId);
  std::string aliased =
      "SELECT COUNT(*) AS " + chunkTable + " FROM Object WHERE decl_PS > 0";
  cases.push_back({aliased, aliased});
  std::string literal = "SELECT objectId, '" + chunkTable +
                        "' AS tag FROM Object WHERE decl_PS BETWEEN 0 AND 1";
  cases.push_back({literal, literal});

  util::Counter& chunkRetries =
      util::MetricsRegistry::instance().counter("dispatch.batch_chunk_retries");
  const std::uint64_t retriesBefore = chunkRetries.value();
  for (const Case& c : cases) {
    auto want = oracleDb->execute(c.oracleSql);
    ASSERT_TRUE(want.isOk()) << want.status().toString() << " for "
                             << c.oracleSql;
    auto viaBatched = query(*batched, c.sql);
    oracle::expectSameResult(viaBatched.result, *want, c.ordered,
                             "batched: " + c.sql);
    auto viaRetries = query(*retried, c.sql);
    oracle::expectSameResult(viaRetries.result, *want, c.ordered,
                             "retried: " + c.sql);
  }
  // The damaging cluster really did retry chunks as batches of one.
  EXPECT_GT(chunkRetries.value(), retriesBefore);
}

}  // namespace
}  // namespace qserv::core
