/// \file repair_test.cc
/// \brief The self-healing control plane end to end: health detection with
/// hysteresis, automatic re-replication with MD5-verified copies, redirector
/// re-admission after recovery, rebalance, and ingest-while-serving (the
/// ROADMAP "nightly data release during traffic" gate).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "qserv/cluster.h"
#include "sql/database.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/trace.h"
#include "xrd/paths.h"

namespace qserv::core {
namespace {

std::uint64_t delta(const util::MetricsSnapshot& before,
                    const util::MetricsSnapshot& after, const char* name) {
  auto b = before.counters.count(name) ? before.counters.at(name) : 0;
  auto a = after.counters.count(name) ? after.counters.at(name) : 0;
  return a - b;
}

/// Objects across all chunks (the COUNT(*) FROM Object oracle).
std::int64_t objectCount(const datagen::PartitionedCatalog& catalog) {
  std::int64_t n = 0;
  for (const auto& c : catalog.chunks) {
    n += static_cast<std::int64_t>(c.objects->numRows());
  }
  return n;
}

/// \p snapshot cut right after its first table's dump: the tail lost at a
/// statement boundary, so what remains is still a valid SQL script.
std::string cutAfterFirstTable(const std::string& snapshot) {
  constexpr std::string_view kTableHeader = "-- qserv-dump v1\n";
  std::size_t first = snapshot.find(kTableHeader);
  if (first == std::string::npos) return snapshot;
  return snapshot.substr(0, snapshot.find(kTableHeader, first + 1));
}

/// A replica source that serves \p worker's chunk snapshots cut by
/// cutAfterFirstTable (every other transaction is forwarded unchanged).
class CutSnapshotPlugin : public xrd::OfsPlugin {
 public:
  explicit CutSnapshotPlugin(Worker& worker) : worker_(worker) {}
  util::Status writeFile(const std::string& path,
                         std::string payload) override {
    return worker_.writeFile(path, std::move(payload));
  }
  util::Result<std::string> readFile(const std::string& path) override {
    auto bytes = worker_.readFile(path);
    if (bytes.isOk() && xrd::parseChunkPath(path)) {
      *bytes = cutAfterFirstTable(*bytes);
    }
    return bytes;
  }
  std::vector<std::int32_t> exportedChunks() const override {
    return worker_.exportedChunks();
  }

 private:
  Worker& worker_;
};

/// Split \p catalog into (first `firstChunks` chunks, the rest), index
/// entries partitioned to follow their chunk.
std::pair<datagen::PartitionedCatalog, datagen::PartitionedCatalog> splitCatalog(
    const datagen::PartitionedCatalog& catalog, std::size_t firstChunks) {
  datagen::PartitionedCatalog a, b;
  std::unordered_set<std::int32_t> inFirst;
  for (std::size_t i = 0; i < catalog.chunks.size(); ++i) {
    if (i < firstChunks) {
      a.chunks.push_back(catalog.chunks[i]);
      inFirst.insert(catalog.chunks[i].chunkId);
    } else {
      b.chunks.push_back(catalog.chunks[i]);
    }
  }
  for (const auto& e : catalog.index) {
    (inFirst.contains(e.chunkId) ? a : b).index.push_back(e);
  }
  return {std::move(a), std::move(b)};
}

class RepairTest : public ::testing::Test {
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
    oracleCount_ = objectCount(*sky_);
    ASSERT_GT(oracleCount_, 0);
    ASSERT_GT(sky_->chunks.size(), 4u);
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
    opts.replication = 2;
    opts.frontend.dispatchBackoff.base = std::chrono::microseconds(500);
    opts.frontend.dispatchBackoff.cap = std::chrono::microseconds(5'000);
    opts.repair.copyBackoff.base = std::chrono::microseconds(500);
    opts.repair.copyBackoff.cap = std::chrono::microseconds(5'000);
    return opts;
  }

  /// Drive probe rounds until \p workerId reaches \p want (or fail).
  static void probeUntil(RepairController& repair, const std::string& workerId,
                         RepairController::WorkerHealth want, int maxRounds) {
    for (int i = 0; i < maxRounds; ++i) {
      repair.probeOnce();
      if (repair.health(workerId) == want) return;
    }
    FAIL() << workerId << " never reached "
           << RepairController::healthName(want) << ", stuck at "
           << RepairController::healthName(repair.health(workerId));
  }

  static CatalogConfig* catalog_;
  static datagen::PartitionedCatalog* sky_;
  static std::int64_t oracleCount_;
};

CatalogConfig* RepairTest::catalog_ = nullptr;
datagen::PartitionedCatalog* RepairTest::sky_ = nullptr;
std::int64_t RepairTest::oracleCount_ = 0;

// 1. The probe state machine: hysteresis in both directions — one failure
//    makes a worker suspect (not down), downAfter failures down it and
//    quarantines it in the redirector, upAfter successes bring it back.
TEST_F(RepairTest, ProbeStateMachineHysteresis) {
  auto opts = baseOptions();
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  auto& repair = (*cluster)->repairController();
  const auto& cfg = repair.config();

  EXPECT_FALSE(repair.probeOnce());  // healthy cluster: nothing newly down
  EXPECT_EQ(repair.health("w0"), RepairController::WorkerHealth::kUp);

  (*cluster)->server(0).setUp(false);
  EXPECT_FALSE(repair.probeOnce());  // 1 failure: suspect, not down yet
  EXPECT_EQ(repair.health("w0"), RepairController::WorkerHealth::kSuspect);
  EXPECT_FALSE((*cluster)->redirector()->isQuarantined("w0"));

  bool newlyDown = false;
  for (int i = 1; i < cfg.downAfter; ++i) newlyDown |= repair.probeOnce();
  EXPECT_TRUE(newlyDown);
  EXPECT_EQ(repair.health("w0"), RepairController::WorkerHealth::kDown);
  EXPECT_TRUE((*cluster)->redirector()->isQuarantined("w0"));
  EXPECT_FALSE(repair.probeOnce());  // already down: not *newly* down again

  (*cluster)->server(0).setUp(true);
  repair.probeOnce();  // 1 success: still down (hysteresis)
  EXPECT_EQ(repair.health("w0"), RepairController::WorkerHealth::kDown);
  probeUntil(repair, "w0", RepairController::WorkerHealth::kUp,
             cfg.upAfter + 1);
  EXPECT_FALSE((*cluster)->redirector()->isQuarantined("w0"));

  // The status view reflects all of it.
  auto status = repair.status();
  ASSERT_EQ(status.size(), 3u);
  EXPECT_EQ(status[0].id, "w0");
  EXPECT_GT(status[0].chunks, 0u);
  EXPECT_NE(repair.statusText().find("under-replicated"), std::string::npos);
}

// 2. The acceptance kill-a-worker drill: a worker dies, the controller
//    detects it, re-replicates every under-replicated chunk back to 2x onto
//    the survivors with verified copies, and queries stay bit-correct the
//    whole time — no manual intervention, no restart.
TEST_F(RepairTest, KillWorkerRepairRestoresRedundancy) {
  auto opts = baseOptions();
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  auto& repair = (*cluster)->repairController();
  auto& frontend = (*cluster)->frontend();

  ASSERT_TRUE(repair.underReplicatedChunks().empty());

  (*cluster)->server(0).setUp(false);
  probeUntil(repair, "w0", RepairController::WorkerHealth::kDown, 4);

  // Every chunk that had a replica on w0 is now below target.
  auto deficit = repair.underReplicatedChunks();
  ASSERT_FALSE(deficit.empty());

  // Queries already survive on the remaining copy (dispatch failover).
  auto during = frontend.query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(during.isOk()) << during.status().toString();
  EXPECT_EQ(during->result->cell(0, 0).asInt(), oracleCount_);

  auto before = util::MetricsRegistry::instance().snapshot();
  auto copied = repair.repairOnce();
  auto after = util::MetricsRegistry::instance().snapshot();
  ASSERT_TRUE(copied.isOk()) << copied.status().toString();
  EXPECT_EQ(*copied, static_cast<int>(deficit.size()));
  EXPECT_TRUE(repair.underReplicatedChunks().empty());

  // Placement proof: every chunk has >= 2 live replicas on the survivors.
  auto placement = (*cluster)->redirector()->placementSnapshot();
  for (const auto& [chunk, ids] : placement) {
    int live = 0;
    for (const auto& id : ids) {
      if (id != "w0") ++live;
    }
    EXPECT_GE(live, 2) << "chunk " << chunk;
  }

  // Accounting: every copy is visible in repair.* metrics and trace spans.
  EXPECT_EQ(delta(before, after, "repair.chunks_replicated"), deficit.size());
  EXPECT_GT(delta(before, after, "repair.copy_bytes"), 0u);
  EXPECT_EQ(delta(before, after, "repair.copy_failures"), 0u);
  EXPECT_EQ(delta(before, after, "repair.runs"), 1u);
  auto trace = repair.lastTrace();
  ASSERT_TRUE(trace);
  std::size_t copySpans = 0;
  for (const auto& s : trace->spans()) {
    if (s.kind == util::SpanKind::kCopy) ++copySpans;
  }
  EXPECT_EQ(copySpans, deficit.size());

  // And the cluster still answers correctly, now with redundancy restored.
  auto r = frontend.query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  EXPECT_EQ(r->result->cell(0, 0).asInt(), oracleCount_);
  EXPECT_TRUE(repair.repairOnce().isOk());  // idempotent: nothing left to do
  EXPECT_EQ(*repair.repairOnce(), 0);
}

// 3. Copies are integrity-checked: a source that serves corrupt chunk
//    snapshots is caught by the MD5 trailer and the copy retries from the
//    next replica — corrupt data never gets installed.
TEST_F(RepairTest, CorruptSnapshotRetriedFromCleanReplica) {
  auto opts = baseOptions();
  auto plan = xrd::FaultPlan::parse("read:corrupt");
  ASSERT_TRUE(plan.isOk());
  opts.workerFaults[1] = *plan;  // w1 corrupts everything it serves
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  auto& repair = (*cluster)->repairController();

  // A chunk whose replicas are w1 (corrupt) and w2 (clean); install on w0.
  // Placement is (index + r) % 3, so w1's primary chunks live on w1 and w2.
  ASSERT_FALSE((*cluster)->chunksOfWorker(1).empty());
  std::int32_t chunk = (*cluster)->chunksOfWorker(1).front();
  ASSERT_FALSE((*cluster)->worker(0).exportsChunk(chunk));

  auto before = util::MetricsRegistry::instance().snapshot();
  auto status = repair.replicateChunk(chunk, {"w1", "w2"}, "w0");
  auto after = util::MetricsRegistry::instance().snapshot();
  ASSERT_TRUE(status.isOk()) << status.toString();
  EXPECT_TRUE((*cluster)->worker(0).exportsChunk(chunk));
  EXPECT_GT(delta(before, after, "repair.checksum_mismatches"), 0u);
  EXPECT_EQ(delta(before, after, "repair.chunks_replicated"), 1u);

  // A copy with only the corrupt source exhausts its attempts and fails —
  // it must never install what it could not verify.
  std::int32_t chunk2 = (*cluster)->chunksOfWorker(1).back();
  if (!(*cluster)->worker(0).exportsChunk(chunk2)) {
    auto bad = repair.replicateChunk(chunk2, {"w1"}, "w0");
    EXPECT_FALSE(bad.isOk());
    EXPECT_FALSE((*cluster)->worker(0).exportsChunk(chunk2));
  }
}

// 3b. A snapshot that lost its tail at a statement boundary is still valid
//     SQL, so only the integrity trailer tells it from a whole chunk: both
//     install paths — a direct /chunkload and the repair copy — must refuse
//     it rather than install a partial chunk.
TEST_F(RepairTest, TruncatedSnapshotRefusedByChunkloadAndRepairCopy) {
  auto cluster = MiniCluster::create(baseOptions(), *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  MiniCluster& c = **cluster;
  ASSERT_FALSE(c.chunksOfWorker(1).empty());
  std::int32_t chunk = c.chunksOfWorker(1).front();
  ASSERT_FALSE(c.worker(0).exportsChunk(chunk));

  auto snapshot = c.worker(1).readFile(xrd::makeChunkPath(chunk));
  ASSERT_TRUE(snapshot.isOk()) << snapshot.status().toString();
  std::string cut = cutAfterFirstTable(*snapshot);
  ASSERT_LT(cut.size(), snapshot->size());
  sql::Database replay("replay");
  ASSERT_TRUE(replay.executeScript(cut).isOk());  // still valid SQL

  util::Status loaded =
      c.worker(0).writeFile(xrd::makeChunkLoadPath(chunk), cut);
  EXPECT_EQ(loaded.code(), util::ErrorCode::kDataLoss) << loaded.toString();
  EXPECT_FALSE(c.worker(0).exportsChunk(chunk));

  c.redirector()->registerServer(std::make_shared<xrd::DataServer>(
      "w1-cut", std::make_shared<CutSnapshotPlugin>(c.worker(1))));
  auto before = util::MetricsRegistry::instance().snapshot();
  util::Status copied =
      c.repairController().replicateChunk(chunk, {"w1-cut"}, "w0");
  auto after = util::MetricsRegistry::instance().snapshot();
  c.redirector()->deregisterServer("w1-cut");
  EXPECT_FALSE(copied.isOk());
  EXPECT_FALSE(c.worker(0).exportsChunk(chunk));
  EXPECT_GT(delta(before, after, "repair.checksum_mismatches"), 0u);
}

// 4. Re-admission after recovery (the staleness fix): while a worker is
//    down, lookups pin its chunks to the surviving replicas. When it comes
//    back, the pins for its chunks are evicted and it serves real query
//    traffic again — without the fix it would idle forever behind the cache.
TEST_F(RepairTest, RevivedWorkerIsReadmittedAndServesTraffic) {
  auto opts = baseOptions();
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  auto& repair = (*cluster)->repairController();
  auto& frontend = (*cluster)->frontend();

  (*cluster)->server(0).setUp(false);
  probeUntil(repair, "w0", RepairController::WorkerHealth::kDown, 4);
  // Pin the lookup cache to the failover replicas while w0 is gone.
  for (int i = 0; i < 4; ++i) {
    auto r = frontend.query("SELECT COUNT(*) FROM Object");
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(r->result->cell(0, 0).asInt(), oracleCount_);
  }

  (*cluster)->server(0).setUp(true);
  auto before = util::MetricsRegistry::instance().snapshot();
  probeUntil(repair, "w0", RepairController::WorkerHealth::kUp,
             repair.config().upAfter + 1);
  auto after = util::MetricsRegistry::instance().snapshot();
  EXPECT_FALSE((*cluster)->redirector()->isQuarantined("w0"));
  // The fix at work: recovery evicted the foreign pins on w0's chunks.
  EXPECT_GT(delta(before, after, "xrd.redirector.recovery_evictions"), 0u);

  // And the revived worker actually serves again: its data-plane read
  // traffic grows once queries resume (round-robin re-includes it).
  std::uint64_t baseline = (*cluster)->server(0).bytesRead();
  for (int i = 0; i < 4; ++i) {
    auto r = frontend.query("SELECT COUNT(*) FROM Object");
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(r->result->cell(0, 0).asInt(), oracleCount_);
  }
  EXPECT_GT((*cluster)->server(0).bytesRead(), baseline);
}

// 5. Rebalance migrates replicas from the most loaded worker to the least
//    loaded, copy-then-drop: replica totals are conserved, no chunk ever
//    loses its last copy, and results stay correct.
TEST_F(RepairTest, RebalanceMovesReplicasCopyThenDrop) {
  auto opts = baseOptions();
  opts.numWorkers = 2;
  opts.replication = 1;
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  auto& repair = (*cluster)->repairController();

  // Skew the cluster by hand: give w0 a copy of every w1 chunk, so w0
  // holds everything and w1 only its half.
  for (std::int32_t chunk : (*cluster)->chunksOfWorker(1)) {
    auto s = repair.replicateChunk(chunk, {"w1"}, "w0");
    ASSERT_TRUE(s.isOk()) << s.toString();
  }
  auto countReplicas = [&] {
    std::size_t total = 0;
    for (const auto& [chunk, ids] :
         (*cluster)->redirector()->placementSnapshot()) {
      EXPECT_GE(ids.size(), 1u) << "chunk " << chunk << " lost all replicas";
      total += ids.size();
    }
    return total;
  };
  std::size_t beforeTotal = countReplicas();

  auto before = util::MetricsRegistry::instance().snapshot();
  auto moves = repair.rebalanceOnce(/*maxMoves=*/8);
  auto after = util::MetricsRegistry::instance().snapshot();
  ASSERT_TRUE(moves.isOk()) << moves.status().toString();
  EXPECT_GT(*moves, 0);
  EXPECT_EQ(delta(before, after, "repair.rebalance_moves"),
            static_cast<std::uint64_t>(*moves));
  // Copy-then-drop conserves the replica total.
  EXPECT_EQ(countReplicas(), beforeTotal);

  auto r = (*cluster)->frontend().query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  EXPECT_EQ(r->result->cell(0, 0).asInt(), oracleCount_);
}

// 6. Ingest while serving: new chunks are installed on live workers at the
//    replication target, the secondary index learns the new objects, and the
//    frontend's dispatchable set grows atomically — all without a restart.
TEST_F(RepairTest, IngestWhileServingPublishesNewChunksLive) {
  auto [first, second] = splitCatalog(*sky_, sky_->chunks.size() / 2);
  ASSERT_FALSE(first.chunks.empty());
  ASSERT_FALSE(second.chunks.empty());
  std::int64_t firstCount = objectCount(first);

  auto opts = baseOptions();
  auto cluster = MiniCluster::create(opts, first);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  auto& repair = (*cluster)->repairController();
  auto& frontend = (*cluster)->frontend();

  auto r0 = frontend.query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(r0.isOk()) << r0.status().toString();
  EXPECT_EQ(r0->result->cell(0, 0).asInt(), firstCount);

  auto before = util::MetricsRegistry::instance().snapshot();
  auto s = repair.ingest(second);
  auto after = util::MetricsRegistry::instance().snapshot();
  ASSERT_TRUE(s.isOk()) << s.toString();
  EXPECT_EQ(delta(before, after, "repair.chunks_ingested"),
            second.chunks.size());

  // Every ingested chunk sits on `replicationTarget` distinct live workers.
  auto placement = (*cluster)->redirector()->placementSnapshot();
  for (const auto& chunk : second.chunks) {
    auto it = placement.find(chunk.chunkId);
    ASSERT_NE(it, placement.end()) << "chunk " << chunk.chunkId;
    EXPECT_EQ(it->second.size(),
              static_cast<std::size_t>(repair.config().replicationTarget));
  }

  // The full catalog answers now, pre-existing rows unaffected.
  auto r1 = frontend.query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(r1.isOk()) << r1.status().toString();
  EXPECT_EQ(r1->result->cell(0, 0).asInt(), oracleCount_);

  // The secondary index covers the new objects: an objectId point query
  // into an ingested chunk resolves and returns its row.
  ASSERT_FALSE(second.index.empty());
  std::int64_t newObject = second.index.front().objectId;
  auto r2 = frontend.query(util::format(
      "SELECT COUNT(*) FROM Object WHERE objectId = %lld",
      static_cast<long long>(newObject)));
  ASSERT_TRUE(r2.isOk()) << r2.status().toString();
  EXPECT_EQ(r2->result->cell(0, 0).asInt(), 1);
}

// 7. The CSV front door: raw rows -> partition -> load, concurrent with
//    serving, lands in queryable chunks with index entries.
TEST_F(RepairTest, IngestCsvPartitionsAndLoads) {
  auto opts = baseOptions();
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  auto& repair = (*cluster)->repairController();
  auto& frontend = (*cluster)->frontend();

  // Fresh sky far from the seeded region (which covers ra 0..14): these
  // land in chunks no existing table occupies.
  const std::string objectsCsv =
      "# objectId,ra,decl\n"
      "9000000001, 180.0, 40.0\n"
      "9000000002, 180.2, 40.1\n"
      "9000000003, 180.4, 40.2\n";
  const std::string sourcesCsv =
      "# sourceId,objectId,ra,decl\n"
      "7000000001, 9000000001, 180.0, 40.0\n";

  auto n = repair.ingestCsv(objectsCsv, sourcesCsv);
  ASSERT_TRUE(n.isOk()) << n.status().toString();
  EXPECT_GE(*n, 1u);

  auto r = frontend.query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  EXPECT_EQ(r->result->cell(0, 0).asInt(), oracleCount_ + 3);

  auto point = frontend.query(
      "SELECT ra_PS, decl_PS FROM Object WHERE objectId = 9000000002");
  ASSERT_TRUE(point.isOk()) << point.status().toString();
  ASSERT_EQ(point->result->numRows(), 1u);
  EXPECT_NEAR(point->result->cell(0, 0).asDouble(), 180.2, 1e-9);

  // Malformed input is rejected cleanly, nothing half-ingested.
  auto bad = repair.ingestCsv("not,enough\n");
  EXPECT_FALSE(bad.isOk());
}

// 7b. Hostile CSV: every field must parse whole, positions must be finite
//     with decl on the sphere. Each bad line is refused with its 1-based
//     line number and nothing is installed; a valid batch still lands with
//     exactly the index entries and chunk rows the partitioner produces.
TEST_F(RepairTest, IngestCsvRejectsMalformedFieldsByLine) {
  auto opts = baseOptions();
  auto cluster = MiniCluster::create(opts, *sky_);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  auto& repair = (*cluster)->repairController();
  auto& frontend = (*cluster)->frontend();
  const std::size_t indexRows = frontend.secondaryIndex().size();
  const std::size_t chunks = frontend.availableChunks().size();

  const std::string good = "9100000001, 180.0, 40.0\n";
  struct Case {
    std::string objects, sources, line;
  };
  const std::vector<Case> cases = {
      {"# objectId,ra,decl\nabc,1,2\n", "", "object CSV line 2"},
      {good + "7,nan,nan\n", "", "object CSV line 2"},
      {good + "\n7,inf,10\n", "", "object CSV line 3"},
      {"7,10,-inf\n", "", "object CSV line 1"},
      {"7,10,95\n", "", "object CSV line 1"},
      {"7,10,-90.5\n", "", "object CSV line 1"},
      {"7,10x,3\n", "", "object CSV line 1"},
      {"7,10,3,abc\n", "", "object CSV line 1"},
      {"7,,3\n", "", "object CSV line 1"},
      {"7.5,10,3\n", "", "object CSV line 1"},
      {"99999999999999999999,10,3\n", "", "object CSV line 1"},
      {"7,10,3,1,1,1,1,1,1,1,zz\n", "", "object CSV line 1"},
      {good, "1,9100000001,180,40\n1,abc,180,40\n", "source CSV line 2"},
      {good, "1,9100000001,nan,40\n", "source CSV line 1"},
      {good, "1,9100000001,180,40,1,2,3e\n", "source CSV line 1"},
  };
  for (const Case& c : cases) {
    auto r = repair.ingestCsv(c.objects, c.sources);
    ASSERT_FALSE(r.isOk()) << c.objects << c.sources;
    EXPECT_EQ(r.status().code(), util::ErrorCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(c.line), std::string::npos)
        << r.status().toString() << " for " << c.objects << c.sources;
  }
  EXPECT_EQ(frontend.secondaryIndex().size(), indexRows);
  EXPECT_EQ(frontend.availableChunks().size(), chunks);

  // A valid batch with every optional field: same entries and chunk rows as
  // partitioning the rows directly.
  std::vector<datagen::ObjectRow> rows(2);
  rows[0] = {9100000001, 181.5, 41.25, 0.5, {1e-29, 2e-29, 3e-29, 4e-29,
                                              5e-29, 6e-29}, 7e-30};
  rows[1] = {9100000002, 181.75, 41.5, 0.25, {1, 2, 3, 4, 5, 6}, -7};
  auto expected = datagen::partitionCatalog(catalog_->makeChunker(), rows, {});
  ASSERT_TRUE(expected.isOk());
  ASSERT_EQ(expected->chunks.size(), 1u);
  auto n = repair.ingestCsv(
      "9100000001, 181.5, 41.25, 0.5, 1e-29, 2e-29, 3e-29, 4e-29, 5e-29, "
      "6e-29, 7e-30\n"
      "  9100000002,181.75,41.5,0.25,1,2,3,4,5,6,-7  \n");
  ASSERT_TRUE(n.isOk()) << n.status().toString();
  EXPECT_EQ(*n, 1u);

  std::vector<std::int64_t> ids = {9100000001, 9100000002};
  auto locs = frontend.secondaryIndex().lookup(ids);
  ASSERT_TRUE(locs.isOk());
  ASSERT_EQ(locs->size(), expected->index.size());
  for (std::size_t i = 0; i < locs->size(); ++i) {
    EXPECT_EQ((*locs)[i].objectId, expected->index[i].objectId);
    EXPECT_EQ((*locs)[i].chunkId, expected->index[i].chunkId);
    EXPECT_EQ((*locs)[i].subChunkId, expected->index[i].subChunkId);
  }
  auto got = frontend.query(
      "SELECT * FROM Object WHERE objectId IN (9100000001, 9100000002) "
      "ORDER BY objectId");
  ASSERT_TRUE(got.isOk()) << got.status().toString();
  const sql::Table& want = *expected->chunks[0].objects;
  ASSERT_EQ(got->result->numRows(), want.numRows());
  ASSERT_EQ(got->result->numColumns(), want.numColumns());
  for (std::size_t r = 0; r < want.numRows(); ++r) {
    for (std::size_t c = 0; c < want.numColumns(); ++c) {
      EXPECT_EQ(got->result->cell(r, c), want.cell(r, c))
          << "row " << r << " column " << want.schema().column(c).name;
    }
  }
}

// 8. The ROADMAP gate: a "nightly data release" lands (ingest) and a worker
//    dies, all during live traffic with the monitor thread in charge. Every
//    concurrent query must return one of the two valid answers (old or new
//    catalog — never a torn mix), redundancy must come back to 2x on its
//    own, and the revived placement must keep answering correctly.
TEST_F(RepairTest, NightlyDataReleaseDuringTraffic) {
  auto [first, second] = splitCatalog(*sky_, sky_->chunks.size() / 2);
  std::int64_t firstCount = objectCount(first);

  auto opts = baseOptions();
  opts.repair.probeInterval = std::chrono::milliseconds(5);
  opts.repair.autoRepair = true;
  auto cluster = MiniCluster::create(opts, first);
  ASSERT_TRUE(cluster.isOk()) << cluster.status().toString();
  auto& repair = (*cluster)->repairController();
  auto& frontend = (*cluster)->frontend();
  repair.start();
  ASSERT_TRUE(repair.running());

  // Traffic: a background thread hammers COUNT(*) and records every answer.
  std::atomic<bool> stopTraffic{false};
  std::vector<std::int64_t> answers;
  std::vector<std::string> failures;
  std::thread traffic([&] {
    while (!stopTraffic.load(std::memory_order_acquire)) {
      auto r = frontend.query("SELECT COUNT(*) FROM Object");
      if (r.isOk()) {
        answers.push_back(r->result->cell(0, 0).asInt());
      } else {
        failures.push_back(r.status().toString());
      }
    }
  });

  // The release: ingest the second half while queries fly.
  auto s = repair.ingest(second);
  ASSERT_TRUE(s.isOk()) << s.toString();

  // The outage: kill a worker; the monitor must detect and re-replicate
  // without any help from us.
  (*cluster)->server(1).setUp(false);
  util::Stopwatch watch;
  while (watch.elapsedSeconds() < 30.0) {
    if (repair.health("w1") == RepairController::WorkerHealth::kDown &&
        repair.underReplicatedChunks().empty()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stopTraffic.store(true, std::memory_order_release);
  traffic.join();
  repair.stop();

  EXPECT_EQ(repair.health("w1"), RepairController::WorkerHealth::kDown);
  EXPECT_TRUE(repair.underReplicatedChunks().empty())
      << repair.statusText();
  EXPECT_TRUE(failures.empty()) << failures.front();

  // Atomic placement: every answer is exactly the old or the new catalog,
  // and once the new set is visible it never reverts.
  ASSERT_FALSE(answers.empty());
  bool sawFull = false;
  for (std::int64_t got : answers) {
    EXPECT_TRUE(got == firstCount || got == oracleCount_) << got;
    if (got == oracleCount_) sawFull = true;
    if (sawFull) {
      EXPECT_EQ(got, oracleCount_);
    }
  }

  // The cluster is whole again: correct answers at restored redundancy.
  auto r = frontend.query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  EXPECT_EQ(r->result->cell(0, 0).asInt(), oracleCount_);
}

}  // namespace
}  // namespace qserv::core
