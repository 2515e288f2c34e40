#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>

#include "sphgeom/angle.h"
#include "util/metrics.h"

namespace qserv::bench {

void emitMetricsSnapshotAtExit() {
  static bool registered = false;
  if (registered) return;
  const char* path = std::getenv("QSERV_METRICS_JSON");
  if (path == nullptr || *path == '\0') return;
  registered = true;
  std::atexit([] {
    const char* p = std::getenv("QSERV_METRICS_JSON");
    if (p == nullptr) return;
    std::FILE* f = std::fopen(p, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write metrics snapshot to %s\n", p);
      return;
    }
    std::string json = util::MetricsRegistry::instance().snapshot().toJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "metrics snapshot written to %s\n", p);
  });
}

void recordRate(const std::string& gauge, const util::Stopwatch& watch,
                std::int64_t iterations) {
  if (iterations <= 0) return;
  util::MetricsRegistry::instance().gauge(gauge).set(static_cast<std::int64_t>(
      watch.elapsedSeconds() * 1e9 / static_cast<double>(iterations)));
}

int PaperSetup::chunkPosition(std::int32_t chunkId) const {
  auto it = std::lower_bound(sortedChunks.begin(), sortedChunks.end(), chunkId);
  if (it == sortedChunks.end() || *it != chunkId) return 0;
  return static_cast<int>(it - sortedChunks.begin());
}

PaperSetup makePaperSetup(const PaperSetupOptions& options) {
  emitMetricsSnapshotAtExit();
  util::Stopwatch watch;
  PaperSetup setup;
  setup.catalog = core::CatalogConfig::lsst(options.numStripes,
                                            options.numSubStripes);
  // Use the dataset's measured MyISAM widths rather than Table 1's final-DR
  // estimates, matching the bandwidth arithmetic in §6.2.
  for (auto& t : setup.catalog.tables) {
    if (t.name == "Object") t.paperRowBytes = kObjectMydBytesPerRow;
    if (t.name == "Source") t.paperRowBytes = kSourceMydBytesPerRow;
  }

  core::SkyDataOptions data;
  data.basePatch = options.basePatch;
  data.basePatchObjects = options.basePatchObjects;
  data.withSources = options.withSources;
  data.region = options.objectRegion;
  data.sourceRegion = options.sourceRegion;
  auto catalog = core::buildSkyCatalog(setup.catalog, data);
  if (!catalog.isOk()) {
    std::fprintf(stderr, "bench setup: %s\n",
                 catalog.status().toString().c_str());
    std::abort();
  }

  // Paper rows per generated row: ratio of sky densities.
  double patchArea = datagen::pt11PatchBox().area();
  double ourDensity =
      static_cast<double>(options.basePatchObjects) / patchArea;
  double skyArea = 4.0 * sphgeom::kPi * sphgeom::kDegPerRad *
                   sphgeom::kDegPerRad;
  double paperDensity = datagen::kTestObjectRows / skyArea;
  setup.rowScale = paperDensity / ourDensity;

  core::ClusterOptions copts;
  copts.numWorkers = options.realWorkers;
  copts.worker = options.workerConfig;
  copts.worker.rowScale = setup.rowScale;
  copts.frontend.catalog = setup.catalog;
  copts.frontend.cost = simio::CostParams::paper150();
  copts.frontend.dispatchParallelism = options.dispatchParallelism;
  auto cluster = core::MiniCluster::create(copts, *catalog);
  if (!cluster.isOk()) {
    std::fprintf(stderr, "bench cluster: %s\n",
                 cluster.status().toString().c_str());
    std::abort();
  }
  setup.cluster = std::move(*cluster);
  setup.sortedChunks = setup.cluster->chunkIds();
  setup.setupSeconds = watch.elapsedSeconds();
  return setup;
}

std::vector<simio::SimChunkTask> virtualTasks(
    const PaperSetup& setup, const core::QservFrontend::Execution& exec,
    const simio::CostParams& params, int placementNodes) {
  int mod = placementNodes > 0 ? placementNodes : std::max(1, params.nodeCount);
  std::vector<simio::SimChunkTask> tasks;
  tasks.reserve(exec.accounting.size());
  for (const auto& a : exec.accounting) {
    simio::SimChunkTask t;
    t.worker = setup.chunkPosition(a.chunkId) % mod;
    t.serviceSec = simio::workerServiceSeconds(a.observables, params);
    t.collectSec = simio::masterCollectSeconds(a.observables, params);
    t.interactive = exec.queryClass == core::QueryClass::kInteractive;
    tasks.push_back(t);
  }
  return tasks;
}

std::vector<simio::SimChunkTask> batchedVirtualTasks(
    const PaperSetup& setup, const core::QservFrontend::Execution& exec,
    const simio::CostParams& params, int placementNodes) {
  std::vector<simio::SimChunkTask> tasks =
      virtualTasks(setup, exec, params, placementNodes);
  // On the virtual cluster the batch count is the number of distinct
  // placement nodes.
  std::set<int> workers;
  for (const auto& t : tasks) workers.insert(t.worker);
  double dispatchSec =
      simio::amortizedBatchDispatchSec(tasks.size(), workers.size(), params);
  for (auto& t : tasks) t.dispatchSec = dispatchSec;
  return tasks;
}

std::vector<std::int32_t> emulateClusterSize(PaperSetup& setup, int nodes) {
  std::vector<std::int32_t> chunks;
  for (std::size_t i = 0; i < setup.sortedChunks.size(); ++i) {
    if (static_cast<int>(i % 150) < nodes) {
      chunks.push_back(setup.sortedChunks[i]);
    }
  }
  setup.frontend().setAvailableChunks(chunks);
  return chunks;
}

void restoreFullCluster(PaperSetup& setup) {
  setup.frontend().setAvailableChunks(setup.sortedChunks);
}

double virtualQuerySeconds(const PaperSetup& setup,
                           const core::QservFrontend::Execution& exec,
                           const simio::CostParams& params) {
  return simio::simulateQuery(virtualTasks(setup, exec, params), params)
      .elapsedSec();
}

simio::CostParams soloParams(const core::QservFrontend::Execution& exec,
                             simio::CostParams base) {
  double perNode = static_cast<double>(exec.accounting.size()) /
                   std::max(1, base.nodeCount);
  int streams = static_cast<int>(std::min<double>(
      std::max(1, base.slotsPerNode), std::ceil(std::max(1.0, perNode))));
  base.scanStreams = streams;
  return base;
}

core::QservFrontend::Execution runQuery(PaperSetup& setup,
                                        const std::string& sql) {
  auto r = setup.frontend().query(sql);
  if (!r.isOk()) {
    std::fprintf(stderr, "bench query failed: %s\n  for: %s\n",
                 r.status().toString().c_str(), sql.c_str());
    std::abort();
  }
  return std::move(r).value();
}

std::vector<std::int64_t> sampleObjectIds(PaperSetup& setup, std::size_t n,
                                          std::uint64_t seed) {
  auto table = setup.frontend().metadata().findTable(
      core::SecondaryIndex::kTableName);
  std::vector<std::int64_t> out;
  if (!table || table->numRows() == 0) return out;
  util::Rng rng(seed);
  const auto& ids = table->intColumn(0);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ids[rng.below(ids.size())]);
  }
  return out;
}

void printBanner(const std::string& experiment, const std::string& paperRef,
                 const std::string& expectation) {
  std::printf("=============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("  paper: %s\n", paperRef.c_str());
  std::printf("  expected shape: %s\n", expectation.c_str());
  std::printf("=============================================================\n");
}

void printRunHeader(const std::string& label) {
  std::printf("-- %s\n", label.c_str());
}

void printExecution(int index, double wallMs, double virtualSec) {
  std::printf("  exec %3d   wall %9.2f ms   virtual %9.2f s\n", index, wallMs,
              virtualSec);
}

void printKeyValue(const std::string& key, const std::string& value) {
  std::printf("  %-34s %s\n", key.c_str(), value.c_str());
}

}  // namespace qserv::bench
