/// \file bench_util.h
/// \brief Shared harness for the paper-reproduction benches.
///
/// Every figure bench runs the REAL Qserv stack (frontend, rewriter, xrd
/// dispatch, workers, dumps, merge) on a scaled-down synthetic sky laid out
/// with the paper's partitioning geometry (85 stripes x 12 sub-stripes,
/// 1 arcmin overlap), then reports two numbers per measurement:
///   - wall ms: real elapsed time of the scaled-down execution, and
///   - virtual s: the calibrated 150-node cluster simulation driven by the
///     per-chunk work observables (see DESIGN.md "Virtual-time methodology").
/// Chunk placement on the virtual cluster follows the same round-robin rule
/// the in-process cluster uses, so queue effects are consistent.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "datagen/schemas.h"
#include "qserv/cluster.h"
#include "simio/queue_sim.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace qserv::bench {

/// Measured MyISAM bytes/row of the paper's test dataset (§6.2: Object .MYD
/// is 1.824e12 bytes for 1.7e9 rows; Source: 30e12 for 55e9).
inline constexpr double kObjectMydBytesPerRow = 1.824e12 / 1.7e9;  // ~1073
inline constexpr double kSourceMydBytesPerRow = 30e12 / 55e9;      // ~545

/// Declination clip for bench catalogs: the duplicator's RA-stretch keeps
/// density only to within the band's cos(dec) variation, which explodes in
/// the two polar bands (the §7.5 "severe distortion near the poles" the
/// paper itself calls out — their own dataset clipped Source to +-54 deg).
/// Clipping to the 11 non-polar bands keeps per-chunk loads within ~1.6x.
inline const sphgeom::SphericalBox kBenchSkyRegion =
    sphgeom::SphericalBox(0.0, -75.9, 360.0, 77.9);

struct PaperSetupOptions {
  std::int64_t basePatchObjects = 900;
  bool withSources = false;
  sphgeom::SphericalBox objectRegion = kBenchSkyRegion;
  /// Source coverage (paper: clipped to +-54 deg; benches clip harder to
  /// keep generation fast — Source queries restrict themselves to it).
  std::optional<sphgeom::SphericalBox> sourceRegion;
  int realWorkers = 8;     ///< in-process workers actually executing
  int numStripes = 85;     ///< paper partitioning geometry
  int numSubStripes = 12;
  core::WorkerConfig workerConfig;
  datagen::BasePatchOptions basePatch;  ///< objectCount is overridden
  int dispatchParallelism = 16;  ///< frontend dispatch threads
};

struct PaperSetup {
  core::CatalogConfig catalog;
  std::unique_ptr<core::MiniCluster> cluster;
  double rowScale = 1.0;  ///< paper rows per generated row (density ratio)
  std::vector<std::int32_t> sortedChunks;
  double setupSeconds = 0.0;

  core::QservFrontend& frontend() { return cluster->frontend(); }

  /// Position of a chunk in chunkId order (placement key).
  int chunkPosition(std::int32_t chunkId) const;
};

/// Build the paper-shaped cluster + catalog. Aborts on failure (benches).
PaperSetup makePaperSetup(const PaperSetupOptions& options);

/// Re-map a query's per-chunk accounting onto an N-node virtual cluster
/// with the paper's cost parameters, priced as the paper's master ran:
/// every chunk pays the full per-chunk dispatch term
/// (masterPerChunkOverheadSec). \p placementNodes overrides the modulo used
/// for chunk placement (0 = params.nodeCount) — the §6.3 emulation keeps
/// 150-node placement while dispatching only the first N nodes' chunks.
std::vector<simio::SimChunkTask> virtualTasks(
    const PaperSetup& setup, const core::QservFrontend::Execution& exec,
    const simio::CostParams& params, int placementNodes = 0);

/// virtualTasks priced as batched dispatch (the §7.6 remedy): one request
/// per distinct placement node, so every chunk pays the amortized share
/// (amortizedBatchDispatchSec) instead of the full per-chunk master term.
std::vector<simio::SimChunkTask> batchedVirtualTasks(
    const PaperSetup& setup, const core::QservFrontend::Execution& exec,
    const simio::CostParams& params, int placementNodes = 0);

/// §6.3: "the frontend was configured to only dispatch queries for
/// partitions belonging to the desired set of cluster nodes" — restricts
/// the frontend to chunks placed on virtual nodes [0, nodes) of the
/// 150-node layout and returns that set. Undo with restoreFullCluster.
std::vector<std::int32_t> emulateClusterSize(PaperSetup& setup, int nodes);
void restoreFullCluster(PaperSetup& setup);

/// Virtual elapsed seconds of one query alone on an idle N-node cluster.
double virtualQuerySeconds(const PaperSetup& setup,
                           const core::QservFrontend::Execution& exec,
                           const simio::CostParams& params);

/// Cost parameters for simulating \p exec running ALONE: the scan-stream
/// count is the query's own per-node task concurrency (a 4-chunk query
/// never contends with itself; a full-sky scan saturates all slots).
simio::CostParams soloParams(const core::QservFrontend::Execution& exec,
                             simio::CostParams base);

/// Run a query through the frontend; aborts the bench on failure.
core::QservFrontend::Execution runQuery(PaperSetup& setup,
                                        const std::string& sql);

/// Deterministically sample \p n existing objectIds (uniform over the
/// secondary index, like the paper's randomized LV workloads).
std::vector<std::int64_t> sampleObjectIds(PaperSetup& setup, std::size_t n,
                                          std::uint64_t seed);

// ------------------------------------------------------------------ output

void printBanner(const std::string& experiment, const std::string& paperRef,
                 const std::string& expectation);
void printRunHeader(const std::string& label);

/// One series row: "  exec  3   wall   12.3 ms   virtual   4.02 s".
void printExecution(int index, double wallMs, double virtualSec);

void printKeyValue(const std::string& key, const std::string& value);

/// When the environment variable QSERV_METRICS_JSON names a file, arrange
/// for a metrics-registry snapshot to be written there as JSON when the
/// bench exits — so a BENCH_*.json regression can be attributed to the
/// layer (dispatch, worker queue, xrd, merge) that moved. Called by
/// makePaperSetup; safe to call repeatedly.
void emitMetricsSnapshotAtExit();

/// Record \p watch's mean per-iteration latency (nanoseconds) as registry
/// gauge \p gauge. Microbenchmarks that exercise raw primitives (no
/// instrumented Qserv layer) call this after their timing loop so their
/// QSERV_METRICS_JSON snapshot carries the measured rates instead of being
/// an empty registry dump. No-op when \p iterations is 0.
void recordRate(const std::string& gauge, const util::Stopwatch& watch,
                std::int64_t iterations);

}  // namespace qserv::bench
