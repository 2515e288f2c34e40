/// \file bench_dispatch.cc
/// \brief Ablation — the single-master dispatch bottleneck (§7.6) and the
/// batched per-worker remedy.
///
/// "A launch of even the most trivial full-sky query launches about 9000
/// chunk queries" and "managing millions from a single point is likely to
/// be problematic". This bench runs trivial full-sky queries over a growing
/// chunk count on one cluster, whose transport is batched (one request per
/// (query, worker), results streamed back), and prices every execution two
/// ways in the virtual-time model: (a) the paper's per-chunk dispatch, which
/// shows the linear growth with chunk count (the Fig 11 HV1 trend), and
/// (b) batched dispatch, gated on the amortized master overhead. It also
/// projects the paper's multiple-masters remedy (c) for comparison. Virtual
/// seconds and ms/chunk master costs are modeled; the wall columns and the
/// transaction counts are measured.
///
/// Gates (abort with nonzero exit on violation):
///   - modeled batched dispatch <= 0.3 ms/chunk at the full 8832-chunk sky
///   - modeled batched dispatch term >= 5x cheaper than per-chunk
///     (2.8 ms/chunk)
///   - a full-sky query makes exactly one xrd write transaction per worker
///     holding its chunks, and retries no chunk
///   - modeled batched dispatch <= 0.3 ms/chunk at DR scale (~100k chunks)
///
/// The DR-scale section partitions the same sky at finer geometry (LSST
/// data-release chunk counts, ~11x the paper's 8832) and re-prices the
/// amortized master cost there — the dispatch fix has to hold where chunk
/// counts are heading, not just at PT1.1 scale. Override the geometry with
/// QSERV_DISPATCH_DR_STRIPES (0 skips the section).
#include <cstdio>
#include <cstdlib>
#include <set>

#include "bench_util.h"
#include "util/metrics.h"

namespace {

using namespace qserv;
using namespace qserv::bench;

struct SweepResult {
  double wallMsAtMax = 0;         ///< measured wall of the largest point
  double batchedDispatchSec = 0;  ///< modeled batched master cost/chunk
  std::size_t maxChunks = 0;
  // Measured transport counts of the largest point's query.
  std::uint64_t writeTransactions = 0;
  std::uint64_t chunkRetries = 0;
  std::size_t workersHolding = 0;  ///< real workers that returned chunks
};

SweepResult runSweep(const simio::CostParams& params) {
  PaperSetupOptions opts;
  opts.basePatchObjects = 900;
  PaperSetup setup = makePaperSetup(opts);
  printRunHeader("batched per-worker dispatch, each execution priced "
                 "per-chunk (paper §5.4) and batched (modeled)");
  printKeyValue("setup", util::format("%.1f s, %zu chunks", setup.setupSeconds,
                                      setup.sortedChunks.size()));

  auto& reg = util::MetricsRegistry::instance();
  util::Counter& writeTransactions = reg.counter("xrd.write_transactions");
  util::Counter& chunkRetries = reg.counter("dispatch.batch_chunk_retries");
  SweepResult out;
  std::printf("\n  %-10s %18s %18s %14s %14s\n", "chunks",
              "modeled per-chunk s", "modeled batched s", "wall ms",
              "wall us/chunk");
  for (std::size_t count : {1000ul, 2000ul, 4000ul, 8832ul}) {
    std::vector<std::int32_t> subset(
        setup.sortedChunks.begin(),
        setup.sortedChunks.begin() +
            std::min(count, setup.sortedChunks.size()));
    setup.frontend().setAvailableChunks(subset);
    std::uint64_t writes = writeTransactions.value();
    std::uint64_t retries = chunkRetries.value();
    auto exec = runQuery(setup, "SELECT COUNT(*) FROM Object");
    auto perChunk = virtualTasks(setup, exec, params);
    auto batched = batchedVirtualTasks(setup, exec, params);
    std::printf("  %-10zu %18.1f %18.1f %14.0f %14.1f\n", subset.size(),
                simio::simulateQuery(perChunk, params).elapsedSec(),
                simio::simulateQuery(batched, params).elapsedSec(),
                exec.wallSeconds * 1e3,
                exec.wallSeconds * 1e6 / subset.size());
    out.wallMsAtMax = exec.wallSeconds * 1e3;
    out.maxChunks = subset.size();
    out.batchedDispatchSec = batched.front().dispatchSec;
    out.writeTransactions = writeTransactions.value() - writes;
    out.chunkRetries = chunkRetries.value() - retries;
    std::set<std::string> workers;
    for (const auto& a : exec.accounting) workers.insert(a.workerId);
    out.workersHolding = workers.size();
  }
  setup.frontend().setAvailableChunks(setup.sortedChunks);

  // Multi-master projection: k masters each dispatch 1/k of the chunks
  // (§7.6's "launch multiple master instances"), priced per-chunk.
  // Batching attacks the same term from the other side: fewer requests per
  // master.
  std::printf("\n  %-10s %30s\n", "masters",
              "modeled full-sky trivial query s");
  auto exec = runQuery(setup, "SELECT COUNT(*) FROM Object");
  for (int masters : {1, 2, 4, 8}) {
    simio::CostParams p = params;
    p.masterPerChunkOverheadSec = params.masterPerChunkOverheadSec / masters;
    p.resultTransferBytesPerSec = params.resultTransferBytesPerSec * masters;
    double v = virtualQuerySeconds(setup, exec, p);
    std::printf("  %-10d %30.1f\n", masters, v);
  }
  std::printf("\n");
  return out;
}

/// Batched dispatch at LSST data-release chunk counts: same sky, finer
/// partitioning geometry, one full-sky trivial query. Returns the result,
/// or {} when the section is disabled.
SweepResult runDrScale(const simio::CostParams& params) {
  int stripes = 286;  // ~100k chunks (the paper's 85 stripes -> 8832)
  if (const char* env = std::getenv("QSERV_DISPATCH_DR_STRIPES")) {
    stripes = std::atoi(env);
  }
  SweepResult out;
  if (stripes <= 0) return out;

  PaperSetupOptions opts;
  opts.basePatchObjects = 900;
  opts.numStripes = stripes;
  opts.numSubStripes = 3;  // subchunk granularity is irrelevant to dispatch
  PaperSetup setup = makePaperSetup(opts);
  printRunHeader(util::format("DR-scale batched dispatch (%d stripes)",
                              stripes));
  printKeyValue("setup", util::format("%.1f s, %zu chunks",
                                      setup.setupSeconds,
                                      setup.sortedChunks.size()));

  auto exec = runQuery(setup, "SELECT COUNT(*) FROM Object");
  auto tasks = batchedVirtualTasks(setup, exec, params);
  out.wallMsAtMax = exec.wallSeconds * 1e3;
  out.maxChunks = setup.sortedChunks.size();
  out.batchedDispatchSec = tasks.front().dispatchSec;
  std::printf("  %-10zu %18.1f %14.0f %14.1f  (modeled batched s, wall ms, "
              "wall us/chunk)\n\n",
              out.maxChunks, simio::simulateQuery(tasks, params).elapsedSec(),
              out.wallMsAtMax,
              exec.wallSeconds * 1e6 / static_cast<double>(out.maxChunks));
  return out;
}

}  // namespace

int main() {
  printBanner("Ablation — single-master dispatch overhead (trivial query)",
              "§7.6 Distributed management; Fig 11 HV1 trend",
              "modeled per-chunk: time ~ chunks x 2.8 ms; modeled batched: "
              "one request per worker amortizes the master cost to "
              "~0.25 ms/chunk");

  simio::CostParams params = simio::CostParams::paper150();
  SweepResult sweep = runSweep(params);
  SweepResult drScale = runDrScale(params);

  double amortizedMs = sweep.batchedDispatchSec * 1e3;
  // virtualTasks prices every chunk at the paper's full per-chunk term.
  double perChunkDispatchSec = params.masterPerChunkOverheadSec;
  double speedup = perChunkDispatchSec / sweep.batchedDispatchSec;
  printKeyValue("paper §7.6",
                "'One way to distribute the management load is to launch "
                "multiple master instances'");
  printKeyValue("per-chunk master cost",
                util::format("%.2f ms/chunk modeled (paper HV1 anchor)",
                             perChunkDispatchSec * 1e3));
  printKeyValue("batched master cost",
                util::format("%.3f ms/chunk modeled, amortized at %zu chunks "
                             "(%.1fx cheaper)",
                             amortizedMs, sweep.maxChunks, speedup));
  printKeyValue("measured at max chunks",
                util::format("wall %.0f ms, %llu write transactions to %zu "
                             "workers, %llu chunk retries",
                             sweep.wallMsAtMax,
                             static_cast<unsigned long long>(
                                 sweep.writeTransactions),
                             sweep.workersHolding,
                             static_cast<unsigned long long>(
                                 sweep.chunkRetries)));
  if (drScale.maxChunks > 0) {
    printKeyValue("DR-scale master cost",
                  util::format("%.3f ms/chunk modeled, amortized at %zu "
                               "chunks (wall %.0f ms)",
                               drScale.batchedDispatchSec * 1e3,
                               drScale.maxChunks, drScale.wallMsAtMax));
  }

  auto& reg = util::MetricsRegistry::instance();
  reg.gauge("bench.dispatch.modeled_batched_amortized_ns")
      .set(static_cast<std::int64_t>(sweep.batchedDispatchSec * 1e9));
  reg.gauge("bench.dispatch.modeled_speedup_x100")
      .set(static_cast<std::int64_t>(speedup * 100));
  reg.gauge("bench.dispatch.wall_ms")
      .set(static_cast<std::int64_t>(sweep.wallMsAtMax));
  if (drScale.maxChunks > 0) {
    reg.gauge("bench.dispatch.dr_chunks")
        .set(static_cast<std::int64_t>(drScale.maxChunks));
    reg.gauge("bench.dispatch.dr_modeled_amortized_ns")
        .set(static_cast<std::int64_t>(drScale.batchedDispatchSec * 1e9));
    reg.gauge("bench.dispatch.dr_wall_ms")
        .set(static_cast<std::int64_t>(drScale.wallMsAtMax));
  }

  int violations = 0;
  if (amortizedMs > 0.3) {
    std::fprintf(stderr,
                 "GATE: modeled batched dispatch %.3f ms/chunk > 0.3 ms at "
                 "%zu chunks\n",
                 amortizedMs, sweep.maxChunks);
    ++violations;
  }
  if (speedup < 5.0) {
    std::fprintf(stderr,
                 "GATE: modeled batched dispatch only %.1fx cheaper than "
                 "per-chunk (need >= 5x)\n",
                 speedup);
    ++violations;
  }
  if (sweep.writeTransactions != sweep.workersHolding ||
      sweep.chunkRetries != 0) {
    std::fprintf(stderr,
                 "GATE: full-sky query made %llu write transactions to %zu "
                 "workers holding chunks (need one each) and %llu chunk "
                 "retries (need 0)\n",
                 static_cast<unsigned long long>(sweep.writeTransactions),
                 sweep.workersHolding,
                 static_cast<unsigned long long>(sweep.chunkRetries));
    ++violations;
  }
  if (drScale.maxChunks > 0 && drScale.batchedDispatchSec * 1e3 > 0.3) {
    std::fprintf(stderr,
                 "GATE: DR-scale modeled batched dispatch %.3f ms/chunk > "
                 "0.3 ms at %zu chunks\n",
                 drScale.batchedDispatchSec * 1e3, drScale.maxChunks);
    ++violations;
  }
  return violations == 0 ? 0 : 1;
}
