/// \file bench_scaling_hv.cc
/// \brief Figure 11 — high-volume query execution time vs node count
/// (40/100/150 nodes, constant data per node, §6.3.2).
/// Paper: HV1 grows linearly with node count (the frontend does fixed work
/// per chunk and the chunk count grows with the emulated cluster); HV3
/// shows a similar trend "due to cache effects — its result was cached so
/// execution became more dominated by overhead"; HV2 is approximately flat
/// (scan-bound weak scaling).
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"

int main() {
  using namespace qserv;
  using namespace qserv::bench;

  printBanner("Figure 11 — HV1/HV2/HV3 vs node count (constant data/node)",
              "§6.3.2, Fig 11: HV1 linear, HV3 linear-ish (cached), "
              "HV2 ~flat at 150-250 s",
              "dispatch overhead grows with chunk count; scan time stays "
              "constant per node");

  PaperSetupOptions opts;
  opts.basePatchObjects = 900;
  PaperSetup setup = makePaperSetup(opts);
  printKeyValue("setup", util::format("%.1f s, %zu chunks, rowScale %.0f",
                                      setup.setupSeconds,
                                      setup.sortedChunks.size(),
                                      setup.rowScale));

  const std::string hv1 = "SELECT COUNT(*) FROM Object";
  const std::string hv2 =
      "SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, "
      "iFlux_PS, zFlux_PS, yFlux_PS FROM Object "
      "WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 4";
  const std::string hv3 =
      "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object "
      "GROUP BY chunkId";

  std::printf("\n  %-8s %8s %12s %14s %12s %12s\n", "nodes", "chunks",
              "HV1 s", "HV1 batched s", "HV2 s", "HV3 s");
  for (int nodes : {40, 100, 150}) {
    auto chunks = emulateClusterSize(setup, nodes);
    simio::CostParams params = simio::CostParams::paper150();
    params.nodeCount = nodes;

    auto e1 = runQuery(setup, hv1);
    double v1 = simio::simulateQuery(virtualTasks(setup, e1, params, 150),
                                     params)
                    .elapsedSec();
    // The same execution priced as batched dispatch: one request per
    // placement node replaces the 2.8 ms/chunk master term with its
    // amortized share, so HV1 stops growing linearly in the dispatch term
    // (§7.6 remedy).
    double v1b = simio::simulateQuery(
                     batchedVirtualTasks(setup, e1, params, 150), params)
                     .elapsedSec();

    simio::CostParams warm = params;
    warm.cacheFraction = 0.65;  // Fig 6's partially-cached steady state
    auto e2 = runQuery(setup, hv2);
    double v2 = simio::simulateQuery(virtualTasks(setup, e2, warm, 150), warm)
                    .elapsedSec();

    simio::CostParams cached = params;
    cached.cacheFraction = 0.9;  // "its result was cached" (§6.3.2)
    auto e3 = runQuery(setup, hv3);
    double v3 = simio::simulateQuery(virtualTasks(setup, e3, cached, 150),
                                     cached)
                    .elapsedSec();

    std::printf("  %-8d %8zu %12.1f %14.1f %12.1f %12.1f\n", nodes,
                chunks.size(), v1, v1b, v2, v3);
  }
  restoreFullCluster(setup);
  std::printf("\n");
  printKeyValue("paper Fig 11",
                "HV1 ~8->25 s linear; HV3 ~60->110 s; HV2 ~170-250 s flat");
  printKeyValue("batched HV1",
                "the linear dispatch term collapses to the amortized "
                "per-batch cost (~0.25 ms/chunk)");

  // DR-scale extrapolation: the same HV1 on an LSST data-release-scale
  // partitioning (~11x the paper's chunk count). Per-chunk dispatch would
  // put the master term alone near 2.8 ms x ~100k = ~275 s; batched
  // dispatch keeps the whole query in the tens of seconds. Override the
  // geometry with QSERV_HV_DR_STRIPES (0 skips the section).
  int drStripes = 286;
  if (const char* env = std::getenv("QSERV_HV_DR_STRIPES")) {
    drStripes = std::atoi(env);
  }
  if (drStripes > 0) {
    PaperSetupOptions drOpts;
    drOpts.basePatchObjects = 900;
    drOpts.numStripes = drStripes;
    drOpts.numSubStripes = 3;
    PaperSetup dr = makePaperSetup(drOpts);
    printKeyValue("DR-scale setup",
                  util::format("%.1f s, %zu chunks (%d stripes)",
                               dr.setupSeconds, dr.sortedChunks.size(),
                               drStripes));
    simio::CostParams params = simio::CostParams::paper150();
    auto e = runQuery(dr, hv1);
    auto tasks = batchedVirtualTasks(dr, e, params, 150);
    double v = simio::simulateQuery(tasks, params).elapsedSec();
    double perChunkMasterSec =
        params.masterPerChunkOverheadSec *
        static_cast<double>(dr.sortedChunks.size());
    printKeyValue(
        "DR-scale HV1",
        util::format("batched %.1f virtual s (wall %.0f ms, %.3f ms/chunk "
                     "amortized); per-chunk master term alone would be "
                     "%.0f s",
                     v, e.wallSeconds * 1e3,
                     (tasks.empty() ? 0.0 : tasks.front().dispatchSec) * 1e3,
                     perChunkMasterSec));
  }
  return 0;
}
