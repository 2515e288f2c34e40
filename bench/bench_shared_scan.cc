/// \file bench_shared_scan.cc
/// \brief Ablation — shared scanning (§4.3) vs the deployed FIFO scheduler.
///
/// The paper's Fig 14 shows two concurrent full scans taking ~2x their solo
/// time "since each is a full table scan that is competing for resources
/// and shared scanning has not been implemented". This bench runs the
/// two-scan workload concurrently through the REAL worker scheduler, whose
/// only policy is shared scanning, and compares the modeled cluster times
/// against a modeled FIFO baseline in which each scan pays its own pass:
/// the bytes the same scan reads when it runs alone. With sharing,
/// co-queued tasks on the same chunk ride one disk pass, so "results from
/// many full-scan queries can be returned in little more than the time for
/// a single full-scan query".
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "util/metrics.h"

namespace {

using namespace qserv;
using namespace qserv::bench;

struct ScenarioResult {
  double q1Sec = 0, q2Sec = 0;
  double sharedFraction = 0;  // tasks that paid no scan I/O
  double bytesScanned = 0;    // paper-scale bytes both scans paid together
};

/// Price two scans' executions as two concurrent queries on the modeled
/// 150-node cluster (the paper's FIFO queues).
ScenarioResult price(const PaperSetup& setup,
                     const core::QservFrontend::Execution& e1,
                     const core::QservFrontend::Execution& e2) {
  simio::CostParams params = simio::CostParams::paper150();
  simio::SimQuery q1, q2;
  q1.submitSec = 0.0;
  q1.tasks = batchedVirtualTasks(setup, e1, params, 150);
  q2.submitSec = 0.5;
  q2.tasks = batchedVirtualTasks(setup, e2, params, 150);
  auto results = simio::simulateQueries({q1, q2}, params);

  ScenarioResult out;
  out.q1Sec = results[0].elapsedSec();
  out.q2Sec = results[1].elapsedSec();
  std::size_t freeRides = 0, total = 0;
  for (const auto* e : {&e1, &e2}) {
    for (const auto& a : e->accounting) {
      ++total;
      if (a.observables.bytesScanned == 0) ++freeRides;
      out.bytesScanned += a.observables.bytesScanned;
    }
  }
  out.sharedFraction = total ? static_cast<double>(freeRides) / total : 0;
  return out;
}

}  // namespace

int main() {
  printBanner("Ablation — shared scanning vs FIFO under two concurrent scans",
              "§4.3 (design), §6.4/Fig 14 (FIFO measurement)",
              "FIFO: both scans ~2x solo. Shared: both near 1x solo");

  PaperSetupOptions opts;
  opts.basePatchObjects = 1200;
  // A ~200-chunk region with all chunk queries in flight at once: worker
  // queues hold both scans' tasks simultaneously, the shared-scan
  // scheduler's grouping opportunity (real shared scanning holds scan
  // queries for the duration of a table pass).
  opts.objectRegion = sphgeom::SphericalBox(0, -16, 30, 12);
  opts.workerConfig.slots = 2;
  // This ablation measures pure same-chunk sharing; keep the slow-scan
  // eviction out of it (tier splits would break grouping on timing noise —
  // the eviction path has its own unit tests).
  opts.workerConfig.slowScanFactor = 0.0;
  // Stage both scans' chunk tasks in the worker queues before any executes
  // (real shared scanning likewise batches scan queries against the next
  // pass over the table).
  opts.workerConfig.startPaused = true;
  PaperSetup setup = makePaperSetup(opts);

  // Both predicates are flux expressions: zone maps cannot prune them, so
  // each is a genuine full pass over every chunk (a plain range predicate
  // like `uRadius_PS > 0.2` is zone-pruned to zero I/O and would measure
  // nothing).
  const std::string scanA =
      "SELECT objectId, ra_PS, decl_PS FROM Object "
      "WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 4";
  const std::string scanB =
      "SELECT objectId, ra_PS, decl_PS FROM Object "
      "WHERE fluxToAbMag(gFlux_PS) - fluxToAbMag(rFlux_PS) > 0.8";

  // Submit both scans concurrently so their chunk tasks co-queue.
  core::QservFrontend::Execution e1, e2;
  std::thread t1([&] { e1 = runQuery(setup, scanA); });
  std::thread t2([&] { e2 = runQuery(setup, scanB); });
  // Let both dispatchers enqueue everything, then open the floodgates.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  for (std::size_t w = 0; w < setup.cluster->numWorkers(); ++w) {
    setup.cluster->worker(w).resume();
  }
  t1.join();
  t2.join();
  ScenarioResult shared = price(setup, e1, e2);

  // The modeled FIFO baseline: each scan alone pays every chunk's read.
  ScenarioResult fifo =
      price(setup, runQuery(setup, scanA), runQuery(setup, scanB));

  std::printf("\n");
  printKeyValue("FIFO (modeled)",
                util::format("scan A %.0f s, scan B %.0f s (%.0f%% of chunk "
                             "tasks shared a read)",
                             fifo.q1Sec, fifo.q2Sec,
                             fifo.sharedFraction * 100));
  printKeyValue("shared scanning",
                util::format("scan A %.0f s, scan B %.0f s (%.0f%% of chunk "
                             "tasks shared a read)",
                             shared.q1Sec, shared.q2Sec,
                             shared.sharedFraction * 100));

  // Makespan: when do BOTH scans have their answers? (§4.3: "results from
  // many full-scan queries can be returned in little more than the time for
  // a single full-scan query" — the per-query sum is the wrong statistic,
  // since FIFO drains one staged scan before the other even starts.)
  double gain = std::max(fifo.q1Sec, fifo.q2Sec) /
                std::max(shared.q1Sec, shared.q2Sec);
  printKeyValue("both-scans makespan",
                util::format("FIFO %.0f s (modeled), shared %.0f s: %.2fx "
                             "faster",
                             std::max(fifo.q1Sec, fifo.q2Sec),
                             std::max(shared.q1Sec, shared.q2Sec), gain));

  // Under FIFO both scans pay the full table, so half the modeled FIFO
  // total is the single-scan byte baseline; shared scanning must bring BOTH
  // scans in near that one pass.
  double singlePass = fifo.bytesScanned / 2.0;
  printKeyValue("bytes scanned",
                util::format("FIFO %.1f GB, shared %.1f GB (1 pass = %.1f "
                             "GB): %.2fx of a single pass",
                             fifo.bytesScanned / 1e9,
                             shared.bytesScanned / 1e9, singlePass / 1e9,
                             shared.bytesScanned / singlePass));

  auto& reg = util::MetricsRegistry::instance();
  reg.gauge("bench.shared_scan.fifo_bytes_mb")
      .set(static_cast<std::int64_t>(fifo.bytesScanned / 1e6));
  reg.gauge("bench.shared_scan.shared_bytes_mb")
      .set(static_cast<std::int64_t>(shared.bytesScanned / 1e6));
  reg.gauge("bench.shared_scan.speedup_x100")
      .set(static_cast<std::int64_t>(gain * 100));

  // Perf gate: N concurrent scans in ~1 physical pass (paper §4.3: "results
  // from many full-scan queries ... in little more than the time for a
  // single full-scan query").
  if (shared.bytesScanned > 1.25 * singlePass) {
    std::fprintf(stderr,
                 "GATE FAILED: shared-scan bytes %.2f GB > 1.25x single-pass "
                 "baseline %.2f GB\n",
                 shared.bytesScanned / 1e9, singlePass / 1e9);
    return 1;
  }
  return 0;
}
