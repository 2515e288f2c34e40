/// \file shared_scan_demo.cpp
/// \brief Shared scanning (§4.3) — "planned" in the paper, implemented here.
///
/// Three concurrent full-scan chunk queries run on one worker under its
/// shared-scan scheduler: queued queries touching the same chunk ride one
/// read ("the table is read in pieces, and all concerning queries operate
/// on that piece while it is in memory"). The paper's deployed FIFO is a
/// modeled baseline: each query pays its own pass, priced from the bytes
/// the same query reads when it runs alone. The demo shows the I/O
/// accounting per query and the modeled node time of both.
#include <cstdio>

#include "datagen/partitioner.h"
#include "example_util.h"
#include "qserv/batch_codec.h"
#include "qserv/cluster.h"
#include "qserv/merger.h"
#include "qserv/worker.h"
#include "util/md5.h"
#include "util/strings.h"
#include "xrd/paths.h"

int main() {
  using namespace qserv;

  core::CatalogConfig catalog = core::CatalogConfig::lsst(18, 6, 0.05);
  core::SkyDataOptions data;
  data.basePatchObjects = 3000;
  data.withSources = false;
  data.region = sphgeom::SphericalBox(0, -7, 7, 7);
  auto sky = core::buildSkyCatalog(catalog, data);
  if (!sky.isOk()) return 1;

  // One worker database holding every chunk.
  auto db = std::make_shared<sql::Database>("w0");
  std::vector<std::int32_t> chunks;
  std::int32_t densest = -1;
  std::size_t best = 0;
  for (const auto& chunk : sky->chunks) {
    if (!datagen::loadChunkIntoDatabase(*db, chunk).isOk()) return 1;
    chunks.push_back(chunk.chunkId);
    if (chunk.objects->numRows() > best) {
      best = chunk.objects->numRows();
      densest = chunk.chunkId;
    }
  }
  std::printf("worker holds %zu chunks; scanning chunk %d (%zu rows) with 3 "
              "concurrent analysis queries\n\n",
              chunks.size(), densest, best);

  const char* predicates[] = {
      "fluxToAbMag(gFlux_PS) - fluxToAbMag(rFlux_PS) > 0.8",
      "uRadius_PS > 0.05",
      "decl_PS > 0",
  };

  core::WorkerConfig wc;
  wc.slots = 1;  // a single disk arm, in effect
  wc.rowScale = 41;  // pretend the chunk is paper-sized (~200 MB MyISAM)
  wc.startPaused = true;  // the first queries all queue before any runs
  core::Worker worker("w0", db, catalog, chunks, wc);

  // Run \p preds as concurrent batches of one chunk query each; print what
  // each paid and return their modeled node seconds (< 0 on failure).
  simio::CostParams params = simio::CostParams::paper150();
  auto run = [&](std::vector<const char*> preds) {
    std::vector<std::string> batchIds;
    for (const char* pred : preds) {
      core::BatchRequest batch;
      batch.query.sql =
          util::format("SELECT COUNT(*) AS c FROM Object WHERE %s", pred);
      batch.query.bindings = {{0, core::TableBindingKind::kChunk}};
      batch.templateHash = util::Md5::hex(batch.query.sql);
      batch.chunks = {{densest, {}}};
      std::string request = core::encodeBatchRequest(batch);
      batchIds.push_back(util::Md5::hex(request));
      if (!worker.writeFile(xrd::makeBatchPath(batchIds.back()), request)
               .isOk()) {
        return -1.0;
      }
    }
    worker.resume();
    double nodeSeconds = 0;
    for (const auto& batchId : batchIds) {
      auto frame = worker.readFile(xrd::makeBatchStreamPath(batchId));
      if (!frame.isOk()) return -1.0;
      auto result = core::decodeResultFrame(*frame);
      if (!result.isOk() || !result->status.isOk()) return -1.0;
      auto verified = core::VerifiedResult::decode(result->body);
      if (!verified.isOk()) return -1.0;
      const simio::WorkObservables& obs = verified->observables();
      double service = simio::workerServiceSeconds(obs, params);
      nodeSeconds += service;
      std::printf("  query pays %s of disk -> %.1f s of node time\n",
                  util::humanBytes(obs.bytesScanned).c_str(), service);
    }
    return nodeSeconds;
  };

  std::printf("shared-scan scheduler:\n");
  double shared = run({predicates[0], predicates[1], predicates[2]});
  if (shared < 0) return 1;
  std::printf("  total node time for the 3 queries: %.1f s\n\n", shared);
  // The paper's FIFO, modeled: each query pays its own pass, the bytes it
  // reads when it runs alone.
  std::printf("FIFO (modeled: each query pays its own pass):\n");
  double fifo = 0;
  for (const char* pred : predicates) {
    double solo = run({pred});
    if (solo < 0) return 1;
    fifo += solo;
  }
  std::printf("  total node time for the 3 queries: %.1f s\n\n", fifo);

  std::printf("shared scanning returns results from many full-scan queries "
              "in little more than the time of a single scan (§4.3).\n");
  return 0;
}
