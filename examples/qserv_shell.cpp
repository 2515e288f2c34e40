/// \file qserv_shell.cpp
/// \brief Interactive SQL shell against an in-process Qserv cluster — the
/// experience the paper's astronomers get through the MySQL proxy (§5.4),
/// here with per-query execution diagnostics and live observability.
///
/// Usage: qserv_shell [numWorkers] [basePatchObjects]
/// Then type SQL (single line, `;` optional). Commands: \chunks, \workers,
/// \metrics, \processlist, \explain <sql>, \profile <id>, \slowlog [sec],
/// \trace <file>, \quit. EXPLAIN / EXPLAIN ANALYZE work as plain SQL too.
///
/// `\trace <file>` writes the Chrome trace of the last traced query. Only
/// profiled queries are traced: profiling is on by default here, and
/// EXPLAIN ANALYZE always traces.
///
/// Set QSERV_SLOW_QUERY_SECONDS to emit a structured log line for every
/// query slower than the threshold (the same summary `\slowlog` queries out
/// of the QueryStats table).
///
/// Workers run the §4.3 shared-scan scheduler (interactive priority lane
/// with a reserved interactive-only slot, same-chunk scan passes, slow-scan
/// eviction); set QSERV_SCAN_BUDGET_GB to cap concurrently locked chunk
/// memory (DESIGN.md §12). EXPLAIN's `scheduler` row shows each query's
/// class; per-class queue waits land under `worker.*` in \metrics.
///
/// Fault injection: set QSERV_FAULTS to a fault-plan spec (see
/// xrd/fault_injector.h) to wrap every worker in an injector, e.g.
///   QSERV_FAULTS='seed=7; read:p=0.05,fail' qserv_shell 4
/// and QSERV_REPLICATION / QSERV_DEADLINE_SECONDS to see failover and
/// per-query deadlines in action. Injected-fault totals show under
/// `faultinj.*` in \metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "example_util.h"
#include "qserv/cluster.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/trace.h"

int main(int argc, char** argv) {
  using namespace qserv;
  using namespace qserv::examples;

  int numWorkers = argc > 1 ? std::atoi(argv[1]) : 4;
  std::int64_t baseObjects = argc > 2 ? std::atoll(argv[2]) : 1200;

  core::CatalogConfig catalog = core::CatalogConfig::lsst(18, 6, 0.05);
  core::SkyDataOptions data;
  data.basePatchObjects = baseObjects;
  data.withSources = true;
  data.region = sphgeom::SphericalBox(0, -7, 30, 7);
  std::printf("generating synthetic sky (%lld objects/patch, region %s)...\n",
              static_cast<long long>(baseObjects), data.region.toString().c_str());
  auto sky = core::buildSkyCatalog(catalog, data);
  if (!sky.isOk()) {
    std::fprintf(stderr, "%s\n", sky.status().toString().c_str());
    return 1;
  }
  core::ClusterOptions opts;
  opts.numWorkers = numWorkers;
  opts.frontend.catalog = catalog;
  if (const char* rep = std::getenv("QSERV_REPLICATION")) {
    opts.replication = std::max(1, std::atoi(rep));
  }
  if (const char* deadline = std::getenv("QSERV_DEADLINE_SECONDS")) {
    opts.frontend.queryDeadlineSeconds = std::atof(deadline);
  }
  if (const char* budget = std::getenv("QSERV_SCAN_BUDGET_GB")) {
    opts.worker.scanMemoryBudgetBytes = std::atof(budget) * 1e9;
  }
  if (const char* slow = std::getenv("QSERV_SLOW_QUERY_SECONDS")) {
    opts.frontend.slowQuerySeconds = std::atof(slow);
    std::printf("slow-query log armed: threshold %.3f s\n",
                opts.frontend.slowQuerySeconds);
  }
  if (const char* spec = std::getenv("QSERV_FAULTS")) {
    auto plan = xrd::FaultPlan::parse(spec);
    if (!plan.isOk()) {
      std::fprintf(stderr, "bad QSERV_FAULTS: %s\n",
                   plan.status().toString().c_str());
      return 1;
    }
    opts.faults = std::move(*plan);
    std::printf("fault injection armed: %s (%zu rules, seed %llu)\n", spec,
                opts.faults.rules.size(),
                static_cast<unsigned long long>(opts.faults.seed));
  }
  auto cluster = core::MiniCluster::create(opts, *sky);
  if (!cluster.isOk()) {
    std::fprintf(stderr, "%s\n", cluster.status().toString().c_str());
    return 1;
  }
  if (const char* monitor = std::getenv("QSERV_REPAIR")) {
    if (std::atoi(monitor) != 0) {
      (*cluster)->repairController().start();
      std::printf("repair monitor started: probe every %lld ms, "
                  "auto-repair %s\n",
                  static_cast<long long>((*cluster)
                                             ->repairController()
                                             .config()
                                             .probeInterval.count()),
                  (*cluster)->repairController().config().autoRepair
                      ? "on"
                      : "off");
    }
  }
  std::printf("qserv ready: %d workers, %zu chunks. Tables: Object, Source. "
              "UDFs: qserv_areaspec_box, qserv_angSep, fluxToAbMag, ...\n"
              "commands: \\chunks \\workers \\metrics \\processlist "
              "\\explain <sql> \\profile <id> \\slowlog [sec] "
              "\\repair [run|rebalance] \\trace <file> \\quit\n",
              numWorkers, (*cluster)->chunkIds().size());

  util::TracePtr lastTrace;
  std::string line;
  while (true) {
    std::printf("qserv> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string_view trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    if (trimmed == "\\quit" || trimmed == "\\q" || trimmed == "exit") break;
    if (trimmed == "\\chunks") {
      std::printf("%zu chunks with data\n", (*cluster)->chunkIds().size());
      continue;
    }
    if (trimmed == "\\workers") {
      for (std::size_t w = 0; w < (*cluster)->numWorkers(); ++w) {
        std::printf("  %s: %zu primary chunks, %llu tasks executed\n",
                    (*cluster)->worker(w).id().c_str(),
                    (*cluster)->chunksOfWorker(w).size(),
                    static_cast<unsigned long long>(
                        (*cluster)->worker(w).tasksExecuted()));
      }
      continue;
    }
    if (trimmed == "\\metrics") {
      std::printf("%s",
                  util::MetricsRegistry::instance().snapshot().toText().c_str());
      continue;
    }
    if (trimmed == "\\processlist" || trimmed == "\\pl") {
      auto list = (*cluster)->frontend().processList();
      if (list.empty()) {
        std::printf("no queries yet\n");
        continue;
      }
      std::printf("  %-4s %-12s %9s %7s  %s\n", "id", "state", "chunks",
                  "sec", "sql");
      for (const auto& q : list) {
        std::printf("  %-4llu %-12s %4zu/%-4zu %7.3f  %s\n",
                    static_cast<unsigned long long>(q.id),
                    q.state.c_str(), q.chunksCompleted, q.chunksTotal,
                    q.elapsedSeconds, q.sql.c_str());
      }
      continue;
    }
    if (util::startsWith(trimmed, "\\explain")) {
      std::string inner(util::trim(trimmed.substr(8)));
      if (inner.empty()) {
        std::printf("usage: \\explain <select>\n");
        continue;
      }
      auto plan = (*cluster)->frontend().query("EXPLAIN " + inner);
      if (!plan.isOk()) {
        std::printf("ERROR: %s\n", plan.status().toString().c_str());
        continue;
      }
      printTable(*plan->result, 50);
      continue;
    }
    if (util::startsWith(trimmed, "\\profile")) {
      std::string arg(util::trim(trimmed.substr(8)));
      if (arg.empty()) {
        std::printf("usage: \\profile <query id> (see \\processlist)\n");
        continue;
      }
      auto profile = (*cluster)->frontend().profileFor(
          static_cast<std::uint64_t>(std::atoll(arg.c_str())));
      if (!profile) {
        std::printf("no retained profile for query %s (bounded history; "
                    "summaries live in the QueryStats table)\n", arg.c_str());
        continue;
      }
      printTable(*profile->toTable(), 50);
      continue;
    }
    if (util::startsWith(trimmed, "\\slowlog")) {
      std::string arg(util::trim(trimmed.substr(8)));
      double threshold = arg.empty() ? 0.0 : std::atof(arg.c_str());
      // Dogfood: the slow-query view is ordinary SQL over QueryStats.
      auto rows = (*cluster)->frontend().query(util::format(
          "SELECT queryId, wallSeconds, chunks, retries, faults, status, "
          "sql FROM QueryStats WHERE wallSeconds >= %.6f "
          "ORDER BY wallSeconds DESC", threshold));
      if (!rows.isOk()) {
        std::printf("ERROR: %s\n", rows.status().toString().c_str());
        continue;
      }
      printTable(*rows->result, 50);
      continue;
    }
    if (util::startsWith(trimmed, "\\repair")) {
      auto& repair = (*cluster)->repairController();
      std::string arg(util::trim(trimmed.substr(7)));
      if (arg == "run") {
        auto copied = repair.repairOnce();
        if (!copied.isOk()) {
          std::printf("ERROR: %s\n", copied.status().toString().c_str());
        } else {
          std::printf("repair pass: %d chunk replicas created\n", *copied);
        }
        continue;
      }
      if (arg == "rebalance") {
        auto moves = repair.rebalanceOnce();
        if (!moves.isOk()) {
          std::printf("ERROR: %s\n", moves.status().toString().c_str());
        } else {
          std::printf("rebalance pass: %d replicas moved\n", *moves);
        }
        continue;
      }
      if (!arg.empty()) {
        std::printf("usage: \\repair [run|rebalance]\n");
        continue;
      }
      std::printf("%s", repair.statusText().c_str());
      continue;
    }
    if (util::startsWith(trimmed, "\\trace")) {
      if (!lastTrace) {
        std::printf("no traced query yet — run a query with profiling on "
                    "(the default) or EXPLAIN ANALYZE first\n");
        continue;
      }
      std::string path(util::trim(trimmed.substr(6)));
      if (path.empty()) path = "qserv_trace.json";
      std::ofstream out(path, std::ios::trunc);
      if (!out) {
        std::printf("cannot open %s for writing\n", path.c_str());
        continue;
      }
      out << lastTrace->toChromeJson();
      std::printf("wrote %zu spans of query %llu to %s "
                  "(open in chrome://tracing or ui.perfetto.dev)\n",
                  lastTrace->spanCount(),
                  static_cast<unsigned long long>(lastTrace->id()),
                  path.c_str());
      continue;
    }
    auto result = (*cluster)->frontend().query(std::string(trimmed));
    if (!result.isOk()) {
      std::printf("ERROR: %s\n", result.status().toString().c_str());
      continue;
    }
    if (result->trace) lastTrace = result->trace;  // untraced: keep the last
    printTable(*result->result, 20);
    std::printf("(%zu rows; %zu chunk queries; %.1f ms; ~%.2f s on the "
                "paper's 150-node cluster; query id %llu, %zu trace spans)\n",
                result->result->numRows(), result->chunksDispatched,
                result->wallSeconds * 1e3, result->soloTiming.elapsedSec(),
                static_cast<unsigned long long>(result->queryId),
                result->trace ? result->trace->spanCount() : 0);
  }
  return 0;
}
