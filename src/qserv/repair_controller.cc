#include "qserv/repair_controller.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <future>
#include <type_traits>

#include "qserv/czar.h"
#include "qserv/dump_integrity.h"
#include "sql/dump.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "xrd/paths.h"

namespace qserv::core {

using util::Result;
using util::Status;

namespace {

struct RepairMetrics {
  util::Counter& probes;
  util::Counter& probeFailures;
  util::Counter& workersDeclaredDown;
  util::Counter& workersRevived;
  util::Counter& repairRuns;
  util::Counter& chunksReplicated;
  util::Counter& copyBytes;
  util::Counter& copyFailures;
  util::Counter& checksumMismatches;
  util::Counter& rebalanceMoves;
  util::Counter& chunksIngested;
  util::Gauge& workersDown;
  util::Gauge& transfersInflight;
  util::Histogram& copySeconds;

  static RepairMetrics& instance() {
    auto& reg = util::MetricsRegistry::instance();
    static RepairMetrics* m = new RepairMetrics{
        reg.counter("repair.probes"),
        reg.counter("repair.probe_failures"),
        reg.counter("repair.workers_declared_down"),
        reg.counter("repair.workers_revived"),
        reg.counter("repair.runs"),
        reg.counter("repair.chunks_replicated"),
        reg.counter("repair.copy_bytes"),
        reg.counter("repair.copy_failures"),
        reg.counter("repair.checksum_mismatches"),
        reg.counter("repair.rebalance_moves"),
        reg.counter("repair.chunks_ingested"),
        reg.gauge("repair.workers_down"),
        reg.gauge("repair.transfers_inflight"),
        reg.histogram("repair.copy_seconds"),
    };
    return *m;
  }
};

/// Parse "pong id=w0 queue=3 chunks=12\n" fields; zero when absent.
void parsePing(const std::string& payload, std::size_t* queue,
               std::size_t* chunks) {
  *queue = 0;
  *chunks = 0;
  for (const auto& token : util::split(payload, ' ')) {
    std::string_view t = util::trim(token);
    if (util::startsWith(t, "queue=")) {
      *queue = static_cast<std::size_t>(
          std::strtoull(std::string(t.substr(6)).c_str(), nullptr, 10));
    } else if (util::startsWith(t, "chunks=")) {
      *chunks = static_cast<std::size_t>(
          std::strtoull(std::string(t.substr(7)).c_str(), nullptr, 10));
    }
  }
}

/// One replayable, checksummed script carrying a ChunkData's tables — the
/// same wire format Worker::snapshotChunk produces for worker-to-worker
/// copies, here built from freshly partitioned (not yet loaded) data.
std::string encodeChunkSnapshot(const datagen::ChunkData& chunk) {
  std::string script = util::format("-- qserv-chunk v1 %d\n", chunk.chunkId);
  if (chunk.objects) script += sql::dumpTable(*chunk.objects,
                                              chunk.objects->name());
  if (chunk.objectOverlap) {
    script += sql::dumpTable(*chunk.objectOverlap,
                             chunk.objectOverlap->name());
  }
  if (chunk.sources) script += sql::dumpTable(*chunk.sources,
                                              chunk.sources->name());
  appendDumpChecksum(script);
  return script;
}

std::uint64_t mixSeed(std::uint64_t seed, std::int32_t chunkId,
                      const std::string& dest) {
  return seed ^ (static_cast<std::uint64_t>(chunkId) * 0x9e3779b97f4a7c15ULL)
       ^ std::hash<std::string>{}(dest);
}

}  // namespace

RepairController::RepairController(RepairConfig config,
                                   xrd::RedirectorPtr redirector,
                                   CatalogConfig catalog)
    : config_(std::move(config)),
      redirector_(std::move(redirector)),
      catalog_(std::move(catalog)) {}

RepairController::~RepairController() { stop(); }

void RepairController::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  {
    std::lock_guard lock(monitorMutex_);
    stopRequested_ = false;
  }
  monitor_ = std::thread([this] { monitorLoop(); });
}

void RepairController::stop() {
  if (!running_.exchange(false)) {
    if (monitor_.joinable()) monitor_.join();
    return;
  }
  {
    std::lock_guard lock(monitorMutex_);
    stopRequested_ = true;
  }
  monitorCv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
}

void RepairController::monitorLoop() {
  while (true) {
    {
      std::unique_lock lock(monitorMutex_);
      monitorCv_.wait_for(lock, config_.probeInterval,
                          [&] { return stopRequested_; });
      if (stopRequested_) return;
    }
    bool newlyDown = probeOnce();
    if (newlyDown && config_.autoRepair) {
      auto repaired = repairOnce();
      if (!repaired.isOk()) {
        QLOG(kWarn, "repair")
            << "auto-repair failed: " << repaired.status().toString();
      }
    }
  }
}

bool RepairController::probeOnce() {
  auto& metrics = RepairMetrics::instance();
  bool anyNewlyDown = false;
  for (const std::string& id : redirector_->serverIds()) {
    xrd::DataServerPtr server = redirector_->findServer(id);
    if (!server) continue;
    bool ok = false;
    std::size_t queue = 0, chunks = 0;
    if (server->isUp()) {
      auto pong = server->read(std::string(xrd::kPingPath));
      if (pong.isOk()) {
        ok = true;
        parsePing(*pong, &queue, &chunks);
      }
    }
    metrics.probes.add();
    if (!ok) metrics.probeFailures.add();
    // Train the query path's breaker through its own half-open gating: the
    // control plane and the dispatcher share one health view.
    redirector_->reportProbe(id, ok);

    bool declaredDown = false;
    bool revived = false;
    {
      std::lock_guard lock(stateMutex_);
      WorkerState& state = states_[id];
      if (ok) {
        state.failStreak = 0;
        state.queueDepth = queue;
        if (state.health != WorkerHealth::kUp &&
            ++state.okStreak >= config_.upAfter) {
          revived = state.health == WorkerHealth::kDown;
          state.health = WorkerHealth::kUp;
          state.okStreak = 0;
        }
      } else {
        state.okStreak = 0;
        ++state.failStreak;
        if (state.health != WorkerHealth::kDown &&
            state.failStreak >= config_.downAfter) {
          state.health = WorkerHealth::kDown;
          declaredDown = true;
        } else if (state.health == WorkerHealth::kUp &&
                   state.failStreak >= config_.suspectAfter) {
          state.health = WorkerHealth::kSuspect;
        }
      }
    }
    if (declaredDown) {
      anyNewlyDown = true;
      metrics.workersDeclaredDown.add();
      metrics.workersDown.add(1);
      redirector_->setServerHealth(id, false);
      QLOG(kWarn, "repair") << "worker " << id << " declared DOWN after "
                            << config_.downAfter << " failed probes";
    }
    if (revived) {
      metrics.workersRevived.add();
      metrics.workersDown.add(-1);
      // Re-admit: placement may have changed while it was gone (rebalance,
      // ingest), so re-sync its exports before traffic returns.
      redirector_->refreshExports(id);
      redirector_->setServerHealth(id, true);
      QLOG(kInfo, "repair") << "worker " << id << " recovered after "
                            << config_.upAfter << " clean probes";
    }
  }
  return anyNewlyDown;
}

RepairController::WorkerHealth RepairController::health(
    const std::string& workerId) const {
  std::lock_guard lock(stateMutex_);
  auto it = states_.find(workerId);
  return it == states_.end() ? WorkerHealth::kUp : it->second.health;
}

const char* RepairController::healthName(WorkerHealth h) {
  switch (h) {
    case WorkerHealth::kUp: return "up";
    case WorkerHealth::kSuspect: return "suspect";
    case WorkerHealth::kDown: return "down";
  }
  return "?";
}

std::vector<std::string> RepairController::liveServers() const {
  std::vector<std::string> out;
  for (const std::string& id : redirector_->serverIds()) {
    xrd::DataServerPtr server = redirector_->findServer(id);
    if (!server || !server->isUp()) continue;
    if (health(id) == WorkerHealth::kDown) continue;
    out.push_back(id);
  }
  return out;  // serverIds() is sorted
}

std::map<std::string, std::size_t> RepairController::replicaLoad(
    const std::map<std::int32_t, std::vector<std::string>>& placement,
    const std::vector<std::string>& live) const {
  std::map<std::string, std::size_t> load;
  for (const std::string& id : live) load[id] = 0;
  for (const auto& [chunk, ids] : placement) {
    for (const std::string& id : ids) {
      auto it = load.find(id);
      if (it != load.end()) ++it->second;
    }
  }
  return load;
}

std::vector<std::int32_t> RepairController::underReplicatedChunks() const {
  auto placement = redirector_->placementSnapshot();
  auto live = liveServers();
  int target = std::min<int>(config_.replicationTarget,
                             static_cast<int>(live.size()));
  std::vector<std::int32_t> out;
  for (const auto& [chunk, ids] : placement) {
    int liveReplicas = 0;
    for (const std::string& id : ids) {
      if (std::binary_search(live.begin(), live.end(), id)) ++liveReplicas;
    }
    if (liveReplicas < target) out.push_back(chunk);
  }
  return out;  // placementSnapshot is an ordered map: already sorted
}

Status RepairController::replicateChunk(
    std::int32_t chunkId, const std::vector<std::string>& sourceIds,
    const std::string& destId, util::Trace* trace) {
  auto& metrics = RepairMetrics::instance();
  if (sourceIds.empty()) {
    return Status::unavailable(
        util::format("no live source replica for chunk %d", chunkId));
  }
  util::ScopedSpan span(trace, util::SpanKind::kCopy);
  span->chunk = chunkId;
  if (span) span->worker = destId;
  util::Stopwatch watch;
  metrics.transfersInflight.add(1);
  util::Backoff backoff(config_.copyBackoff,
                        mixSeed(config_.seed, chunkId, destId));
  Status last = Status::unavailable("no copy attempt made");
  int attempts = std::max(1, config_.copyAttempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(backoff.next());
    // Rotate over source replicas: a sick source should not doom the copy.
    const std::string& sourceId =
        sourceIds[static_cast<std::size_t>(attempt) % sourceIds.size()];
    xrd::DataServerPtr source = redirector_->findServer(sourceId);
    xrd::DataServerPtr dest = redirector_->findServer(destId);
    if (!dest) {
      last = Status::notFound("copy destination " + destId + " unknown");
      break;
    }
    if (!source) {
      last = Status::unavailable("copy source " + sourceId + " unknown");
      continue;
    }
    auto snapshot = source->read(xrd::makeChunkPath(chunkId));
    if (!snapshot.isOk()) {
      last = snapshot.status();
      continue;
    }
    // Verify before shipping: a corrupted read from a sick source must be
    // retried from another replica, never installed.
    if (auto verified = verifyDumpChecksum(*snapshot); !verified.isOk()) {
      metrics.checksumMismatches.add();
      last = verified;
      continue;
    }
    std::size_t bytes = snapshot->size();
    auto installed =
        dest->write(xrd::makeChunkLoadPath(chunkId), std::move(*snapshot));
    if (!installed.isOk()) {
      last = installed;
      continue;
    }
    // Publish: the redirector sees the new replica atomically; the next
    // locate of this chunk may pick it.
    redirector_->refreshExports(destId);
    metrics.chunksReplicated.add();
    metrics.copyBytes.add(bytes);
    double seconds = watch.elapsedSeconds();
    metrics.copySeconds.observe(seconds);
    metrics.transfersInflight.add(-1);
    span->bytes = static_cast<std::int64_t>(bytes);
    span->attempt = attempt + 1;
    // Duty-cycle pacing: idle this transfer slot in proportion to the time
    // the copy took, bounding repair's share of the machine.
    if (config_.copyDutyCycle > 0.0 && config_.copyDutyCycle < 1.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          seconds * (1.0 / config_.copyDutyCycle - 1.0)));
    }
    return Status::ok();
  }
  metrics.copyFailures.add();
  metrics.transfersInflight.add(-1);
  span.fail(last);
  return last;
}

Result<int> RepairController::repairOnce() {
  std::lock_guard repairLock(repairMutex_);
  auto& metrics = RepairMetrics::instance();
  auto placement = redirector_->placementSnapshot();
  auto live = liveServers();
  if (live.empty()) {
    return Status::unavailable("no live workers to repair onto");
  }
  int target = std::min<int>(config_.replicationTarget,
                             static_cast<int>(live.size()));
  auto load = replicaLoad(placement, live);

  struct CopyJob {
    std::int32_t chunkId = 0;
    std::vector<std::string> sources;
    std::string dest;
  };
  std::vector<CopyJob> jobs;
  for (const auto& [chunk, ids] : placement) {
    std::vector<std::string> liveReplicas;
    for (const std::string& id : ids) {
      if (std::binary_search(live.begin(), live.end(), id)) {
        liveReplicas.push_back(id);
      }
    }
    if (liveReplicas.empty()) continue;  // nothing to copy from
    int deficit = target - static_cast<int>(liveReplicas.size());
    for (int d = 0; d < deficit; ++d) {
      // Least-loaded live worker not already holding (or receiving) a
      // replica of this chunk; deterministic id tiebreak.
      std::string best;
      std::size_t bestLoad = 0;
      for (const std::string& candidate : live) {
        bool holds =
            std::find(ids.begin(), ids.end(), candidate) != ids.end();
        for (const auto& job : jobs) {
          holds |= job.chunkId == chunk && job.dest == candidate;
        }
        if (holds) continue;
        if (best.empty() || load[candidate] < bestLoad) {
          best = candidate;
          bestLoad = load[candidate];
        }
      }
      if (best.empty()) break;  // not enough distinct workers
      ++load[best];
      jobs.push_back(CopyJob{chunk, liveReplicas, best});
    }
  }
  if (jobs.empty()) return 0;

  auto trace = std::make_shared<util::Trace>(++runs_, "repair-run");
  metrics.repairRuns.add();
  QLOG(kInfo, "repair") << "re-replicating " << jobs.size()
                        << " chunk replicas (budget "
                        << config_.transferBudget << ")";
  int copied = 0;
  {
    util::ScopedSpan runSpan(trace.get(), util::SpanKind::kRepairRun);
    // The transfer budget IS the pool size: at most `transferBudget` copies
    // in flight, the rest queue — repair cannot starve query slots.
    util::ThreadPool pool(
        static_cast<std::size_t>(std::max(1, config_.transferBudget)));
    std::vector<std::future<Status>> results;
    results.reserve(jobs.size());
    for (const CopyJob& job : jobs) {
      results.push_back(pool.submit([this, job, &trace] {
        return replicateChunk(job.chunkId, job.sources, job.dest,
                              trace.get());
      }));
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      Status status = results[i].get();
      if (status.isOk()) {
        ++copied;
      } else {
        QLOG(kWarn, "repair")
            << "copy of chunk " << jobs[i].chunkId << " to " << jobs[i].dest
            << " failed: " << status.toString();
      }
    }
    runSpan->count = copied;
  }
  {
    std::lock_guard lock(stateMutex_);
    lastTrace_ = std::move(trace);
  }
  return copied;
}

Result<int> RepairController::rebalanceOnce(int maxMoves) {
  std::lock_guard repairLock(repairMutex_);
  auto& metrics = RepairMetrics::instance();
  auto placement = redirector_->placementSnapshot();
  auto live = liveServers();
  if (live.size() < 2 || maxMoves <= 0) return 0;
  auto load = replicaLoad(placement, live);

  // Hotness = last-ping queue depth first (the convoy signal), replica
  // count as tiebreak; coldness the reverse.
  auto pressure = [&](const std::string& id) {
    std::size_t queue = 0;
    {
      std::lock_guard lock(stateMutex_);
      auto it = states_.find(id);
      if (it != states_.end()) queue = it->second.queueDepth;
    }
    return std::pair<std::size_t, std::size_t>(queue, load[id]);
  };
  std::string hot = live.front(), cold = live.front();
  for (const std::string& id : live) {
    if (pressure(id) > pressure(hot)) hot = id;
    if (pressure(id) < pressure(cold)) cold = id;
  }
  if (hot == cold || load[hot] <= load[cold] + 1) return 0;  // balanced

  // Chunks the hot worker holds and the cold one does not.
  std::vector<std::int32_t> movable;
  for (const auto& [chunk, ids] : placement) {
    bool onHot = std::find(ids.begin(), ids.end(), hot) != ids.end();
    bool onCold = std::find(ids.begin(), ids.end(), cold) != ids.end();
    if (onHot && !onCold) movable.push_back(chunk);
  }
  int moves = std::min<int>(
      {maxMoves, static_cast<int>(movable.size()),
       static_cast<int>((load[hot] - load[cold]) / 2)});
  if (moves <= 0) return 0;

  auto trace = std::make_shared<util::Trace>(
      ++runs_, util::format("rebalance %s -> %s", hot.c_str(), cold.c_str()));
  int done = 0;
  {
    util::ScopedSpan runSpan(trace.get(), util::SpanKind::kRebalanceRun);
    runSpan->worker = cold;
    for (int i = 0; i < moves; ++i) {
      std::int32_t chunk = movable[static_cast<std::size_t>(i)];
      // Copy-then-drop: the replica count never dips below where it was.
      Status copied = replicateChunk(chunk, {hot}, cold, trace.get());
      if (!copied.isOk()) {
        QLOG(kWarn, "repair") << "rebalance copy of chunk " << chunk
                              << " failed: " << copied.toString();
        continue;
      }
      xrd::DataServerPtr hotServer = redirector_->findServer(hot);
      if (hotServer) {
        Status dropped =
            hotServer->write(xrd::makeChunkDropPath(chunk), "");
        if (dropped.isOk()) {
          redirector_->refreshExports(hot);
        } else {
          QLOG(kWarn, "repair")
              << "rebalance drop of chunk " << chunk << " on " << hot
              << " failed (over-replicated until repaired): "
              << dropped.toString();
        }
      }
      metrics.rebalanceMoves.add();
      ++done;
    }
    runSpan->count = done;
  }
  {
    std::lock_guard lock(stateMutex_);
    lastTrace_ = std::move(trace);
  }
  return done;
}

Status RepairController::ingest(const datagen::PartitionedCatalog& catalog) {
  std::lock_guard repairLock(repairMutex_);
  auto& metrics = RepairMetrics::instance();
  if (catalog.chunks.empty()) return Status::ok();
  auto live = liveServers();
  if (live.empty()) {
    return Status::unavailable("no live workers to ingest onto");
  }
  int target = std::min<int>(config_.replicationTarget,
                             static_cast<int>(live.size()));
  auto load = replicaLoad(redirector_->placementSnapshot(), live);

  std::vector<std::int32_t> newChunks;
  newChunks.reserve(catalog.chunks.size());
  for (const datagen::ChunkData& chunk : catalog.chunks) {
    std::string snapshot = encodeChunkSnapshot(chunk);
    std::vector<std::string> placed;
    for (int r = 0; r < target; ++r) {
      std::string best;
      std::size_t bestLoad = 0;
      for (const std::string& candidate : live) {
        if (std::find(placed.begin(), placed.end(), candidate) !=
            placed.end()) {
          continue;
        }
        if (best.empty() || load[candidate] < bestLoad) {
          best = candidate;
          bestLoad = load[candidate];
        }
      }
      if (best.empty()) break;
      xrd::DataServerPtr dest = redirector_->findServer(best);
      if (!dest) {
        return Status::unavailable("ingest destination " + best + " lost");
      }
      QSERV_RETURN_IF_ERROR(
          dest->write(xrd::makeChunkLoadPath(chunk.chunkId), snapshot));
      redirector_->refreshExports(best);
      placed.push_back(best);
      ++load[best];
    }
    if (placed.empty()) {
      return Status::unavailable(
          util::format("chunk %d could not be placed", chunk.chunkId));
    }
    metrics.chunksIngested.add();
    newChunks.push_back(chunk.chunkId);
  }

  // Publish to the frontend last: index entries first (so objectId lookups
  // resolve the moment the chunks dispatch), then the atomic chunk-set
  // merge — in-flight queries keep their placement snapshot, the next
  // query sees the new chunks.
  if (QservFrontend* frontend = frontend_.load(std::memory_order_acquire)) {
    QSERV_RETURN_IF_ERROR(frontend->secondaryIndex().load(catalog.index));
    frontend->addAvailableChunks(newChunks);
  }
  QLOG(kInfo, "repair") << "ingested " << newChunks.size()
                        << " chunks at replication " << target;
  return Status::ok();
}

namespace {

/// One data line of an ingest CSV: strict field parsing with errors that
/// name the line.
struct CsvLine {
  const char* kind;    ///< "object" or "source"
  std::size_t number;  ///< 1-based line number in its CSV
  std::vector<std::string> fields;

  Status error(const std::string& what) const {
    return Status::invalidArgument(
        util::format("%s CSV line %zu: %s", kind, number, what.c_str()));
  }

  /// Field \p i as T; the whole trimmed field must be one number.
  template <class T>
  Status parse(std::size_t i, const char* name, T& out) const {
    std::string_view f = util::trim(fields[i]);
    const char* end = f.data() + f.size();
    auto [ptr, ec] = std::from_chars(f.data(), end, out);
    if (f.empty() || ec != std::errc() || ptr != end) {
      return error(util::format("%s '%.*s' is not a valid %s", name,
                                static_cast<int>(f.size()), f.data(),
                                std::is_integral_v<T> ? "integer" : "number"));
    }
    return Status::ok();
  }

  /// Optional field \p i: \p out keeps its default when the line is short.
  template <class T>
  Status parseIfPresent(std::size_t i, const char* name, T& out) const {
    return i < fields.size() ? parse(i, name, out) : Status::ok();
  }

  /// The chunker needs a finite ra and a decl on the sphere.
  Status checkPosition(double ra, double decl) const {
    if (!std::isfinite(ra) || !std::isfinite(decl) || decl < -90.0 ||
        decl > 90.0) {
      return error(util::format("position (%g, %g) is not a finite ra with "
                                "decl in [-90, 90]",
                                ra, decl));
    }
    return Status::ok();
  }
};

/// The data lines of \p csv (blank lines and '#' comments skipped), each
/// checked to have at least \p minFields fields named by \p header.
Result<std::vector<CsvLine>> csvLines(const std::string& csv,
                                      const char* kind, std::size_t minFields,
                                      const char* header) {
  std::vector<CsvLine> out;
  auto lines = util::split(csv, '\n');
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string_view trimmed = util::trim(lines[i]);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    CsvLine line{kind, i + 1, util::split(trimmed, ',')};
    if (line.fields.size() < minFields) {
      return line.error(util::format("needs at least %s", header));
    }
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace

Result<std::size_t> RepairController::ingestCsv(
    const std::string& objectsCsv, const std::string& sourcesCsv) {
  // Parse and validate every line before anything is installed.
  QSERV_ASSIGN_OR_RETURN(auto objectLines,
                         csvLines(objectsCsv, "object", 3, "objectId,ra,decl"));
  std::vector<datagen::ObjectRow> objects;
  objects.reserve(objectLines.size());
  for (const CsvLine& line : objectLines) {
    datagen::ObjectRow row;
    QSERV_RETURN_IF_ERROR(line.parse(0, "objectId", row.objectId));
    QSERV_RETURN_IF_ERROR(line.parse(1, "ra", row.ra));
    QSERV_RETURN_IF_ERROR(line.parse(2, "decl", row.decl));
    QSERV_RETURN_IF_ERROR(line.checkPosition(row.ra, row.decl));
    QSERV_RETURN_IF_ERROR(line.parseIfPresent(3, "uRadius", row.uRadius));
    for (std::size_t f = 0; f < 6; ++f) {
      QSERV_RETURN_IF_ERROR(line.parseIfPresent(4 + f, "flux", row.flux[f]));
    }
    QSERV_RETURN_IF_ERROR(line.parseIfPresent(10, "uFluxSg", row.uFluxSg));
    objects.push_back(row);
  }
  QSERV_ASSIGN_OR_RETURN(
      auto sourceLines,
      csvLines(sourcesCsv, "source", 4, "sourceId,objectId,ra,decl"));
  std::vector<datagen::SourceRow> sources;
  sources.reserve(sourceLines.size());
  for (const CsvLine& line : sourceLines) {
    datagen::SourceRow row;
    QSERV_RETURN_IF_ERROR(line.parse(0, "sourceId", row.sourceId));
    QSERV_RETURN_IF_ERROR(line.parse(1, "objectId", row.objectId));
    QSERV_RETURN_IF_ERROR(line.parse(2, "ra", row.ra));
    QSERV_RETURN_IF_ERROR(line.parse(3, "decl", row.decl));
    QSERV_RETURN_IF_ERROR(line.checkPosition(row.ra, row.decl));
    QSERV_RETURN_IF_ERROR(line.parseIfPresent(4, "psfFlux", row.psfFlux));
    QSERV_RETURN_IF_ERROR(
        line.parseIfPresent(5, "psfFluxErr", row.psfFluxErr));
    QSERV_RETURN_IF_ERROR(
        line.parseIfPresent(6, "taiMidPoint", row.taiMidPoint));
    sources.push_back(row);
  }
  if (objects.empty()) {
    return Status::invalidArgument("object CSV holds no data rows");
  }
  sphgeom::Chunker chunker = catalog_.makeChunker();
  QSERV_ASSIGN_OR_RETURN(datagen::PartitionedCatalog partitioned,
                         datagen::partitionCatalog(chunker, objects, sources));
  QSERV_RETURN_IF_ERROR(ingest(partitioned));
  return partitioned.chunks.size();
}

std::vector<RepairController::WorkerStatus> RepairController::status() const {
  auto placement = redirector_->placementSnapshot();
  std::map<std::string, std::size_t> replicaCounts;
  for (const auto& [chunk, ids] : placement) {
    for (const std::string& id : ids) ++replicaCounts[id];
  }
  std::vector<WorkerStatus> out;
  for (const std::string& id : redirector_->serverIds()) {
    WorkerStatus ws;
    ws.id = id;
    ws.chunks = replicaCounts[id];
    {
      std::lock_guard lock(stateMutex_);
      auto it = states_.find(id);
      if (it != states_.end()) {
        ws.health = it->second.health;
        ws.failStreak = it->second.failStreak;
        ws.okStreak = it->second.okStreak;
        ws.queueDepth = it->second.queueDepth;
      }
    }
    out.push_back(std::move(ws));
  }
  return out;
}

std::string RepairController::statusText() const {
  std::string out = util::format(
      "repair controller: %s, target %dx, budget %d\n",
      running() ? "monitoring" : "idle", config_.replicationTarget,
      config_.transferBudget);
  for (const WorkerStatus& ws : status()) {
    out += util::format("  %-8s %-8s chunks=%-6zu queue=%-4zu fail=%d ok=%d\n",
                        ws.id.c_str(), healthName(ws.health), ws.chunks,
                        ws.queueDepth, ws.failStreak, ws.okStreak);
  }
  auto deficit = underReplicatedChunks();
  out += util::format("  under-replicated chunks: %zu\n", deficit.size());
  return out;
}

util::TracePtr RepairController::lastTrace() const {
  std::lock_guard lock(stateMutex_);
  return lastTrace_;
}

}  // namespace qserv::core
