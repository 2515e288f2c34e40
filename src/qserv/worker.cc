#include "qserv/worker.h"

#include <algorithm>
#include <cmath>

#include "datagen/partitioner.h"
#include "qserv/batch_codec.h"
#include "qserv/dump_integrity.h"
#include "qserv/observables_codec.h"
#include "sql/dump.h"
#include "sql/executor.h"
#include "sql/rowcodec.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/trace.h"
#include "xrd/paths.h"

namespace qserv::core {

using util::Result;
using util::Status;

namespace {
/// Process-wide worker instruments (all in-process workers share them, the
/// way one mysqld's counters aggregate over its connections).
struct WorkerMetrics {
  util::Counter& tasksEnqueued;
  util::Counter& tasksExecuted;
  util::Counter& taskFailures;
  util::Counter& batchesReceived;
  util::Counter& batchChunksSkipped;
  util::Counter& chunksInstalled;
  util::Counter& chunksDropped;
  util::Counter& snapshotsServed;
  util::Counter& subchunkBuilds;
  util::Counter& subchunkDrops;
  util::Counter& vectorizedScans;
  util::Counter& vectorRowsIn;
  util::Counter& vectorRowsOut;
  util::Counter& zoneMapPrunes;
  util::Counter& zoneMapRowsSkipped;
  util::Counter& columnarAggregates;
  util::Counter& columnarAggRows;
  util::Counter& spatialJoins;
  util::Counter& zoneJoinPairsPruned;
  util::Counter& zoneJoinCandidates;
  util::Gauge& queueDepth;
  util::Gauge& busySlots;
  util::Histogram& queueWaitSeconds;
  util::Histogram& interactiveQueueWaitSeconds;
  util::Histogram& scanQueueWaitSeconds;
  util::Histogram& executeSeconds;
  util::Histogram& subchunkBuildSeconds;
  util::Histogram& subchunkDropSeconds;

  static WorkerMetrics& instance() {
    auto& reg = util::MetricsRegistry::instance();
    static WorkerMetrics* m = new WorkerMetrics{
        reg.counter("worker.tasks_enqueued"),
        reg.counter("worker.tasks_executed"),
        reg.counter("worker.task_failures"),
        reg.counter("worker.batches_received"),
        reg.counter("worker.batch_chunks_skipped"),
        reg.counter("worker.chunks_installed"),
        reg.counter("worker.chunks_dropped"),
        reg.counter("worker.snapshots_served"),
        reg.counter("worker.subchunk_builds"),
        reg.counter("worker.subchunk_drops"),
        reg.counter("worker.vectorized_scans"),
        reg.counter("worker.vector_rows_in"),
        reg.counter("worker.vector_rows_out"),
        reg.counter("worker.zone_map_prunes"),
        reg.counter("worker.zone_map_rows_skipped"),
        reg.counter("worker.columnar_aggregates"),
        reg.counter("worker.columnar_agg_rows"),
        reg.counter("worker.spatial_joins"),
        reg.counter("worker.zone_join_pairs_pruned"),
        reg.counter("worker.zone_join_candidates"),
        reg.gauge("worker.queue_depth"),
        reg.gauge("worker.busy_slots"),
        reg.histogram("worker.queue_wait_seconds"),
        reg.histogram("worker.interactive_queue_wait_seconds"),
        reg.histogram("worker.scan_queue_wait_seconds"),
        reg.histogram("worker.execute_seconds"),
        reg.histogram("worker.subchunk_build_seconds"),
        reg.histogram("worker.subchunk_drop_seconds"),
    };
    return *m;
  }
};

/// The scheduler's rate-tier key for a batch's tasks: the first 64 bits of
/// its id. Batch ids are unique per dispatch run and worker, so the key
/// tells one query's tasks on this worker from every other query's.
std::uint64_t batchRateKey(const std::string& batchId) {
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < 16 && i < batchId.size(); ++i) {
    char c = batchId[i];
    int digit = c >= '0' && c <= '9' ? c - '0' : c - 'a' + 10;
    key = key << 4 | static_cast<std::uint64_t>(digit & 0xf);
  }
  return key;
}
}  // namespace

Worker::Worker(std::string id, std::shared_ptr<sql::Database> database,
               const CatalogConfig& catalog,
               std::vector<std::int32_t> exportedChunks, WorkerConfig config)
    : id_(std::move(id)),
      db_(std::move(database)),
      queueWaitHist_(util::MetricsRegistry::instance().histogram(
          util::format("worker.%s.queue_wait_seconds", id_.c_str()))),
      queueDepthGauge_(util::MetricsRegistry::instance().gauge(
          util::format("worker.%s.queue_depth", id_.c_str()))),
      convoyRatioHist_(util::MetricsRegistry::instance().histogram(
          util::format("worker.%s.convoy_ratio", id_.c_str()))),
      catalog_(catalog),
      chunker_(catalog.makeChunker()),
      exportedChunks_(std::move(exportedChunks)),
      config_(config),
      sched_(id_, ScanSchedulerConfig{config.scheduler,
                                      config.scanMemoryBudgetBytes,
                                      config.slowScanFactor,
                                      config.startPaused}) {
  std::sort(exportedChunks_.begin(), exportedChunks_.end());
  int slots = std::max(1, config_.slots);
  executors_.reserve(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i) {
    executors_.emplace_back([this] { executorLoop(); });
  }
}

Worker::~Worker() { shutdown(); }

void Worker::resume() { sched_.resume(); }

void Worker::shutdown() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  sched_.shutdown();
  for (auto& t : executors_) {
    if (t.joinable()) t.join();
  }
  results_.abortAll();
}

std::vector<std::int32_t> Worker::exportedChunks() const {
  std::lock_guard lock(exportsMutex_);
  return exportedChunks_;
}

bool Worker::exportsChunk(std::int32_t chunkId) const {
  std::lock_guard lock(exportsMutex_);
  return std::binary_search(exportedChunks_.begin(), exportedChunks_.end(),
                            chunkId);
}

void Worker::addExport(std::int32_t chunkId) {
  std::lock_guard lock(exportsMutex_);
  auto it = std::lower_bound(exportedChunks_.begin(), exportedChunks_.end(),
                             chunkId);
  if (it == exportedChunks_.end() || *it != chunkId) {
    exportedChunks_.insert(it, chunkId);
  }
}

void Worker::removeExport(std::int32_t chunkId) {
  std::lock_guard lock(exportsMutex_);
  auto it = std::lower_bound(exportedChunks_.begin(), exportedChunks_.end(),
                             chunkId);
  if (it != exportedChunks_.end() && *it == chunkId) {
    exportedChunks_.erase(it);
  }
}

Status Worker::writeFile(const std::string& path, std::string payload) {
  if (auto batchId = xrd::parseBatchPath(path)) {
    return enqueueBatch(*batchId, std::move(payload));
  }
  if (auto batchId = xrd::parseBatchCancelPath(path)) {
    abandonBatch(*batchId);
    return Status::ok();
  }
  if (auto loadId = xrd::parseChunkLoadPath(path)) {
    return installChunk(*loadId, payload);
  }
  if (auto dropId = xrd::parseChunkDropPath(path)) {
    return dropChunk(*dropId);
  }
  return Status::invalidArgument(
      "worker only accepts /batch, /bcancel, /chunkload and /chunkdrop "
      "writes: " +
      path);
}

double Worker::chunkMemoryBytes(std::int32_t chunkId) const {
  double bytes = 0.0;
  for (const auto& table : catalog_.tables) {
    for (const std::string& name :
         {datagen::chunkTableName(table.name, chunkId),
          datagen::overlapTableName(table.name, chunkId)}) {
      if (sql::TablePtr t = db_->findTable(name)) {
        bytes += static_cast<double>(t->numRows()) * table.paperRowBytes *
                 config_.rowScale;
      }
    }
  }
  return bytes;
}

Status Worker::enqueueBatch(const std::string& batchId, std::string payload) {
  auto request = decodeBatchRequest(payload);
  if (!request.isOk()) return request.status();
  if (request->chunks.empty()) {
    // No task would ever finish, and so unregister, an empty batch.
    return Status::invalidArgument("batch " + batchId + " has no chunks");
  }
  for (const ChunkQuerySpec& chunk : request->chunks) {
    if (!exportsChunk(chunk.chunkId)) {
      // Reject the whole batch: the master's placement was stale, and it
      // re-locates each chunk and retries it as a batch of one.
      return Status::notFound(util::format(
          "worker %s does not export chunk %d (batch %s)", id_.c_str(),
          chunk.chunkId, batchId.c_str()));
    }
  }
  auto stream = std::make_shared<BatchStream>();
  stream->id = batchId;
  stream->streamPath = xrd::makeBatchStreamPath(batchId);
  stream->window = request->streamWindow;
  stream->remaining.store(static_cast<int>(request->chunks.size()),
                          std::memory_order_release);
  // One parse per batch; the tasks bind their chunks into copies of its
  // FROM list. A parse failure answers every chunk with an error frame.
  stream->plan = ChunkPlan::parse(request->query);
  stream->aggregate = request->query.aggregate;
  stream->traced = request->traceId != 0;
  stream->resultName = "r_" + request->templateHash;
  const QueryClass cls = request->query.queryClass;
  const std::uint64_t rateKey = batchRateKey(batchId);
  std::int64_t nowUs = util::Trace::nowUs();
  std::vector<ScanTask> tasks;
  tasks.reserve(request->chunks.size());
  for (ChunkQuerySpec& chunk : request->chunks) {
    ScanTask task;
    task.chunkId = chunk.chunkId;
    task.subChunkIds = std::move(chunk.subChunkIds);
    task.queryId = rateKey;
    task.enqueuedUs = nowUs;
    task.cls = cls;
    if (config_.scheduler == SchedulerMode::kSharedScan &&
        cls == QueryClass::kScan) {
      task.memoryBytes = chunkMemoryBytes(chunk.chunkId);
    }
    task.batch = stream;
    tasks.push_back(std::move(task));
  }
  const std::size_t count = tasks.size();
  auto& metrics = WorkerMetrics::instance();
  {
    std::lock_guard lock(batchMutex_);
    batches_[batchId] = stream;
  }
  if (!sched_.enqueueAll(std::move(tasks))) {
    std::lock_guard lock(batchMutex_);
    batches_.erase(batchId);
    return Status::unavailable("worker " + id_ + " is shutting down");
  }
  metrics.queueDepth.add(static_cast<std::int64_t>(count));
  queueDepthGauge_.set(static_cast<std::int64_t>(sched_.depth()));
  metrics.tasksEnqueued.add(count);
  metrics.batchesReceived.add();
  return Status::ok();
}

void Worker::abandonBatch(const std::string& batchId) {
  std::shared_ptr<BatchStream> stream;
  {
    std::lock_guard lock(batchMutex_);
    auto it = batches_.find(batchId);
    if (it != batches_.end()) stream = it->second;
  }
  if (stream) stream->abandoned.store(true, std::memory_order_release);
  // Drop unread frames even when the batch already finished and
  // unregistered — the master will not read them.
  results_.remove(xrd::makeBatchStreamPath(batchId));
}

void Worker::publishBatchFrame(const ScanTask& task, std::string frame) {
  BatchStream& stream = *task.batch;
  if (stream.window > 0) {
    // Backpressure: keep at most `window` unread frames on the stream. Poll
    // in short slices so abandonment and shutdown break the wait; after the
    // result timeout publish anyway — never block an executor slot forever.
    util::Stopwatch waited;
    auto timeoutSec =
        std::chrono::duration<double>(config_.resultTimeout).count();
    while (!stream.abandoned.load(std::memory_order_acquire) &&
           !stopping_.load(std::memory_order_acquire) &&
           waited.elapsedSeconds() < timeoutSec &&
           !results_.awaitDrain(stream.streamPath,
                                static_cast<std::size_t>(stream.window),
                                std::chrono::milliseconds(50))) {
    }
  }
  if (!stream.abandoned.load(std::memory_order_acquire)) {
    results_.publish(stream.streamPath, std::move(frame));
  }
}

void Worker::finishBatchChunk(const std::shared_ptr<BatchStream>& stream) {
  if (stream->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  {
    std::lock_guard lock(batchMutex_);
    auto it = batches_.find(stream->id);
    if (it != batches_.end() && it->second == stream) batches_.erase(it);
  }
  if (stream->abandoned.load(std::memory_order_acquire)) {
    results_.remove(stream->streamPath);
  }
}

Result<std::string> Worker::readFile(const std::string& path) {
  return readFile(path, util::Deadline::unlimited());
}

Result<std::string> Worker::readFile(const std::string& path,
                                     const util::Deadline& deadline) {
  if (path == xrd::kPingPath) return pingPayload();
  if (auto chunkId = xrd::parseChunkPath(path)) {
    return snapshotChunk(*chunkId);
  }
  if (!xrd::parseBatchStreamPath(path)) {
    return Status::invalidArgument(
        "worker only serves /ping, /chunk and /bstream reads: " + path);
  }
  // waitFor consumes the frame: results are one-shot, like Qserv's cleanup
  // of delivered result files. The wait is bounded by both the worker's own
  // timeout and the caller's per-query deadline.
  auto timeout = config_.resultTimeout;
  if (deadline.isLimited()) {
    auto budget = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline.remaining());
    timeout = std::min(timeout, std::max(budget,
                                         std::chrono::milliseconds(1)));
  }
  return results_.waitFor(path, timeout);
}

std::string Worker::pingPayload() const {
  std::size_t chunks;
  {
    std::lock_guard lock(exportsMutex_);
    chunks = exportedChunks_.size();
  }
  return util::format("pong id=%s queue=%zu chunks=%zu\n", id_.c_str(),
                      queuedTasks(), chunks);
}

Result<std::string> Worker::snapshotChunk(std::int32_t chunkId) const {
  if (!exportsChunk(chunkId)) {
    return Status::notFound(util::format("worker %s does not export chunk %d",
                                         id_.c_str(), chunkId));
  }
  // One replayable script covering every table of the chunk (chunk table +
  // overlap companion per catalog table), sealed with the same -- QSERV-MD5
  // trailer result dumps carry so the copy destination verifies integrity
  // before replaying a single statement.
  std::string script = util::format("-- qserv-chunk v1 %d\n", chunkId);
  bool any = false;
  for (const auto& table : catalog_.tables) {
    std::string chunkTable = datagen::chunkTableName(table.name, chunkId);
    if (sql::TablePtr t = db_->findTable(chunkTable)) {
      script += sql::dumpTable(*t, chunkTable);
      any = true;
    }
    std::string overlapTable = datagen::overlapTableName(table.name, chunkId);
    if (sql::TablePtr t = db_->findTable(overlapTable)) {
      script += sql::dumpTable(*t, overlapTable);
    }
  }
  if (!any) {
    return Status::internal(util::format(
        "worker %s exports chunk %d but holds none of its tables",
        id_.c_str(), chunkId));
  }
  appendDumpChecksum(script);
  WorkerMetrics::instance().snapshotsServed.add();
  return script;
}

Status Worker::installChunk(std::int32_t chunkId,
                            const std::string& snapshot) {
  QSERV_RETURN_IF_ERROR(verifyDumpChecksum(snapshot));
  if (sched_.isShuttingDown()) {
    return Status::unavailable("worker " + id_ + " is shutting down");
  }
  // Replay the dump into a staging database: parsing and loading a
  // multi-thousand-row script under db_'s exclusive lock would stall every
  // concurrent chunk query on this worker for the whole replay. Staging
  // keeps db_'s lock hold to the per-table snapshot swaps below.
  sql::Database staging(id_ + "-chunkload");
  auto replayed = staging.executeScript(snapshot);
  if (!replayed.isOk()) return replayed.status();
  for (const auto& name : staging.tableNames()) {
    QSERV_RETURN_IF_ERROR(db_->replaceTable(staging.findTable(name)));
  }
  // Index the loaded tables exactly as initial placement does: the chunk
  // table by its id column (paper §5.5) and by subChunkId (on-the-fly
  // subchunk builds probe it instead of scanning the chunk).
  for (const auto& table : catalog_.tables) {
    std::string chunkTable = datagen::chunkTableName(table.name, chunkId);
    sql::TablePtr t = db_->findTable(chunkTable);
    if (!t) continue;
    std::string idColumn =
        table.idColumn.empty() ? "objectId" : table.idColumn;
    if (t->schema().indexOf(idColumn)) {
      QSERV_RETURN_IF_ERROR(db_->createIndex(chunkTable, idColumn));
    }
    if (t->schema().indexOf("subChunkId")) {
      QSERV_RETURN_IF_ERROR(db_->createIndex(chunkTable, "subChunkId"));
    }
  }
  addExport(chunkId);
  WorkerMetrics::instance().chunksInstalled.add();
  QLOG(kInfo, "worker") << id_ << " installed chunk " << chunkId;
  return Status::ok();
}

Status Worker::dropChunk(std::int32_t chunkId) {
  // Stop exporting first: new chunk queries for this chunk are refused
  // (and re-located by the dispatcher) before any table disappears.
  removeExport(chunkId);
  bool dropped = false;
  for (const auto& table : catalog_.tables) {
    std::string chunkTable = datagen::chunkTableName(table.name, chunkId);
    if (db_->hasTable(chunkTable)) {
      QSERV_RETURN_IF_ERROR(db_->dropTable(chunkTable, /*ifExists=*/true));
      dropped = true;
    }
    std::string overlapTable = datagen::overlapTableName(table.name, chunkId);
    QSERV_RETURN_IF_ERROR(db_->dropTable(overlapTable, /*ifExists=*/true));
  }
  if (dropped) {
    WorkerMetrics::instance().chunksDropped.add();
    QLOG(kInfo, "worker") << id_ << " dropped chunk " << chunkId;
  }
  return Status::ok();
}

std::size_t Worker::queuedTasks() const { return sched_.depth(); }

void Worker::executorLoop() {
  while (true) {
    ScanScheduler::Claim claim = sched_.claim();
    if (claim.tasks.empty()) return;  // shutdown and drained
    double maxWaitSec = 0.0;
    // In a shared-scan group only the first task that actually reads chunk
    // bytes pays the read; the others ride along on the same in-memory pass
    // (§4.3). Charging "the first task" by index would lose the charge
    // whenever the group leader is skipped as abandoned or zone-pruned.
    bool ioCharged = false;
    util::Stopwatch serviceWatch;
    std::int64_t claimedUs = util::Trace::nowUs();
    for (const ScanTask& task : claim.tasks) {
      runClaimedTask(task, claimedUs, ioCharged, maxWaitSec);
    }
    if (claim.passId != 0) {
      // Scans that arrived while this pass was in flight joined the group;
      // drain them until the pass closes (an empty drain closes it).
      for (;;) {
        std::vector<ScanTask> joined = sched_.takeJoined(claim.passId);
        if (joined.empty()) break;
        std::int64_t joinClaimUs = util::Trace::nowUs();
        for (const ScanTask& task : joined) {
          runClaimedTask(task, joinClaimUs, ioCharged, maxWaitSec);
        }
      }
    }
    // Convoy indicator: how long the batch's unluckiest task waited relative
    // to the service time it then received.
    double serviceSec = serviceWatch.elapsedSeconds();
    if (serviceSec > 0.0) convoyRatioHist_.observe(maxWaitSec / serviceSec);
  }
}

void Worker::runClaimedTask(const ScanTask& task, std::int64_t claimedUs,
                            bool& ioCharged, double& maxWaitSec) {
  auto& metrics = WorkerMetrics::instance();
  double waitSec = static_cast<double>(claimedUs - task.enqueuedUs) * 1e-6;
  metrics.queueWaitSeconds.observe(waitSec);
  (task.cls == QueryClass::kInteractive ? metrics.interactiveQueueWaitSeconds
                                        : metrics.scanQueueWaitSeconds)
      .observe(waitSec);
  queueWaitHist_.observe(waitSec);
  maxWaitSec = std::max(maxWaitSec, waitSec);
  metrics.busySlots.add(1);
  util::Stopwatch taskWatch;
  TaskOutcome outcome =
      executeTask(task, claimedUs, /*chargeScanIo=*/!ioCharged);
  // The charge sticks only when the task actually read chunk bytes: a
  // zone-map-pruned task touches no table data, so the pass's physical read
  // is still unpaid and falls to the next task that really scans.
  if (outcome.paidScanIo) ioCharged = true;
  // The task's work is done: lower the gauges before its frame becomes
  // visible, so a czar that has read its last frame never sees this slot
  // busy or this task queued.
  metrics.queueDepth.add(-1);
  metrics.busySlots.add(-1);
  if (!outcome.frame.empty()) publishBatchFrame(task, std::move(outcome.frame));
  finishBatchChunk(task.batch);
  sched_.finishTask(task, taskWatch.elapsedSeconds(), outcome.executed);
  queueDepthGauge_.set(static_cast<std::int64_t>(sched_.depth()));
}

double Worker::rowBytesFor(const std::string& tableName) const {
  for (const auto& t : catalog_.tables) {
    if (tableName == t.name || util::startsWith(tableName, t.name + "_") ||
        util::startsWith(tableName, t.name + "Overlap_") ||
        util::startsWith(tableName, t.name + "FullOverlap_")) {
      return t.paperRowBytes;
    }
  }
  return 256.0;  // unknown tables: a modest default width
}

Result<sql::ExecStats> Worker::acquireSubchunks(
    std::int32_t chunkId, const std::vector<std::int32_t>& subChunks) {
  sql::ExecStats buildStats;
  if (subChunks.empty()) return buildStats;
  for (const auto& table : catalog_.tables) {
    if (!table.hasOverlap) continue;
    std::string chunkTable = datagen::chunkTableName(table.name, chunkId);
    if (!db_->hasTable(chunkTable)) continue;
    std::string overlapTable = datagen::overlapTableName(table.name, chunkId);

    for (std::int32_t sc : subChunks) {
      std::string key = datagen::subChunkTableName(table.name, chunkId, sc);
      // Refcounted build: exactly one task builds; others wait, then share.
      {
        std::unique_lock lock(subchunkMutex_);
        SubchunkState& state = subchunks_[key];
        subchunkCv_.wait(lock, [&] { return !state.building; });
        if (state.built) {
          ++state.refs;
          continue;
        }
        state.building = true;
      }

      // Build outside the lock.
      std::string fullOverlap = datagen::subChunkTableName(
          table.name + "FullOverlap", chunkId, sc);
      sphgeom::SphericalBox dilated =
          chunker_.subChunkBox(chunkId, sc).dilated(chunker_.overlapDeg());
      std::string boxArgs = util::format(
          "%.17g, %.17g, %.17g, %.17g", dilated.lonMin(), dilated.latMin(),
          dilated.isFullLon() ? 360.0 : dilated.lonMax(), dilated.latMax());
      // Neighboring subchunks that can contribute overlap rows; served by
      // the subChunkId index rather than a chunk scan.
      std::vector<std::string> neighborIds;
      for (std::int32_t n : chunker_.subChunksIntersecting(chunkId, dilated)) {
        if (n != sc) neighborIds.push_back(std::to_string(n));
      }
      std::string script =
          util::format("CREATE TABLE %s AS SELECT * FROM %s WHERE "
                       "subChunkId = %d;\n",
                       key.c_str(), chunkTable.c_str(), sc);
      script += util::format("CREATE TABLE %s AS SELECT * FROM %s;\n",
                             fullOverlap.c_str(), key.c_str());
      if (!neighborIds.empty()) {
        script += util::format(
            "INSERT INTO %s SELECT * FROM %s WHERE subChunkId IN (%s) AND "
            "qserv_ptInSphericalBox(%s, %s, %s) = 1;\n",
            fullOverlap.c_str(), chunkTable.c_str(),
            util::join(neighborIds, ", ").c_str(), table.raColumn.c_str(),
            table.declColumn.c_str(), boxArgs.c_str());
      }
      if (db_->hasTable(overlapTable)) {
        script += util::format(
            "INSERT INTO %s SELECT * FROM %s WHERE "
            "qserv_ptInSphericalBox(%s, %s, %s) = 1;\n",
            fullOverlap.c_str(), overlapTable.c_str(), table.raColumn.c_str(),
            table.declColumn.c_str(), boxArgs.c_str());
      }
      auto built = db_->executeScript(script, &buildStats);

      {
        std::lock_guard lock(subchunkMutex_);
        SubchunkState& state = subchunks_[key];
        state.building = false;
        if (built.isOk()) {
          state.built = true;
          ++state.refs;
          WorkerMetrics::instance().subchunkBuilds.add();
        } else {
          subchunks_.erase(key);
        }
      }
      subchunkCv_.notify_all();
      if (!built.isOk()) return built.status();
    }
  }
  return buildStats;
}

void Worker::releaseSubchunks(std::int32_t chunkId,
                              const std::vector<std::int32_t>& subChunks) {
  if (subChunks.empty()) return;
  for (const auto& table : catalog_.tables) {
    if (!table.hasOverlap) continue;
    if (!db_->hasTable(datagen::chunkTableName(table.name, chunkId))) continue;
    for (std::int32_t sc : subChunks) {
      std::string key = datagen::subChunkTableName(table.name, chunkId, sc);
      bool drop = false;
      {
        std::lock_guard lock(subchunkMutex_);
        auto it = subchunks_.find(key);
        if (it == subchunks_.end()) continue;
        if (--it->second.refs == 0 && !config_.cacheSubchunks) {
          drop = true;
          subchunks_.erase(it);
        }
      }
      if (drop) {
        (void)db_->execute("DROP TABLE IF EXISTS " + key);
        (void)db_->execute(
            "DROP TABLE IF EXISTS " +
            datagen::subChunkTableName(table.name + "FullOverlap", chunkId, sc));
        WorkerMetrics::instance().subchunkDrops.add();
      }
    }
  }
}

Result<sql::TablePtr> Worker::executePlan(const ChunkPlan& plan,
                                          const ScanTask& task,
                                          sql::ExecStats& stats) {
  std::vector<sql::TableRef> from = plan.stmt().from;
  if (!plan.perSubChunk()) {
    plan.bind(task.chunkId, 0, from);
    return sql::executeSelect(*db_, plan.stmt(), from, stats);
  }
  // One execution per subchunk, unioned (paper §5.4's per-subchunk
  // statements, bound from one parse).
  sql::TablePtr combined;
  for (std::int32_t sc : task.subChunkIds) {
    plan.bind(task.chunkId, sc, from);
    QSERV_ASSIGN_OR_RETURN(sql::TablePtr part,
                           sql::executeSelect(*db_, plan.stmt(), from, stats));
    if (!combined) {
      combined = std::move(part);
    } else {
      QSERV_RETURN_IF_ERROR(combined->appendFrom(*part));
    }
  }
  return combined;
}

Worker::TaskOutcome Worker::executeTask(const ScanTask& task,
                                        std::int64_t claimedUs,
                                        bool chargeScanIo) {
  auto& metrics = WorkerMetrics::instance();
  if (task.batch->abandoned.load(std::memory_order_acquire)) {
    // The master abandoned the batch; don't waste the slot executing.
    metrics.batchChunksSkipped.add();
    return {};
  }
  // A traced batch's chunks report their timings in-band (worker block).
  const bool traced = task.batch->traced;
  WorkerTimings timings;
  if (traced) {
    timings.threadId = util::threadId();
    timings.arrivedUs = task.enqueuedUs;
    timings.claimedUs = claimedUs;
    timings.execStartUs = util::Trace::nowUs();
  }
  util::Stopwatch execWatch;
  // A failing chunk answers with an error frame; the worker keeps serving.
  auto fail = [&](const Status& status) {
    metrics.taskFailures.add();
    return TaskOutcome{false, false, encodeErrorFrame(task.chunkId, status)};
  };
  if (!task.batch->plan.isOk()) return fail(task.batch->plan.status());
  const ChunkPlan& plan = *task.batch->plan;
  const std::vector<std::int32_t>& subChunks = task.subChunkIds;
  if (plan.perSubChunk() && subChunks.empty()) {
    return fail(Status::invalidArgument(util::format(
        "chunk %d: a per-subchunk template needs a subchunk list",
        task.chunkId)));
  }

  util::Stopwatch buildWatch;
  util::Result<sql::ExecStats> buildStats =
      acquireSubchunks(task.chunkId, subChunks);
  if (!subChunks.empty()) {
    metrics.subchunkBuildSeconds.observe(buildWatch.elapsedSeconds());
  }
  if (traced) timings.buildEndUs = util::Trace::nowUs();
  if (!buildStats.isOk()) return fail(buildStats.status());

  sql::ExecStats stats;
  auto result = executePlan(plan, task, stats);
  {
    util::Stopwatch dropWatch;
    releaseSubchunks(task.chunkId, subChunks);
    if (!subChunks.empty()) {
      metrics.subchunkDropSeconds.observe(dropWatch.elapsedSeconds());
    }
  }
  if (!result.isOk()) {
    QLOG(kWarn, "worker") << id_ << " chunk " << task.chunkId
                          << " failed: " << result.status().toString();
    return fail(result.status());
  }

  const std::string& resultName = task.batch->resultName;
  std::string dump = sql::encodeTableBinary(**result, resultName);

  // Work observables at paper scale (see WorkerConfig::rowScale).
  simio::WorkObservables obs;
  const double scale = config_.rowScale;
  stats.add(buildStats.value());
  if (chargeScanIo) {
    for (const auto& [tableName, rows] : stats.rowsScannedByTable) {
      obs.bytesScanned +=
          static_cast<double>(rows) * rowBytesFor(tableName) * scale;
    }
  }
  obs.rowsExamined = static_cast<std::uint64_t>(
      static_cast<double>(stats.rowsScanned) * scale);
  // Nested-loop pair counts grow with the square of row density;
  // equi-join match counts grow linearly (each source matches one object).
  obs.pairsEvaluated = static_cast<std::uint64_t>(
      static_cast<double>(stats.pairsEvaluated) * scale * scale);
  obs.joinMatches = static_cast<std::uint64_t>(
      static_cast<double>(stats.joinMatches) * scale);
  obs.rowsBuilt = static_cast<std::uint64_t>(
      static_cast<double>(stats.rowsInserted) * scale);
  obs.indexLookups = stats.indexLookups;
  // Row-returning queries produce density-proportional results (scaled to
  // paper size); aggregate partials are scale-independent. The cost model
  // prices the paper's mysqldump transfer (§5.4), so resultBytes is the size
  // of the dump this result would have been. Only its INSERT payload scales;
  // the envelope (header, DROP, CREATE) is fixed.
  const double resultScale = task.batch->aggregate ? 1.0 : scale;
  obs.resultRows = static_cast<std::uint64_t>(
      static_cast<double>((*result)->numRows()) * resultScale);
  const sql::DumpSize dumped = sql::dumpedBytes(**result, resultName);
  obs.resultBytes = static_cast<double>(dumped.envelope) +
                    static_cast<double>(dumped.rows) * resultScale;

  dump += encodeObservables(obs);
  // Vectorized-scan / columnar-aggregate / zone-map observability (counters
  // are unscaled local work; see README "Metrics" for the registry names).
  if (stats.vectorizedScans > 0) {
    metrics.vectorizedScans.add(stats.vectorizedScans);
    metrics.vectorRowsIn.add(stats.vectorRowsIn);
    metrics.vectorRowsOut.add(stats.vectorRowsOut);
  }
  if (stats.columnarAggregates > 0) {
    metrics.columnarAggregates.add(stats.columnarAggregates);
    metrics.columnarAggRows.add(stats.columnarAggRows);
  }
  if (stats.zoneMapPrunes > 0) {
    metrics.zoneMapPrunes.add(stats.zoneMapPrunes);
    metrics.zoneMapRowsSkipped.add(stats.zoneMapRowsSkipped);
  }
  if (stats.spatialJoins > 0) {
    metrics.spatialJoins.add(stats.spatialJoins);
    metrics.zoneJoinPairsPruned.add(stats.zoneJoinPairsPruned);
    metrics.zoneJoinCandidates.add(stats.zoneJoinCandidates);
  }
  if (traced) {
    timings.resultRows = (*result)->numRows();
    timings.subchunks = subChunks.size();
    util::ExecCounters& c = timings.counters;
    c.vectorizedScans = stats.vectorizedScans;
    c.vectorRowsIn = stats.vectorRowsIn;
    c.vectorRowsOut = stats.vectorRowsOut;
    c.columnarAggregates = stats.columnarAggregates;
    c.columnarAggRows = stats.columnarAggRows;
    c.zoneMapPrunes = stats.zoneMapPrunes;
    c.zoneMapRowsSkipped = stats.zoneMapRowsSkipped;
    c.spatialJoins = stats.spatialJoins;
    c.zoneJoinZonesBuilt = stats.zoneJoinZonesBuilt;
    c.zoneJoinZonesProbed = stats.zoneJoinZonesProbed;
    c.zoneJoinCandidates = stats.zoneJoinCandidates;
    c.zoneJoinPairsPruned = stats.zoneJoinPairsPruned;
    timings.execEndUs = util::Trace::nowUs();
    appendWorkerBlock(dump, timings);
  }
  // Integrity envelope: MD5 of everything above, verified by the dispatcher
  // on read so corruption in transit is retried, not merged.
  appendDumpChecksum(dump);
  tasksExecuted_.fetch_add(1, std::memory_order_relaxed);
  metrics.tasksExecuted.add();
  metrics.executeSeconds.observe(execWatch.elapsedSeconds());
  return TaskOutcome{true, obs.bytesScanned > 0,
                     encodeResultFrame(task.chunkId, dump)};
}

}  // namespace qserv::core
