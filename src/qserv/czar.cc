#include "qserv/czar.h"

#include <algorithm>
#include <mutex>

#include "qserv/explain.h"
#include "qserv/merger.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace qserv::core {

using util::Result;
using util::Status;

namespace {
struct CzarMetrics {
  util::Counter& queries;
  util::Counter& queriesFailed;
  util::Counter& chunksDispatched;
  util::Gauge& inflight;
  util::Histogram& querySeconds;

  static CzarMetrics& instance() {
    auto& reg = util::MetricsRegistry::instance();
    static CzarMetrics* m = new CzarMetrics{
        reg.counter("czar.queries"),
        reg.counter("czar.queries_failed"),
        reg.counter("czar.chunks_dispatched"),
        reg.gauge("czar.inflight_queries"),
        reg.histogram("czar.query_seconds"),
    };
    return *m;
  }
};

/// Schema of the frontend's per-query history table (CasJobs/QMeta-style):
/// one row per finished query, queryable via ordinary SQL.
sql::Schema queryStatsSchema() {
  using sql::ColumnType;
  return sql::Schema({{"queryId", ColumnType::kInt},
                      {"sql", ColumnType::kString},
                      {"status", ColumnType::kString},
                      {"class", ColumnType::kString},
                      {"wallSeconds", ColumnType::kDouble},
                      {"stageSeconds", ColumnType::kDouble},
                      {"chunks", ColumnType::kInt},
                      {"attempts", ColumnType::kInt},
                      {"retries", ColumnType::kInt},
                      {"faults", ColumnType::kInt},
                      {"rowsMerged", ColumnType::kInt},
                      {"resultRows", ColumnType::kInt},
                      {"bytesTransferred", ColumnType::kInt},
                      {"queueWaitP50", ColumnType::kDouble},
                      {"queueWaitMax", ColumnType::kDouble},
                      {"executeP50", ColumnType::kDouble},
                      {"executeMax", ColumnType::kDouble},
                      {"transferP50", ColumnType::kDouble},
                      {"transferMax", ColumnType::kDouble}});
}
}  // namespace

QservFrontend::QservFrontend(FrontendConfig config,
                             xrd::RedirectorPtr redirector,
                             std::vector<std::int32_t> availableChunks)
    : config_(std::move(config)),
      redirector_(std::move(redirector)),
      metadata_("qservMeta"),
      index_(metadata_),
      chunker_(config_.catalog.makeChunker()),
      dispatcher_(redirector_,
                  DispatcherConfig{config_.dispatchParallelism,
                                   config_.dispatchMaxAttempts,
                                   config_.dispatchBackoff,
                                   /*retrySeed=*/0x5eedULL,
                                   config_.dispatchStreamWindow}),
      profilingEnabled_(config_.enableProfiling) {
  std::sort(availableChunks.begin(), availableChunks.end());
  availableChunks.erase(
      std::unique(availableChunks.begin(), availableChunks.end()),
      availableChunks.end());
  availableChunks_ =
      std::make_shared<const std::vector<std::int32_t>>(
          std::move(availableChunks));
  (void)metadata_.registerTable(
      std::make_shared<sql::Table>("QueryStats", queryStatsSchema()));
}

void QservFrontend::setAvailableChunks(std::vector<std::int32_t> chunks) {
  std::sort(chunks.begin(), chunks.end());
  chunks.erase(std::unique(chunks.begin(), chunks.end()), chunks.end());
  auto snapshot =
      std::make_shared<const std::vector<std::int32_t>>(std::move(chunks));
  std::lock_guard lock(availableMutex_);
  availableChunks_ = std::move(snapshot);
}

void QservFrontend::addAvailableChunks(std::span<const std::int32_t> chunks) {
  if (chunks.empty()) return;
  std::lock_guard lock(availableMutex_);
  std::vector<std::int32_t> merged = *availableChunks_;
  merged.insert(merged.end(), chunks.begin(), chunks.end());
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  availableChunks_ =
      std::make_shared<const std::vector<std::int32_t>>(std::move(merged));
}

std::shared_ptr<const std::vector<std::int32_t>>
QservFrontend::availableChunksSnapshot() const {
  std::lock_guard lock(availableMutex_);
  return availableChunks_;
}

std::vector<std::int32_t> QservFrontend::availableChunks() const {
  return *availableChunksSnapshot();
}

std::vector<std::int32_t> QservFrontend::resolveChunks(
    const AnalyzedQuery& analyzed) {
  // One placement snapshot per query: live-placement publishes (ingest,
  // repair) swap the snapshot pointer atomically, so a query planned before
  // the publish keeps the old chunk set end to end and the next query sees
  // the new one.
  std::shared_ptr<const std::vector<std::int32_t>> available =
      availableChunksSnapshot();
  // Index opportunity first: a pinned objectId set touches only the chunks
  // the secondary index names (§5.5).
  if (!analyzed.restrictedObjectIds.empty()) {
    auto chunks = index_.chunksFor(analyzed.restrictedObjectIds);
    if (chunks.isOk()) {
      std::vector<std::int32_t> out;
      for (std::int32_t c : *chunks) {
        if (std::binary_search(available->begin(), available->end(), c)) {
          out.push_back(c);
        }
      }
      return out;
    }
  }
  // Spatial restriction: chunker cover of the region (§5.3).
  if (analyzed.areaRestriction) {
    std::vector<std::int32_t> out;
    for (std::int32_t c :
         chunker_.chunksIntersecting(*analyzed.areaRestriction)) {
      if (std::binary_search(available->begin(), available->end(), c)) {
        out.push_back(c);
      }
    }
    return out;
  }
  // Otherwise: the full (available) sky.
  return *available;
}

int QservFrontend::workerIndexOf(const std::string& workerId) {
  std::lock_guard lock(workerIndexMutex_);
  auto it = workerIndexes_.find(workerId);
  if (it != workerIndexes_.end()) return it->second;
  int idx = static_cast<int>(workerIndexes_.size());
  workerIndexes_.emplace(workerId, idx);
  return idx;
}

std::string QservFrontend::describeDispatch(
    const std::vector<ChunkQuerySpec>& specs) {
  if (specs.empty()) return {};
  std::size_t batches = 0, placed = 0, fallback = 0;
  std::size_t minChunks = 0, maxChunks = 0;
  for (const BatchPlanEntry& entry : dispatcher_.planBatches(specs)) {
    if (entry.workerId.empty()) {
      fallback += entry.chunkIds.size();
      continue;
    }
    ++batches;
    placed += entry.chunkIds.size();
    std::size_t n = entry.chunkIds.size();
    if (batches == 1 || n < minChunks) minChunks = n;
    if (n > maxChunks) maxChunks = n;
  }
  std::string desc = util::format(
      "batched (%zu chunks in %zu per-worker batches, %zu-%zu chunks/batch, "
      "stream window %d)",
      placed, batches, minChunks, maxChunks, config_.dispatchStreamWindow);
  if (fallback > 0) {
    desc += util::format("; %zu unplaced chunks go as batches of one",
                         fallback);
  }
  return desc;
}

Result<std::vector<std::int32_t>> QservFrontend::chunksFor(
    const std::string& sql) {
  QSERV_ASSIGN_OR_RETURN(AnalyzedQuery analyzed,
                         analyzeQuery(sql, config_.catalog));
  if (!analyzed.touchesPartitioned()) return std::vector<std::int32_t>{};
  return resolveChunks(analyzed);
}

std::shared_ptr<QservFrontend::LiveQuery> QservFrontend::beginQuery(
    std::uint64_t id, const std::string& sql) {
  auto live = std::make_shared<LiveQuery>();
  live->id = id;
  live->sql = sql;
  {
    std::lock_guard lock(processMutex_);
    inflight_.emplace(id, live);
  }
  CzarMetrics::instance().inflight.add(1);
  return live;
}

void QservFrontend::endQuery(const std::shared_ptr<LiveQuery>& live,
                             const Status& status) {
  QueryInfo info;
  info.id = live->id;
  info.sql = live->sql;
  info.state = status.isOk() ? "done" : "failed: " + status.toString();
  if (!status.isOk()) info.failureStatus = status.toString();
  info.chunksTotal = live->chunksTotal.load(std::memory_order_relaxed);
  info.chunksCompleted = live->chunksCompleted.load(std::memory_order_relaxed);
  info.elapsedSeconds = live->watch.elapsedSeconds();
  info.finished = true;
  {
    std::lock_guard lock(processMutex_);
    inflight_.erase(live->id);
    recent_.push_front(std::move(info));
    while (recent_.size() > config_.processListHistory) recent_.pop_back();
  }
  CzarMetrics::instance().inflight.add(-1);
}

std::vector<QservFrontend::QueryInfo> QservFrontend::processList() const {
  std::vector<QueryInfo> out;
  std::lock_guard lock(processMutex_);
  out.reserve(inflight_.size() + recent_.size());
  for (const auto& [id, live] : inflight_) {
    QueryInfo info;
    info.id = id;
    info.sql = live->sql;
    {
      std::lock_guard stateLock(live->stateMutex);
      info.state = live->state;
    }
    info.chunksTotal = live->chunksTotal.load(std::memory_order_relaxed);
    info.chunksCompleted =
        live->chunksCompleted.load(std::memory_order_relaxed);
    info.elapsedSeconds = live->watch.elapsedSeconds();
    out.push_back(std::move(info));
  }
  out.insert(out.end(), recent_.begin(), recent_.end());
  return out;
}

Result<QservFrontend::Execution> QservFrontend::query(const std::string& sql) {
  // EXPLAIN is a frontend-only statement: peel it off before the normal
  // path (workers never see it; see sql::ExplainStmt).
  if (util::startsWith(util::toLower(util::trim(sql)), "explain")) {
    QSERV_ASSIGN_OR_RETURN(sql::Statement stmt, sql::parseStatement(sql));
    if (auto* explain = std::get_if<sql::ExplainStmt>(&stmt)) {
      if (!explain->analyze) return explainOnly(*explain->select);
      // EXPLAIN ANALYZE: execute the inner SELECT with profiling forced on
      // and return the breakdown instead of the query result.
      QSERV_ASSIGN_OR_RETURN(
          Execution exec,
          runUserQuery(explain->select->toSql(), /*forceProfile=*/true));
      exec.result = exec.profile->toTable();
      return exec;
    }
    // A statement that merely starts with an EXPLAIN-like token falls
    // through to the normal path (and its normal parse error).
  }
  return runUserQuery(sql, /*forceProfile=*/false);
}

Result<QservFrontend::Execution> QservFrontend::explainOnly(
    const sql::SelectStmt& stmt) {
  QSERV_ASSIGN_OR_RETURN(AnalyzedQuery analyzed,
                         analyzeQuery(stmt, config_.catalog));
  std::vector<std::int32_t> chunks;
  RewriteResult rewrite;
  const RewriteResult* rewritePtr = nullptr;
  if (analyzed.touchesPartitioned()) {
    chunks = resolveChunks(analyzed);
    QueryRewriter rewriter(config_.catalog, chunker_);
    QSERV_ASSIGN_OR_RETURN(rewrite,
                           rewriter.rewrite(analyzed, chunks, "qm_explain"));
    rewritePtr = &rewrite;
  }
  Execution exec;
  std::string dispatchDesc =
      rewritePtr ? describeDispatch(rewrite.chunkQueries) : std::string{};
  exec.result =
      buildExplainPlan(analyzed, chunks, rewritePtr, std::move(dispatchDesc))
          .toTable();
  exec.soloTiming = simio::simulateQuery({}, config_.cost);
  return exec;
}

Result<QservFrontend::Execution> QservFrontend::runUserQuery(
    const std::string& sql, bool forceProfile) {
  auto& metrics = CzarMetrics::instance();
  metrics.queries.add();
  util::Stopwatch wall;
  const std::uint64_t id = nextQueryId_.fetch_add(1);
  // Trace only a query someone asked about, decided once: an untraced query
  // records no span on any layer, and its batches tell workers so.
  const bool profiled =
      forceProfile || profilingEnabled_.load(std::memory_order_relaxed);
  util::TracePtr trace =
      profiled ? std::make_shared<util::Trace>(id, sql) : nullptr;
  auto live = beginQuery(id, sql);

  Result<Execution> result = runQuery(sql, id, *live, trace.get());
  endQuery(live, result.status());
  double wallSeconds = wall.elapsedSeconds();
  metrics.querySeconds.observe(wallSeconds);

  if (profiled) {
    auto profile = std::make_shared<QueryProfile>(buildQueryProfile(*trace));
    profile->wallSeconds = wallSeconds;
    if (result.isOk()) {
      profile->queryClass = queryClassName(result->queryClass);
      // The merge/result tallies the czar knows directly win over the
      // span-derived ones.
      profile->rowsMerged = static_cast<std::int64_t>(result->rowsMerged);
      if (result->result) {
        profile->resultRows =
            static_cast<std::int64_t>(result->result->numRows());
      }
    } else {
      profile->status = result.status().toString();
    }
    recordProfile(profile);
    if (result.isOk()) result->profile = profile;
  }
  if (!result.isOk()) {
    metrics.queriesFailed.add();
    return result;
  }
  result->queryId = id;
  result->trace = std::move(trace);
  result->wallSeconds = wallSeconds;
  return result;
}

void QservFrontend::recordProfile(
    const std::shared_ptr<const QueryProfile>& profile) {
  {
    std::lock_guard lock(processMutex_);
    profiles_.push_front(profile);
    while (profiles_.size() > config_.profileHistory) profiles_.pop_back();
  }
  {
    const QueryProfile& p = *profile;
    std::vector<sql::Value> row = {static_cast<std::int64_t>(p.queryId),
                                   p.sql,
                                   p.status,
                                   p.queryClass,
                                   p.wallSeconds,
                                   p.stageSeconds(),
                                   p.chunks,
                                   p.attempts,
                                   p.retries,
                                   p.faults,
                                   p.rowsMerged,
                                   p.resultRows,
                                   p.bytesTransferred,
                                   p.queueWait.p50,
                                   p.queueWait.max,
                                   p.execute.p50,
                                   p.execute.max,
                                   p.transfer.p50,
                                   p.transfer.max};
    std::lock_guard lock(statsMutex_);
    statsRows_.push_back(std::move(row));
    if (statsRows_.size() > config_.queryStatsHistory) {
      statsRows_.erase(
          statsRows_.begin(),
          statsRows_.end() - static_cast<std::ptrdiff_t>(
                                 config_.queryStatsHistory));
    }
    // Rebuilding the registered snapshot here would copy the whole history
    // (19 columns x queryStatsHistory rows, SQL text included) on every
    // query; defer it to flushQueryStats() on the metadata read path.
    statsDirty_ = true;
  }
  if (config_.slowQuerySeconds > 0.0 &&
      profile->wallSeconds >= config_.slowQuerySeconds) {
    QLOG(kWarn, "slowquery") << profile->toJson();
  }
}

void QservFrontend::flushQueryStats() {
  std::lock_guard lock(statsMutex_);
  if (!statsDirty_) return;
  // The registered table may be mid-scan by a concurrent frontend SELECT,
  // and registered table contents are never mutated (database.h). Publish
  // pending rows by rebuilding a fresh snapshot and atomically swapping it
  // in; in-flight readers keep their old TablePtr.
  auto table = std::make_shared<sql::Table>("QueryStats", queryStatsSchema());
  (void)table->appendRows(statsRows_);
  (void)metadata_.replaceTable(std::move(table));
  statsDirty_ = false;
}

std::shared_ptr<const QueryProfile> QservFrontend::profileFor(
    std::uint64_t id) const {
  std::lock_guard lock(processMutex_);
  for (const auto& p : profiles_) {
    if (p->queryId == id) return p;
  }
  return nullptr;
}

Result<QservFrontend::Execution> QservFrontend::runQuery(
    const std::string& sql, std::uint64_t id, LiveQuery& live,
    util::Trace* trace) {
  Execution exec;

  live.setState("analyzing");
  sql::SelectStmt stmt;
  {
    util::ScopedSpan span(trace, util::SpanKind::kParse);
    QSERV_ASSIGN_OR_RETURN(stmt, sql::parseSelect(sql));
  }
  AnalyzedQuery analyzed;
  {
    util::ScopedSpan span(trace, util::SpanKind::kAnalyze);
    QSERV_ASSIGN_OR_RETURN(analyzed, analyzeQuery(stmt, config_.catalog));
  }

  // Queries that touch no partitioned table run on the frontend directly.
  if (!analyzed.touchesPartitioned()) {
    live.setState("executing on frontend");
    util::ScopedSpan span(trace, util::SpanKind::kFrontendExecute);
    flushQueryStats();  // metadata read: publish pending QueryStats rows
    sql::ExecStats stats;
    QSERV_ASSIGN_OR_RETURN(
        exec.result, sql::executeSelect(metadata_, analyzed.stmt, stats));
    exec.soloTiming = simio::simulateQuery({}, config_.cost);
    return exec;
  }

  live.setState("rewriting");
  std::vector<std::int32_t> chunks;
  {
    util::ScopedSpan span(trace, util::SpanKind::kChunkPrune);
    chunks = resolveChunks(analyzed);
    span->count = static_cast<std::int64_t>(chunks.size());
  }
  if (trace) {
    // Room for the czar's stages, two spans per batch and every chunk's
    // spans (frame read, chunk, queue wait, subchunk build, execution,
    // merge), so recording them never reallocates.
    trace->reserve(32 + 6 * chunks.size());
  }
  std::string mergeTable =
      util::format("qm_%llu", static_cast<unsigned long long>(id));
  QueryRewriter rewriter(config_.catalog, chunker_);
  RewriteResult rewrite;
  {
    util::ScopedSpan span(trace, util::SpanKind::kRewrite);
    QSERV_ASSIGN_OR_RETURN(rewrite,
                           rewriter.rewrite(analyzed, chunks, mergeTable));
    span->count = static_cast<std::int64_t>(rewrite.chunkQueries.size());
    // Scheduler class, shipped to every worker in the batch envelope
    // (scan_scheduler.h): point/secondary-index lookups ride the
    // interactive priority lane, multi-chunk scans the shared-scan lane.
    exec.queryClass = deriveQueryClass(analyzed, chunks.size());
    rewrite.chunkTemplate.queryClass = exec.queryClass;
  }

  live.chunksTotal.store(rewrite.chunkQueries.size(),
                         std::memory_order_relaxed);
  live.setState("dispatching");
  QLOG(kInfo, "czar") << "dispatching " << rewrite.chunkQueries.size()
                      << " chunk queries for: " << sql;
  // Pipelined dispatch + merge on this thread and the dispatcher's
  // collectors: each collector verifies and decodes a chunk result on the
  // thread that read it and appends it to the merge table before reading
  // its next frame, so the czar never holds every result in memory at once
  // and a slow merge throttles the stream windows behind it. One czar span
  // covers the whole overlapped interval so the profile's stage times stay
  // sequential; the collectors record each merge inside it.
  ResultMerger merger(mergeTable);
  std::mutex sinkMutex;  // guards exec.accounting and mergeStatus
  Status mergeStatus = Status::ok();
  Result<DispatchReport> report = Status::internal("dispatch never ran");
  {
    util::ScopedSpan span(trace, util::SpanKind::kDispatch);
    DispatchOptions options;
    if (config_.queryDeadlineSeconds > 0.0) {
      options.deadline = util::Deadline::afterSeconds(
          config_.queryDeadlineSeconds);
    }
    report = dispatcher_.runStreamed(
        rewrite.chunkTemplate, rewrite.chunkQueries,
        [&](ChunkResult&& r) {
          ChunkAccounting accounting{r.chunkId, std::move(r.workerId),
                                     r.rows.observables()};
          Status merged = merger.merge(std::move(r.rows));
          std::lock_guard lock(sinkMutex);
          exec.accounting.push_back(std::move(accounting));
          if (mergeStatus.isOk()) mergeStatus = merged;
          return merged;  // a failure cancels the rest of the run
        },
        trace, &live.chunksCompleted, options);
  }
  QSERV_RETURN_IF_ERROR(mergeStatus);
  QSERV_RETURN_IF_ERROR(report.status());
  exec.chunksDispatched = exec.accounting.size();
  exec.dispatchBatches = report->batches;
  CzarMetrics::instance().chunksDispatched.add(exec.chunksDispatched);

  live.setState("finalizing");
  {
    util::ScopedSpan span(trace, util::SpanKind::kFinalAggregation);
    QSERV_ASSIGN_OR_RETURN(exec.result, merger.finalize(rewrite.merge));
  }
  exec.rowsMerged = merger.rowsMerged();

  // Virtual-time accounting. Batched dispatch replaces the per-chunk master
  // overhead with the amortized per-batch cost (§7.6's fix).
  const double dispatchSec = simio::amortizedBatchDispatchSec(
      exec.accounting.size(), exec.dispatchBatches, config_.cost);
  exec.simTasks.reserve(exec.accounting.size());
  for (const ChunkAccounting& a : exec.accounting) {
    simio::SimChunkTask task;
    task.worker = workerIndexOf(a.workerId);
    task.serviceSec = simio::workerServiceSeconds(a.observables, config_.cost);
    task.collectSec = simio::masterCollectSeconds(a.observables, config_.cost);
    task.dispatchSec = dispatchSec;
    task.interactive = exec.queryClass == QueryClass::kInteractive;
    exec.simTasks.push_back(task);
  }
  exec.soloTiming = simio::simulateQuery(exec.simTasks, config_.cost);
  return exec;
}

}  // namespace qserv::core
