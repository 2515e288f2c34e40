#include "qserv/dispatcher.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "qserv/batch_codec.h"
#include "qserv/observables_codec.h"
#include "util/logging.h"
#include "util/md5.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "xrd/paths.h"

namespace qserv::core {

using util::Result;
using util::Status;

namespace {
struct DispatchMetrics {
  util::Counter& chunksOk;
  util::Counter& chunksFailed;
  util::Counter& chunksCancelled;
  util::Counter& retries;
  util::Counter& replicaExclusions;
  util::Counter& checksumMismatches;
  util::Counter& deadlineExceeded;
  util::Counter& batches;
  util::Counter& batchFallbackChunks;
  util::Counter& batchChunkRetries;
  util::Counter& damagedFrames;
  util::Histogram& chunkSeconds;
  util::Histogram& backoffSeconds;
  util::Histogram& batchSeconds;
  util::Histogram& batchChunks;

  static DispatchMetrics& instance() {
    auto& reg = util::MetricsRegistry::instance();
    static DispatchMetrics* m = new DispatchMetrics{
        reg.counter("dispatch.chunks_ok"),
        reg.counter("dispatch.chunks_failed"),
        reg.counter("dispatch.chunks_cancelled"),
        reg.counter("dispatch.retries"),
        reg.counter("dispatch.replica_exclusions"),
        reg.counter("dispatch.checksum_mismatches"),
        reg.counter("dispatch.deadline_exceeded"),
        reg.counter("dispatch.batches"),
        reg.counter("dispatch.batch_fallback_chunks"),
        reg.counter("dispatch.batch_chunk_retries"),
        reg.counter("dispatch.damaged_frames"),
        reg.histogram("dispatch.chunk_seconds"),
        reg.histogram("dispatch.backoff_seconds"),
        reg.histogram("dispatch.batch_seconds"),
        reg.histogram("dispatch.batch_chunks"),
    };
    return *m;
  }
};

/// Is a failed attempt worth retrying on another replica?
bool isRetryable(const Status& s) {
  return s.code() == util::ErrorCode::kUnavailable ||
         s.code() == util::ErrorCode::kDataLoss;
}

/// Process-unique nonce of one dispatch run. A batch id hashes it with the
/// request, so two runs of the same query (whose untraced requests are
/// byte-identical) never share a worker-side stream.
std::uint64_t nextRunNonce() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Fill \p span as the one kChunk span of \p chunkId: from \p startUs until
/// now, after \p attempts attempts.
void fillChunkSpan(util::TraceSpan& span, std::int32_t chunkId,
                   std::int64_t startUs, int attempts) {
  span.chunk = chunkId;
  span.attempt = attempts;
  span.startUs = startUs;
  span.endUs = util::Trace::nowUs();
  span.threadId = util::threadId();
}

/// Add the worker's spans of one traced chunk, rebuilt from the timings its
/// result frame carried.
void addWorkerSpans(util::SpanBatch& spans, const WorkerTimings& t,
                    std::int32_t chunkId, const std::string& workerId) {
  auto add = [&](util::SpanKind kind, std::int64_t startUs,
                 std::int64_t endUs) -> util::TraceSpan& {
    util::TraceSpan& span = spans.add(kind);
    span.chunk = chunkId;
    span.worker = workerId;
    span.startUs = startUs;
    span.endUs = endUs;
    span.threadId = t.threadId;
    return span;
  };
  add(util::SpanKind::kQueueWait, t.arrivedUs, t.claimedUs);
  if (t.subchunks > 0) {
    add(util::SpanKind::kSubchunks, t.execStartUs, t.buildEndUs).count =
        static_cast<std::int64_t>(t.subchunks);
  }
  util::TraceSpan& exec =
      add(util::SpanKind::kExec, t.execStartUs, t.execEndUs);
  exec.rows = static_cast<std::int64_t>(t.resultRows);
  exec.counters = t.counters;
}
}  // namespace

/// One chunk's final state: delivered (OK status), failed or cancelled.
struct Dispatcher::ChunkOutcome {
  std::int32_t chunkId = 0;
  int attempts = 0;
  Status status = Status::ok();
};

/// A chunk a batch could not deliver, queued for a retry as a batch of one.
struct Dispatcher::RetryItem {
  const ChunkQuerySpec* spec = nullptr;
  std::vector<std::string> exclude;  ///< replicas that already failed it
  int priorAttempts = 0;
  Status prior = Status::internal("not attempted");
};

/// What every batch of one dispatch run shares.
struct Dispatcher::Run {
  const ChunkQueryTemplate& query;
  std::string templateHash;  ///< MD5 of query.sql, taken once per run
  const ResultSink& sink;
  util::Trace* trace;
  std::uint64_t nonce;  ///< from nextRunNonce(); part of every batch id
  std::atomic<std::size_t>* completed;
  const DispatchOptions& options;
};

struct Dispatcher::BatchOutcome {
  std::vector<RetryItem> retries;
  std::vector<ChunkOutcome> failures;  ///< terminal (non-retryable) chunks
  std::size_t ok = 0;
  std::size_t cancelled = 0;
};

Dispatcher::Dispatcher(xrd::RedirectorPtr redirector, DispatcherConfig config)
    : redirector_(std::move(redirector)),
      config_(config),
      pool_(static_cast<std::size_t>(std::max(1, config.parallelism))) {
  config_.parallelism = std::max(1, config_.parallelism);
  config_.maxAttempts = std::max(1, config_.maxAttempts);
}

Dispatcher::Dispatcher(xrd::RedirectorPtr redirector, int parallelism,
                       int maxAttempts)
    : Dispatcher(std::move(redirector),
                 DispatcherConfig{parallelism, maxAttempts,
                                  util::BackoffPolicy{}}) {}

Status Dispatcher::aggregateFailures(std::vector<ChunkOutcome> failures,
                                     std::size_t cancelled, std::size_t ok,
                                     std::size_t total,
                                     const Status& cancelReason) {
  if (failures.empty() && cancelled == 0) return Status::ok();
  if (failures.empty()) {
    // Only possible when the caller cancelled externally.
    return Status::aborted(util::format(
        "%zu of %zu chunk queries cancelled: %s", cancelled, total,
        cancelReason.message().c_str()));
  }
  // Aggregate: name the failed chunks with their attempt counts.
  std::string detail;
  constexpr std::size_t kMaxListed = 4;
  for (std::size_t i = 0; i < failures.size() && i < kMaxListed; ++i) {
    if (i > 0) detail += "; ";
    detail += util::format("chunk %d after %d attempt(s): %s",
                           failures[i].chunkId, failures[i].attempts,
                           failures[i].status.toString().c_str());
  }
  if (failures.size() > kMaxListed) {
    detail += util::format("; and %zu more", failures.size() - kMaxListed);
  }
  std::string summary = util::format(
      "%zu of %zu chunk queries failed (%zu cancelled early, %zu "
      "succeeded): %s",
      failures.size(), total, cancelled, ok, detail.c_str());
  return Status(failures.front().status.code(), std::move(summary));
}

Result<std::vector<ChunkResult>> Dispatcher::run(
    const ChunkQueryTemplate& query, const std::vector<ChunkQuerySpec>& specs,
    util::Trace* trace, std::atomic<std::size_t>* completed,
    const DispatchOptions& options) {
  // Collect every result, then restore the caller-visible ordering contract
  // (results in spec order).
  std::mutex mutex;
  std::vector<ChunkResult> out;
  auto report = runStreamed(
      query, specs,
      [&](ChunkResult&& r) {
        std::lock_guard lock(mutex);
        out.push_back(std::move(r));
        return Status::ok();
      },
      trace, completed, options);
  QSERV_RETURN_IF_ERROR(report.status());
  std::unordered_map<std::int32_t, std::size_t> order;
  order.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) order[specs[i].chunkId] = i;
  std::sort(out.begin(), out.end(),
            [&](const ChunkResult& a, const ChunkResult& b) {
              return order[a.chunkId] < order[b.chunkId];
            });
  return out;
}

std::map<std::string, std::vector<const ChunkQuerySpec*>>
Dispatcher::groupByWorker(const std::vector<ChunkQuerySpec>& specs,
                          std::vector<RetryItem>& unplaced) {
  std::map<std::string, std::vector<const ChunkQuerySpec*>> byWorker;
  for (const auto& spec : specs) {
    auto server = redirector_->locate(spec.chunkId);
    if (server.isOk()) {
      byWorker[(*server)->id()].push_back(&spec);
    } else {
      unplaced.push_back(RetryItem{&spec, {}, 0, server.status()});
    }
  }
  return byWorker;
}

std::vector<BatchPlanEntry> Dispatcher::planBatches(
    const std::vector<ChunkQuerySpec>& specs) {
  std::vector<RetryItem> unplaced;
  std::vector<BatchPlanEntry> out;
  for (const auto& [workerId, chunks] : groupByWorker(specs, unplaced)) {
    out.push_back(BatchPlanEntry{workerId, {}});
    for (const ChunkQuerySpec* spec : chunks) {
      out.back().chunkIds.push_back(spec->chunkId);
    }
  }
  if (!unplaced.empty()) {
    out.push_back(BatchPlanEntry{});
    for (const RetryItem& item : unplaced) {
      out.back().chunkIds.push_back(item.spec->chunkId);
    }
  }
  return out;
}

Dispatcher::BatchOutcome Dispatcher::collectBatch(
    const std::string& workerId,
    const std::vector<const ChunkQuerySpec*>& chunks, int attempt,
    const Run& run) {
  auto& metrics = DispatchMetrics::instance();
  util::Trace* trace = run.trace;
  const DispatchOptions& options = run.options;
  std::atomic<std::size_t>* completed = run.completed;
  BatchOutcome outcome;
  xrd::XrdClient client(redirector_);
  util::Stopwatch watch;

  BatchRequest request;
  request.traceId = trace ? trace->id() : 0;
  // A traced chunk's result body ends in the worker's timings.
  const bool traced = request.traceId != 0;
  request.streamWindow = config_.streamWindow;
  request.templateHash = run.templateHash;
  request.query = run.query;
  request.chunks.reserve(chunks.size());
  std::unordered_map<std::int32_t, const ChunkQuerySpec*> pending;
  pending.reserve(chunks.size());
  for (const ChunkQuerySpec* spec : chunks) {
    pending.emplace(spec->chunkId, spec);
    request.chunks.push_back(*spec);
  }
  std::string requestBytes = encodeBatchRequest(request);
  // The batch id: MD5 of the request, the run's nonce and the attempt.
  util::Md5 idHash;
  idHash.update(requestBytes);
  const std::uint64_t salt[] = {run.nonce, static_cast<std::uint64_t>(attempt)};
  idHash.update(salt, sizeof(salt));
  const auto digest = idHash.digest();
  const std::string batchId = util::toHex(digest.data(), digest.size());

  util::ScopedSpan span(trace, util::SpanKind::kBatch);
  if (span) span->worker = workerId;
  span->attempt = attempt;
  span->count = static_cast<std::int64_t>(chunks.size());
  const std::int64_t batchStartUs = util::Trace::nowUs();
  // A traced collector gathers each frame's spans and adds them under one
  // lock before it reads the next frame.
  std::optional<util::SpanBatch> frameSpans;
  if (trace) frameSpans.emplace(*trace);

  // A chunk this batch could not deliver becomes a retry item carrying
  // \p why and excluding this worker.
  auto retryLater = [&](const ChunkQuerySpec* spec, const Status& why) {
    redirector_->reportFailure(spec->chunkId, workerId);
    metrics.replicaExclusions.add();
    metrics.batchChunkRetries.add();
    outcome.retries.push_back(RetryItem{spec, {workerId}, attempt, why});
  };
  // Every pending chunk is retried — the shared bail-out of write failures
  // and broken streams.
  auto retryPending = [&](const Status& why) {
    for (auto& [chunkId, spec] : pending) retryLater(spec, why);
    pending.clear();
  };
  // A chunk no other replica would answer better fails the query.
  auto failChunk = [&](std::int32_t chunkId, const Status& why) {
    metrics.chunksFailed.add();
    if (frameSpans) {
      util::TraceSpan& chunkSpan = frameSpans->add(util::SpanKind::kChunk);
      fillChunkSpan(chunkSpan, chunkId, batchStartUs, attempt);
      chunkSpan.worker = workerId;
      chunkSpan.error = why.toString();
    }
    outcome.failures.push_back(ChunkOutcome{chunkId, attempt, why});
    options.cancel.cancel(why);
    if (completed != nullptr) {
      completed->fetch_add(1, std::memory_order_relaxed);
    }
  };

  {
    util::ScopedSpan writeSpan(trace, util::SpanKind::kBatchWrite);
    if (writeSpan) writeSpan->worker = workerId;
    writeSpan->bytes = static_cast<std::int64_t>(requestBytes.size());
    Status written = client.writeBatch(workerId, batchId, requestBytes);
    if (!written.isOk()) {
      QLOG(kWarn, "dispatch") << "batch " << batchId.substr(0, 8) << " to "
                              << workerId << " rejected: "
                              << written.toString();
      writeSpan.fail(written);
      span.fail(written);
      // A worker that no longer exports a chunk (stale placement) is as
      // retryable as one that is down: the retry re-locates the chunk.
      retryPending(written.code() == util::ErrorCode::kUnavailable ||
                           written.code() == util::ErrorCode::kNotFound
                       ? Status::unavailable(written.message())
                       : written);
      return outcome;
    }
  }
  metrics.batches.add();
  metrics.batchChunks.observe(static_cast<double>(chunks.size()));

  std::size_t framesSeen = 0;
  std::int64_t streamBytes = 0;
  const std::size_t expected = chunks.size();
  while (!pending.empty()) {
    if (frameSpans) frameSpans->flush();  // the previous frame's spans
    if (options.cancel.cancelled()) {
      client.cancelBatch(workerId, batchId);
      metrics.chunksCancelled.add(pending.size());
      outcome.cancelled += pending.size();
      if (completed != nullptr) {
        completed->fetch_add(pending.size(), std::memory_order_relaxed);
      }
      pending.clear();
      break;
    }
    if (options.deadline.expired()) {
      // The budget ran out mid-stream: abandon the stream as if its read had
      // timed out; the retry path reports kDeadlineExceeded without
      // spending another attempt.
      client.cancelBatch(workerId, batchId);
      retryPending(Status::unavailable(util::format(
          "batch %s: query deadline expired mid-stream",
          batchId.substr(0, 8).c_str())));
      break;
    }
    if (framesSeen >= expected) {
      // The worker produced all its frames but some chunks never got a
      // readable one (damaged headers): re-fetch them.
      retryPending(Status::dataLoss(util::format(
          "batch %s: result frame lost or damaged",
          batchId.substr(0, 8).c_str())));
      break;
    }
    util::TraceSpan* readSpan = nullptr;
    if (frameSpans) {
      readSpan = &frameSpans->add(util::SpanKind::kFrameRead);
      readSpan->worker = workerId;
      readSpan->threadId = util::threadId();
      readSpan->startUs = util::Trace::nowUs();
    }
    Result<std::string> frameBytes =
        client.readBatchFrame(workerId, batchId, options.deadline);
    if (readSpan) readSpan->endUs = util::Trace::nowUs();
    if (!frameBytes.isOk()) {
      // Worker death / stream timeout / deadline: abandon the stream and
      // retry the survivors (the retry re-checks the deadline before
      // spending another attempt).
      QLOG(kWarn, "dispatch")
          << "batch " << batchId.substr(0, 8) << " stream from " << workerId
          << " broke: " << frameBytes.status().toString();
      if (readSpan) readSpan->error = frameBytes.status().toString();
      span.fail(frameBytes.status());
      client.cancelBatch(workerId, batchId);
      retryPending(frameBytes.status());
      break;
    }
    ++framesSeen;
    streamBytes += static_cast<std::int64_t>(frameBytes->size());
    if (readSpan) {
      readSpan->bytes = static_cast<std::int64_t>(frameBytes->size());
    }
    auto frame = decodeResultFrame(*frameBytes);
    if (!frame.isOk()) {
      // Unattributable frame: some chunk is now short one frame; it gets
      // retried when the stream runs dry.
      metrics.damagedFrames.add();
      if (readSpan) readSpan->error = frame.status().toString();
      continue;
    }
    if (readSpan) readSpan->chunk = frame->chunkId;
    auto it = pending.find(frame->chunkId);
    if (it == pending.end()) continue;  // duplicate or stale frame
    const ChunkQuerySpec* spec = it->second;
    pending.erase(it);
    std::int32_t chunkId = frame->chunkId;

    if (!frame->status.isOk()) {
      // The worker executed this chunk and failed.
      if (isRetryable(frame->status)) {
        retryLater(spec, frame->status);
      } else {
        failChunk(chunkId, frame->status);
      }
      continue;
    }

    // Verify and decode on this thread, outside any lock: the sink only
    // appends typed columns.
    Result<VerifiedResult> verified =
        VerifiedResult::decode(frame->body, traced);
    if (!verified.isOk() &&
        verified.status().code() == util::ErrorCode::kDataLoss) {
      metrics.checksumMismatches.add();
      QLOG(kWarn, "dispatch")
          << "chunk " << chunkId << " in batch " << batchId.substr(0, 8)
          << " from " << workerId << " damaged: "
          << verified.status().toString();
      retryLater(spec, verified.status());
      continue;
    }
    redirector_->reportSuccess(workerId);
    if (!verified.isOk()) {
      // Intact bytes that are not one result table.
      failChunk(chunkId, verified.status());
      continue;
    }

    const std::int64_t nowUs = util::Trace::nowUs();
    metrics.chunksOk.add();
    metrics.chunkSeconds.observe(static_cast<double>(nowUs - batchStartUs) *
                                 1e-6);
    ++outcome.ok;
    if (frameSpans) {
      // One kChunk span per dispatched chunk, covering batch write through
      // frame arrival, and the worker's own spans from its frame.
      util::TraceSpan& chunkSpan = frameSpans->add(util::SpanKind::kChunk);
      fillChunkSpan(chunkSpan, chunkId, batchStartUs, attempt);
      chunkSpan.worker = workerId;
      // The result's bytes as an untraced query would read them: less the
      // worker block tracing added.
      chunkSpan.bytes = static_cast<std::int64_t>(
          verified->payloadBytes() - (traced ? kWorkerBlockBytes : 0));
      if (const auto& timings = verified->workerTimings()) {
        addWorkerSpans(*frameSpans, *timings, chunkId, workerId);
      }
    }
    const std::int64_t rows =
        static_cast<std::int64_t>(verified->table()->numRows());
    Status sunk = run.sink(ChunkResult{chunkId, workerId, run.templateHash,
                                       std::move(verified).value()});
    if (frameSpans) {
      util::TraceSpan& merge = frameSpans->add(util::SpanKind::kMerge);
      merge.chunk = chunkId;
      merge.rows = rows;
      merge.startUs = nowUs;
      merge.endUs = util::Trace::nowUs();
      merge.threadId = util::threadId();
      if (!sunk.isOk()) merge.error = sunk.toString();
    }
    if (!sunk.isOk()) options.cancel.cancel(std::move(sunk));
    if (completed != nullptr) {
      completed->fetch_add(1, std::memory_order_relaxed);
    }
  }
  span->bytes = streamBytes;
  metrics.batchSeconds.observe(watch.elapsedSeconds());
  return outcome;
}

Status Dispatcher::retryChunk(const RetryItem& item, const Run& run,
                              int& attemptsOut) {
  auto& metrics = DispatchMetrics::instance();
  util::Trace* trace = run.trace;
  const DispatchOptions& options = run.options;
  const ChunkQuerySpec& spec = *item.spec;
  const std::int64_t startUs = trace ? util::Trace::nowUs() : 0;
  // Deterministic, per-chunk-decorrelated backoff stream.
  std::uint64_t backoffSeed =
      config_.retrySeed + 0x9e3779b97f4a7c15ULL *
                              static_cast<std::uint64_t>(spec.chunkId + 1);
  util::Backoff backoff(config_.backoff, util::splitmix64(backoffSeed));
  std::vector<std::string> exclude = item.exclude;
  Status last = item.prior;
  // The chunk keeps its spent attempt count: the failed batch attempt was
  // attempt 1..priorAttempts, so the loop resumes mid-budget and pays
  // backoff before touching another replica.
  int attempt = std::min(item.priorAttempts, config_.maxAttempts);
  auto deadlineExpired = [&] {
    if (!options.deadline.expired()) return false;
    metrics.deadlineExceeded.add();
    last = Status::deadlineExceeded(util::format(
        "chunk %d: query deadline expired after %d attempt(s)", spec.chunkId,
        attempt));
    return true;
  };
  for (; attempt < config_.maxAttempts; ++attempt) {
    if (options.cancel.cancelled()) {
      last = Status::aborted("chunk query cancelled: " +
                             options.cancel.reason().message());
      break;
    }
    if (deadlineExpired()) break;
    if (attempt > 0) {
      metrics.retries.add();
      auto sleep = backoff.next();
      if (options.deadline.isLimited()) {
        sleep = std::min(sleep, options.deadline.remaining());
      }
      metrics.backoffSeconds.observe(
          static_cast<double>(sleep.count()) * 1e-6);
      if (!options.cancel.sleepFor(sleep)) {
        last = Status::aborted("chunk query cancelled during backoff: " +
                               options.cancel.reason().message());
        break;
      }
      if (deadlineExpired()) break;
    }
    // A kAttempt span, not a kChunk one: trace consumers see exactly one
    // kChunk span per dispatched chunk.
    util::ScopedSpan attemptSpan(trace, util::SpanKind::kAttempt);
    attemptSpan->chunk = spec.chunkId;
    attemptSpan->attempt = attempt + 1;
    auto server = redirector_->locate(spec.chunkId, exclude);
    if (!server.isOk() &&
        server.status().code() == util::ErrorCode::kUnavailable &&
        !exclude.empty()) {
      // Every live replica already failed once this chunk query. Retrying
      // a previously failed replica (it may have recovered) beats giving
      // up while attempts remain.
      exclude.clear();
      server = redirector_->locate(spec.chunkId);
    }
    if (!server.isOk()) {
      last = server.status();
      attemptSpan.fail(last);
      if (isRetryable(last)) continue;
      break;  // non-transient: chunk unknown, ...
    }
    const std::string workerId = (*server)->id();
    if (attemptSpan) attemptSpan->worker = workerId;
    BatchOutcome outcome = collectBatch(workerId, {&spec}, attempt + 1, run);
    if (outcome.retries.empty()) {
      // Delivered, failed for good, or cancelled: collectBatch accounted
      // for the chunk.
      attemptsOut = attempt + 1;
      if (outcome.ok > 0) return Status::ok();
      if (!outcome.failures.empty()) return outcome.failures.front().status;
      return Status::aborted("chunk query cancelled: " +
                             options.cancel.reason().message());
    }
    last = std::move(outcome.retries.front().prior);
    attemptSpan.fail(last);
    exclude.push_back(workerId);
    if (!isRetryable(last)) break;
  }
  attemptsOut = std::min(attempt + 1, config_.maxAttempts);
  if (last.code() == util::ErrorCode::kAborted) {
    metrics.chunksCancelled.add();
  } else {
    metrics.chunksFailed.add();
  }
  if (trace) {
    util::TraceSpan chunkSpan;
    chunkSpan.kind = util::SpanKind::kChunk;
    fillChunkSpan(chunkSpan, spec.chunkId, startUs, attemptsOut);
    chunkSpan.error = last.toString();
    trace->add(std::move(chunkSpan));
  }
  if (run.completed != nullptr) {
    run.completed->fetch_add(1, std::memory_order_relaxed);
  }
  return last;
}

Result<DispatchReport> Dispatcher::runStreamed(
    const ChunkQueryTemplate& query, const std::vector<ChunkQuerySpec>& specs,
    const ResultSink& sink, util::Trace* trace,
    std::atomic<std::size_t>* completed, const DispatchOptions& options) {
  const Run run{query, util::Md5::hex(query.sql), sink, trace, nextRunNonce(),
                completed, options};
  // Plan: one batch per (query, worker) at the redirector's current
  // placement; chunks without a live placement go straight to the retry
  // path, which re-locates them and owns the precise error semantics.
  std::vector<RetryItem> unplaced;
  auto byWorker = groupByWorker(specs, unplaced);
  DispatchReport report;
  report.batches = byWorker.size();
  DispatchMetrics::instance().batchFallbackChunks.add(unplaced.size());

  auto submitRetry = [&](RetryItem item) {
    return pool_.submit([this, item = std::move(item), &run, &options,
                         completed] {
      ChunkOutcome outcome;
      outcome.chunkId = item.spec->chunkId;
      if (options.cancel.cancelled()) {
        // A sibling already failed hard: don't even start.
        outcome.status = Status::aborted(
            util::format("chunk %d cancelled: %s", item.spec->chunkId,
                         options.cancel.reason().message().c_str()));
        DispatchMetrics::instance().chunksCancelled.add();
        if (completed != nullptr) {
          completed->fetch_add(1, std::memory_order_relaxed);
        }
        return outcome;
      }
      outcome.status = retryChunk(item, run, outcome.attempts);
      if (!outcome.status.isOk() &&
          outcome.status.code() != util::ErrorCode::kAborted) {
        // This query can no longer succeed: stop siblings now.
        options.cancel.cancel(outcome.status);
      }
      return outcome;
    });
  };

  // Wave 1: the pool collects every batch but the last, which this thread
  // collects itself; unplaced chunks are retried alongside them. All pool
  // tasks are leaves — they never wait on other pool work — so a shared
  // pool cannot deadlock.
  std::vector<std::future<BatchOutcome>> collectors;
  collectors.reserve(byWorker.size());
  for (auto it = byWorker.begin(); it != byWorker.end() &&
                                   std::next(it) != byWorker.end();
       ++it) {
    collectors.push_back(pool_.submit(
        [this, workerId = it->first, chunks = std::move(it->second), &run] {
          return collectBatch(workerId, chunks, /*attempt=*/1, run);
        }));
  }
  std::vector<std::future<ChunkOutcome>> retries;
  retries.reserve(unplaced.size());
  for (RetryItem& item : unplaced) {
    retries.push_back(submitRetry(std::move(item)));
  }

  std::vector<ChunkOutcome> failures;
  std::size_t cancelled = 0;
  std::vector<RetryItem> undelivered;
  auto account = [&](BatchOutcome outcome) {
    report.chunksOk += outcome.ok;
    cancelled += outcome.cancelled;
    for (auto& failure : outcome.failures) {
      failures.push_back(std::move(failure));
    }
    for (auto& retry : outcome.retries) undelivered.push_back(std::move(retry));
  };
  if (!byWorker.empty()) {
    auto& [workerId, chunks] = *byWorker.rbegin();
    account(collectBatch(workerId, chunks, /*attempt=*/1, run));
  }
  for (auto& f : collectors) account(f.get());

  // Wave 2: a batch of one for everything the batches could not deliver.
  // Submitted only after every collector finished so the caller thread never
  // waits on pool work that is itself queued behind pool work.
  for (RetryItem& item : undelivered) {
    retries.push_back(submitRetry(std::move(item)));
  }
  for (auto& f : retries) {
    ChunkOutcome outcome = f.get();
    if (outcome.status.isOk()) {
      ++report.chunksOk;
    } else if (outcome.status.code() == util::ErrorCode::kAborted) {
      ++cancelled;
    } else {
      failures.push_back(std::move(outcome));
    }
  }

  std::sort(failures.begin(), failures.end(),
            [](const ChunkOutcome& a, const ChunkOutcome& b) {
              return a.chunkId < b.chunkId;
            });
  QSERV_RETURN_IF_ERROR(aggregateFailures(std::move(failures), cancelled,
                                          report.chunksOk, specs.size(),
                                          options.cancel.reason()));
  return report;
}

}  // namespace qserv::core
