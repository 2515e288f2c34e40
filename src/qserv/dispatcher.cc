#include "qserv/dispatcher.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <mutex>
#include <unordered_map>

#include "qserv/batch_codec.h"
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

/// Record the one "chunk <id>" dispatcher span trace consumers key on, with
/// the attempts the chunk took.
void addChunkSpan(const util::TracePtr& trace, std::int32_t chunkId,
                  std::int64_t startUs, int attempts,
                  std::vector<std::pair<std::string, std::string>> attrs) {
  if (!trace) return;
  util::TraceSpan span;
  span.component = "dispatcher";
  span.name = util::format("chunk %d", chunkId);
  span.startUs = startUs;
  span.endUs = util::Trace::nowUs();
  span.threadId = util::threadId();
  span.attrs = std::move(attrs);
  span.attrs.emplace_back("attempts", std::to_string(attempts));
  trace->addSpan(std::move(span));
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
  const util::TracePtr& trace;
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
    const util::TracePtr& trace, std::atomic<std::size_t>* completed,
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
  const util::TracePtr& trace = run.trace;
  const DispatchOptions& options = run.options;
  std::atomic<std::size_t>* completed = run.completed;
  BatchOutcome outcome;
  xrd::XrdClient client(redirector_);
  util::Stopwatch watch;

  BatchRequest request;
  request.traceId = trace ? trace->id() : 0;
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
  std::string batchId = util::Md5::hex(requestBytes);

  util::ScopedSpan span(trace, "dispatcher",
                        util::format("batch %s", workerId.c_str()));
  span.attr("chunks", static_cast<std::int64_t>(chunks.size()))
      .attr("requestBytes", static_cast<std::int64_t>(requestBytes.size()));
  std::int64_t batchStartUs = util::Trace::nowUs();

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
    addChunkSpan(trace, chunkId, batchStartUs, attempt,
                 {{"worker", workerId}, {"error", why.toString()}});
    outcome.failures.push_back(ChunkOutcome{chunkId, attempt, why});
    options.cancel.cancel(why);
    if (completed != nullptr) {
      completed->fetch_add(1, std::memory_order_relaxed);
    }
  };

  {
    util::ScopedSpan xrdSpan(
        trace, "xrd",
        util::format("write /batch/%s", batchId.substr(0, 8).c_str()));
    xrdSpan.attr("worker", workerId);
    Status written = client.writeBatch(workerId, batchId, requestBytes);
    if (!written.isOk()) {
      QLOG(kWarn, "dispatch") << "batch " << batchId.substr(0, 8) << " to "
                              << workerId << " rejected: "
                              << written.toString();
      xrdSpan.attr("error", written.toString());
      span.attr("error", written.toString());
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
    Result<std::string> frameBytes = Status::internal("unreached");
    {
      util::ScopedSpan xrdSpan(
          trace, "xrd",
          util::format("read /bstream/%s", batchId.substr(0, 8).c_str()));
      xrdSpan.attr("worker", workerId);
      frameBytes = client.readBatchFrame(workerId, batchId, options.deadline);
    }
    if (!frameBytes.isOk()) {
      // Worker death / stream timeout / deadline: abandon the stream and
      // retry the survivors (the retry re-checks the deadline before
      // spending another attempt).
      QLOG(kWarn, "dispatch")
          << "batch " << batchId.substr(0, 8) << " stream from " << workerId
          << " broke: " << frameBytes.status().toString();
      span.attr("error", frameBytes.status().toString());
      client.cancelBatch(workerId, batchId);
      retryPending(frameBytes.status());
      break;
    }
    ++framesSeen;
    streamBytes += static_cast<std::int64_t>(frameBytes->size());
    auto frame = decodeResultFrame(*frameBytes);
    if (!frame.isOk()) {
      // Unattributable frame: some chunk is now short one frame; it gets
      // retried when the stream runs dry.
      metrics.damagedFrames.add();
      continue;
    }
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
    Result<VerifiedResult> verified = VerifiedResult::decode(frame->body);
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

    // One "chunk <id>" span per dispatched chunk, covering batch write
    // through frame arrival.
    addChunkSpan(trace, chunkId, batchStartUs, attempt,
                 {{"worker", workerId},
                  {"dumpBytes", std::to_string(verified->payloadBytes())}});
    metrics.chunksOk.add();
    metrics.chunkSeconds.observe(
        static_cast<double>(util::Trace::nowUs() - batchStartUs) * 1e-6);
    ++outcome.ok;
    Status sunk = run.sink(ChunkResult{chunkId, workerId, run.templateHash,
                                       std::move(verified).value()});
    if (!sunk.isOk()) options.cancel.cancel(std::move(sunk));
    if (completed != nullptr) {
      completed->fetch_add(1, std::memory_order_relaxed);
    }
  }
  span.attr("delivered", static_cast<std::int64_t>(outcome.ok))
      .attr("streamBytes", streamBytes);
  metrics.batchSeconds.observe(watch.elapsedSeconds());
  return outcome;
}

Status Dispatcher::retryChunk(const RetryItem& item, const Run& run,
                              int& attemptsOut) {
  auto& metrics = DispatchMetrics::instance();
  const util::TracePtr& trace = run.trace;
  const DispatchOptions& options = run.options;
  const ChunkQuerySpec& spec = *item.spec;
  std::int64_t startUs = util::Trace::nowUs();
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
    // Named "attempt N ..." (not "chunk ...") so trace consumers keep seeing
    // exactly one "chunk <id>" dispatcher span per dispatched chunk.
    util::ScopedSpan attemptSpan(
        trace, "dispatcher",
        util::format("attempt %d chunk %d", attempt + 1, spec.chunkId));
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
      attemptSpan.attr("error", last.toString());
      if (isRetryable(last)) continue;
      break;  // non-transient: chunk unknown, ...
    }
    const std::string workerId = (*server)->id();
    attemptSpan.attr("worker", workerId);
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
    attemptSpan.attr("error", last.toString());
    exclude.push_back(workerId);
    if (!isRetryable(last)) break;
  }
  attemptsOut = std::min(attempt + 1, config_.maxAttempts);
  if (last.code() == util::ErrorCode::kAborted) {
    metrics.chunksCancelled.add();
  } else {
    metrics.chunksFailed.add();
  }
  addChunkSpan(trace, spec.chunkId, startUs, attemptsOut,
               {{"error", last.toString()}});
  if (run.completed != nullptr) {
    run.completed->fetch_add(1, std::memory_order_relaxed);
  }
  return last;
}

Result<DispatchReport> Dispatcher::runStreamed(
    const ChunkQueryTemplate& query, const std::vector<ChunkQuerySpec>& specs,
    const ResultSink& sink, const util::TracePtr& trace,
    std::atomic<std::size_t>* completed, const DispatchOptions& options) {
  const Run run{query, util::Md5::hex(query.sql), sink, trace, completed,
                options};
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
