/// \file dispatcher.h
/// \brief Master-side chunk-query dispatch and result collection (paper §5.4,
/// §7.6).
///
/// The paper's master spent one write+read transaction pair per chunk query;
/// §7.1 blames that fixed per-chunk cost for the master's overhead and §7.6
/// names batching as the fix. Dispatch here is batched only: a query's chunk
/// queries are grouped by the worker the redirector currently places them
/// on, each group is written once to /batch/<id>, and the worker streams one
/// result frame per chunk back on /bstream/<id>. Collectors read the streams
/// concurrently on a thread pool; per-chunk results carry the worker id and
/// the paper-scale work observables used by the virtual-time simulation
/// (which prices the paper's per-chunk master cost itself). A query's chunk
/// query travels as one ChunkQueryTemplate per batch, never as per-chunk
/// text; its MD5 is taken once per run and, with the chunk id, identifies
/// every result. A batch id is the MD5 of the request, the run's
/// process-unique nonce and the attempt, so concurrent runs of one query
/// never share a result stream.
///
/// Failure handling (the czar "manages transient errors", §5.2). A chunk a
/// batch could not deliver (rejected batch write, broken stream, damaged
/// frame, retryable error frame, or no live placement at plan time) is
/// retried as a batch of one on the next replica:
/// - transient failures retry with exponential backoff + decorrelated
///   jitter, never on a replica that already failed this chunk query
///   (exclude set, cleared once every replica has failed once; failures
///   also evict the redirector cache and feed the per-worker circuit
///   breakers);
/// - a per-query Deadline bounds every attempt, including the blocking
///   frame reads, and retries stop with kDeadlineExceeded when the budget
///   runs out;
/// - the first chunk failure cancels still-queued sibling chunk queries via
///   the shared CancelToken instead of letting them run to completion, and
///   run() returns an aggregated error naming the failed chunks and their
///   attempt counts;
/// - results carry a mandatory MD5 integrity trailer; a missing or
///   mismatched one is a retryable fault (re-fetched from another replica),
///   never merged. A result that verifies but does not decode fails the
///   query.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "qserv/chunk_template.h"
#include "qserv/merger.h"
#include "simio/cost_model.h"
#include "util/backoff.h"
#include "util/deadline.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "xrd/client.h"

namespace qserv::core {

struct ChunkResult {
  std::int32_t chunkId = 0;
  std::string workerId;
  std::string hash;  ///< MD5 of the template: with chunkId, the identity
  VerifiedResult rows;  ///< the verified, decoded table and observables
};

/// Receives each delivered chunk result on the collector thread that read
/// it, possibly from several collectors at once. The collector reads its
/// next frame only after the sink returns, so a slow sink throttles
/// collection (and, through the stream window, the worker). A non-OK
/// return cancels the run with that status.
using ResultSink = std::function<util::Status(ChunkResult&&)>;

struct DispatcherConfig {
  int parallelism = 16;  ///< concurrent batch collectors and retries
  int maxAttempts = 3;   ///< per chunk query, across replicas
  util::BackoffPolicy backoff;  ///< sleep schedule between attempts
  /// Seed for the deterministic backoff jitter (per-chunk streams are
  /// decorrelated from it).
  std::uint64_t retrySeed = 0x5eedULL;
  /// Max unread result frames per batch stream before the worker stops
  /// producing (backpressure); 0 = unbounded.
  int streamWindow = 8;
};

/// One planned batch: the chunks of one query headed to one worker. An
/// empty workerId collects chunks with no live placement (each is retried as
/// a batch of one, which re-locates it and reports precise errors).
struct BatchPlanEntry {
  std::string workerId;
  std::vector<std::int32_t> chunkIds;
};

/// What a dispatch run did.
struct DispatchReport {
  std::size_t chunksOk = 0;
  std::size_t batches = 0;  ///< planned batches, one per worker
};

/// Per-run failure-handling context shared by all chunk queries of one user
/// query.
struct DispatchOptions {
  util::Deadline deadline;   ///< default: unlimited
  util::CancelToken cancel;  ///< cancel externally to abort the whole run
};

class Dispatcher {
 public:
  Dispatcher(xrd::RedirectorPtr redirector, DispatcherConfig config);
  /// Convenience: default config with \p parallelism / \p maxAttempts.
  explicit Dispatcher(xrd::RedirectorPtr redirector, int parallelism = 16,
                      int maxAttempts = 3);

  /// Dispatch all of \p specs and collect every result. Fails if any chunk
  /// query cannot be completed after retries; the error aggregates every
  /// failed chunk with its attempt count, and sibling chunk queries still
  /// queued when the first failure lands are cancelled, not executed.
  ///
  /// When \p trace is set (and its id is nonzero), each batch request
  /// carries its id, so workers answer every chunk with their timings
  /// in-band, and the collectors record dispatcher, xrd, worker and merge
  /// spans into it. Without one nothing is timed or recorded. When
  /// \p completed is set it is incremented as each chunk query finishes
  /// (live progress for SHOW PROCESSLIST).
  util::Result<std::vector<ChunkResult>> run(
      const ChunkQueryTemplate& query,
      const std::vector<ChunkQuerySpec>& specs,
      util::Trace* trace = nullptr,
      std::atomic<std::size_t>* completed = nullptr,
      const DispatchOptions& options = {});

  /// Streamed dispatch: each ChunkResult goes to \p sink the moment it is
  /// read and verified, so the caller merges while later chunks are still
  /// executing. The calling thread collects one batch itself and joins the
  /// pool's collectors after its own returns; chunks a batch could not
  /// deliver are retried as batches of one on the pool. Returns once every
  /// chunk reached a final state. Error aggregation matches run().
  util::Result<DispatchReport> runStreamed(
      const ChunkQueryTemplate& query,
      const std::vector<ChunkQuerySpec>& specs, const ResultSink& sink,
      util::Trace* trace = nullptr,
      std::atomic<std::size_t>* completed = nullptr,
      const DispatchOptions& options = {});

  /// Group \p specs by the worker the redirector would currently place them
  /// on (EXPLAIN's view of dispatch; the run itself re-plans).
  std::vector<BatchPlanEntry> planBatches(
      const std::vector<ChunkQuerySpec>& specs);

  const DispatcherConfig& config() const { return config_; }

 private:
  struct RetryItem;
  struct BatchOutcome;
  struct ChunkOutcome;
  struct Run;

  /// \p specs grouped by the worker the redirector currently places them
  /// on; chunks without a live placement become retry items in
  /// \p unplaced, carrying the lookup failure.
  std::map<std::string, std::vector<const ChunkQuerySpec*>> groupByWorker(
      const std::vector<ChunkQuerySpec>& specs,
      std::vector<RetryItem>& unplaced);

  /// Write one batch of \p chunks, each on its \p attempt-th attempt, to
  /// \p workerId and collect its result stream: delivered chunks go to the
  /// run's sink, and chunks the batch could not deliver come back as retry
  /// items.
  BatchOutcome collectBatch(const std::string& workerId,
                            const std::vector<const ChunkQuerySpec*>& chunks,
                            int attempt, const Run& run);

  /// Retry one chunk the batch path could not deliver as a batch of one on
  /// the next replica, resuming the attempt budget, backoff schedule and
  /// exclude set \p item carries. Returns once the chunk is delivered,
  /// fails for good, or runs out of attempts or deadline, or is cancelled;
  /// \p attemptsOut reports the attempts spent.
  util::Status retryChunk(const RetryItem& item, const Run& run,
                          int& attemptsOut);

  /// Build run()/runStreamed()'s aggregated error from per-chunk outcomes.
  static util::Status aggregateFailures(std::vector<ChunkOutcome> failures,
                                        std::size_t cancelled, std::size_t ok,
                                        std::size_t total,
                                        const util::Status& cancelReason);

  xrd::RedirectorPtr redirector_;
  DispatcherConfig config_;
  /// Persistent dispatch pool, shared by every query this dispatcher runs
  /// (pool construction per query was a measurable cost on LV point
  /// queries). All submitted tasks are leaves — they never submit-and-wait
  /// on the pool themselves, and only callers outside the pool join them —
  /// so sharing cannot deadlock.
  util::ThreadPool pool_;
};

}  // namespace qserv::core
