/// \file dispatcher.h
/// \brief Master-side chunk-query dispatch and result collection (paper §5.4).
///
/// For each chunk query, the dispatcher performs the two Xrootd file
/// transactions: write the query text to /query2/<CC> (the redirector picks
/// a live replica), then read the result back from /result/<md5> on the worker
/// that accepted it. Dispatch fans out over a thread pool; per-chunk results
/// carry the worker id and the paper-scale work observables used by the
/// virtual-time simulation.
///
/// Failure handling (the czar "manages transient errors", §5.2):
/// - transient failures retry with exponential backoff + decorrelated
///   jitter, never on a replica that already failed this chunk query
///   (exclude set; failures also evict the redirector cache and feed the
///   per-worker circuit breakers);
/// - a per-query Deadline bounds every attempt, including the blocking
///   result read, and retries stop with kDeadlineExceeded when the budget
///   runs out;
/// - the first chunk failure cancels still-queued sibling chunk queries via
///   the shared CancelToken instead of letting them run to completion, and
///   run() returns an aggregated error naming the failed chunks and their
///   attempt counts;
/// - results carry an MD5 integrity trailer; a mismatch is a retryable
///   fault (re-fetched from another replica), never merged.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "qserv/query_rewriter.h"
#include "simio/cost_model.h"
#include "util/backoff.h"
#include "util/deadline.h"
#include "util/mpmc_queue.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "xrd/client.h"

namespace qserv::core {

struct ChunkResult {
  std::int32_t chunkId = 0;
  std::string workerId;
  std::string hash;
  std::string dump;  ///< binary row-codec result + observables + MD5 trailer
  simio::WorkObservables observables;
};

enum class DispatchMode {
  kPerChunk,  ///< paper behaviour: one write+read transaction pair per chunk
  kBatched,   ///< UberJob-style: one request per (query, worker), results
              ///< streamed back incrementally over a shared channel
};

struct DispatcherConfig {
  int parallelism = 16;  ///< concurrent in-flight chunk queries on the master
  int maxAttempts = 3;   ///< per chunk query, across replicas
  util::BackoffPolicy backoff;  ///< sleep schedule between attempts
  /// Seed for the deterministic backoff jitter (per-chunk streams are
  /// decorrelated from it).
  std::uint64_t retrySeed = 0x5eedULL;
  /// Require every dump to carry the MD5 integrity trailer; a dump without
  /// one is treated as damaged (the czar enables this — real workers always
  /// append the trailer — while bare-bones test plugins leave it off).
  bool requireDumpChecksum = false;
  DispatchMode mode = DispatchMode::kPerChunk;
  /// Batched mode: max unread result frames per batch stream before the
  /// worker stops producing (backpressure); 0 = unbounded.
  int streamWindow = 8;
};

/// One planned batch: the chunks of one query headed to one worker. An
/// empty workerId collects chunks with no live placement (they fall back to
/// per-chunk dispatch, which re-locates and reports precise errors).
struct BatchPlanEntry {
  std::string workerId;
  std::vector<std::int32_t> chunkIds;
};

/// What a dispatch run did (mode actually used, batching shape).
struct DispatchReport {
  DispatchMode mode = DispatchMode::kPerChunk;
  std::size_t chunksOk = 0;
  std::size_t batches = 0;         ///< batch requests written
  std::size_t fallbackChunks = 0;  ///< chunks dispatched per-chunk instead
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
  /// When \p trace is set, its id is stamped into each payload (so workers
  /// attach their spans to the same trace) and per-chunk dispatcher/xrd
  /// spans are recorded. When \p completed is set it is incremented as each
  /// chunk query finishes (live progress for SHOW PROCESSLIST).
  util::Result<std::vector<ChunkResult>> run(
      const std::vector<ChunkQuerySpec>& specs,
      const util::TracePtr& trace = nullptr,
      std::atomic<std::size_t>* completed = nullptr,
      const DispatchOptions& options = {});

  /// Streamed dispatch: each ChunkResult is pushed into \p sink the moment
  /// it arrives, so the caller can merge while later chunks are still
  /// executing. The sink's bound is the pipeline's backpressure: a slow
  /// consumer blocks collection, which (in batched mode) stalls the batch
  /// streams' windows and throttles the workers. Returns once every chunk
  /// reached a final state; the sink is NOT closed — the caller owns its
  /// lifecycle. Error aggregation matches run().
  util::Result<DispatchReport> runStreamed(
      const std::vector<ChunkQuerySpec>& specs,
      util::MpmcQueue<ChunkResult>& sink,
      const util::TracePtr& trace = nullptr,
      std::atomic<std::size_t>* completed = nullptr,
      const DispatchOptions& options = {});

  /// Group \p specs by the worker the redirector would currently place them
  /// on (EXPLAIN's view of batched dispatch; the run itself re-plans).
  std::vector<BatchPlanEntry> planBatches(
      const std::vector<ChunkQuerySpec>& specs);

  const DispatcherConfig& config() const { return config_; }

 private:
  struct RetryItem;
  struct BatchOutcome;
  struct ChunkFailure;

  /// One chunk query end to end: attempts, backoff, replica exclusion,
  /// integrity verification. \p attemptsOut reports attempts actually made.
  /// A chunk resuming after a failed batch attempt passes the replicas it
  /// already burned in \p initialExclude, the attempts already spent in
  /// \p priorAttempts (so the retry budget and backoff schedule carry over),
  /// and the batch-side failure in \p prior.
  util::Result<ChunkResult> runOne(
      const ChunkQuerySpec& spec, const util::TracePtr& trace,
      const DispatchOptions& options, int& attemptsOut,
      std::vector<std::string> initialExclude = {}, int priorAttempts = 0,
      util::Status prior = util::Status::internal("no attempt made"));

  util::Result<DispatchReport> runPerChunk(
      const std::vector<ChunkQuerySpec>& specs,
      util::MpmcQueue<ChunkResult>& sink, const util::TracePtr& trace,
      std::atomic<std::size_t>* completed, const DispatchOptions& options);

  util::Result<DispatchReport> runBatched(
      const std::vector<ChunkQuerySpec>& specs,
      util::MpmcQueue<ChunkResult>& sink, const util::TracePtr& trace,
      std::atomic<std::size_t>* completed, const DispatchOptions& options);

  /// Collect one batch's result stream; failed chunks come back as retry
  /// items for the per-chunk wave.
  BatchOutcome collectBatch(const std::string& workerId,
                            const std::vector<const ChunkQuerySpec*>& chunks,
                            util::MpmcQueue<ChunkResult>& sink,
                            const util::TracePtr& trace,
                            std::atomic<std::size_t>* completed,
                            const DispatchOptions& options);

  /// Build run()/runStreamed()'s aggregated error from per-chunk outcomes.
  static util::Status aggregateFailures(std::vector<ChunkFailure> failures,
                                        std::size_t cancelled, std::size_t ok,
                                        std::size_t total,
                                        const util::Status& cancelReason);

  xrd::RedirectorPtr redirector_;
  DispatcherConfig config_;
  /// Persistent dispatch pool, shared by every query this dispatcher runs
  /// (pool construction per query was a measurable cost on LV point
  /// queries). All submitted tasks are leaves — they never submit-and-wait
  /// on the pool themselves — so sharing cannot deadlock.
  util::ThreadPool pool_;
};

}  // namespace qserv::core
