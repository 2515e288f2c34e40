/// \file worker.h
/// \brief A Qserv worker node (paper §5.1.2, §5.4).
///
/// A worker is an Xrootd data server with Qserv's ofs plugin: chunk queries
/// arrive in batches written to /batch/<id>, execute on the worker's local
/// SQL database against its chunk tables, and each chunk's result streams
/// back as one frame on /bstream/<id>: the binary row codec
/// (sql/rowcodec.h), followed by the fixed-width observables block and the
/// MD5 trailer; a chunk of a traced batch adds the worker block of its
/// timings before the trailer. A batch carries its query's chunk-query
/// template once; the worker parses it once per batch and binds each chunk
/// task's tables into its FROM list (chunk_template.h). A fixed number of
/// executor slots (the paper's clusters ran 4) drain a ScanScheduler: in
/// kFifo mode that is the paper's plain queue ("do not implement any
/// concept of query cost", §6.4); in kSharedScan mode (§4.3) interactive tasks ride a priority lane ahead
/// of scans, same-chunk scans share one physical pass (including arrivals
/// that join a pass already in flight), and scan claims reserve chunk-table
/// bytes against a memory budget. See scan_scheduler.h.
///
/// Subchunk tables (Object_CC_SS) and their overlap companions
/// (ObjectFullOverlap_CC_SS) are built on the fly for the subchunks a batch
/// lists for a chunk, refcounted across concurrent tasks,
/// and dropped when the last user finishes (or kept, with the cache option —
/// the paper notes caching is possible but not implemented; ours defaults
/// off to match).
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "qserv/catalog_config.h"
#include "qserv/chunk_template.h"
#include "qserv/scan_scheduler.h"
#include "simio/cost_model.h"
#include "sql/database.h"
#include "util/metrics.h"
#include "xrd/file_store.h"
#include "xrd/ofs.h"

namespace qserv::core {

/// Shared state of one batched dispatch (/batch/<id>): its chunk tasks
/// stream result frames over one /bstream/<id> path, bounded by a window
/// of unread frames, until the master abandons the batch or the last
/// chunk finishes.
struct BatchStream {
  std::string id;          ///< batchId (unique per dispatch run and worker)
  std::string streamPath;  ///< /bstream/<batchId>
  int window = 0;          ///< max unread frames (0 = unbounded)
  std::atomic<bool> abandoned{false};
  std::atomic<int> remaining{0};  ///< chunks not yet finished/skipped
  /// The batch's template, parsed once on arrival and shared read-only by
  /// its tasks; a template that does not parse fails every chunk with the
  /// parse error.
  util::Result<ChunkPlan> plan{util::Status::internal("no plan")};
  bool aggregate = false;  ///< results are scale-independent partials
  /// The request carried a trace id: every result body ends in the
  /// worker block of the chunk's timings (observables_codec.h).
  bool traced = false;
  std::string resultName;  ///< "r_<template md5>", every result's table name
};

struct WorkerConfig {
  int slots = 4;  ///< concurrent chunk queries (paper §6.2)
  SchedulerMode scheduler = SchedulerMode::kFifo;
  bool cacheSubchunks = false;
  /// Real rows -> paper rows multiplier for the cost model (our tables are
  /// scaled down; observables are reported at paper scale).
  double rowScale = 1.0;
  std::chrono::milliseconds resultTimeout{30000};
  /// Start with executor slots paused (tests use this to stage the queue
  /// deterministically before any task is claimed).
  bool startPaused = false;
  /// kSharedScan: paper-scale byte budget for concurrently locked chunk
  /// sets (MemMan-style reservations); <= 0 = unlimited.
  double scanMemoryBudgetBytes = 0.0;
  /// kSharedScan: slow-scan eviction threshold (see ScanSchedulerConfig).
  double slowScanFactor = 4.0;
};

class Worker : public xrd::OfsPlugin {
 public:
  /// \param database local database preloaded with this worker's chunk
  ///        tables; \p exportedChunks lists the chunks it serves.
  Worker(std::string id, std::shared_ptr<sql::Database> database,
         const CatalogConfig& catalog, std::vector<std::int32_t> exportedChunks,
         WorkerConfig config = {});
  ~Worker() override;

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  const std::string& id() const { return id_; }
  sql::Database& database() { return *db_; }

  // --- OfsPlugin -----------------------------------------------------------
  /// Accepts /batch chunk-query writes and /bcancel abandonments plus the
  /// control-plane writes /chunkload/<id> (install a self-verifying chunk snapshot as a
  /// new replica) and /chunkdrop/<id> (retire this worker's replica).
  util::Status writeFile(const std::string& path, std::string payload) override;
  util::Result<std::string> readFile(const std::string& path) override;
  /// Deadline-bounded result-frame read (/bstream/<id>): the blocking wait
  /// gives up at min(configured result timeout, caller's deadline). /ping reads
  /// answer immediately with a liveness/load line; /chunk/<id> reads return
  /// a checksummed snapshot of the chunk's tables for worker-to-worker copy.
  util::Result<std::string> readFile(const std::string& path,
                                     const util::Deadline& deadline) override;
  std::vector<std::int32_t> exportedChunks() const override;

  /// Does this worker currently export \p chunkId?
  bool exportsChunk(std::int32_t chunkId) const;

  /// Queued plus claimed-but-unfinished tasks. Counting in-flight work
  /// matters: queue length alone drops to zero the moment a slot claims a
  /// large scan group, hiding the worker's load from the repair control
  /// plane's rebalance signal and the queue_depth gauge.
  std::size_t queuedTasks() const;
  std::uint64_t tasksExecuted() const { return tasksExecuted_; }
  /// Result streams holding unread frames. Abandoned and fully read batches
  /// leave none behind, so this drains to zero once the tasks do.
  std::size_t resultStreamsPending() const { return results_.size(); }

  /// This worker's task scheduler (tests inspect budget/slow-query state).
  ScanScheduler& scheduler() { return sched_; }

  /// Resume paused executor slots (see WorkerConfig::startPaused).
  void resume();

  /// Stop accepting work, finish queued tasks, join executor threads.
  void shutdown();

 private:
  void executorLoop();
  /// Run one claimed task: queue-wait accounting, execution, gauges, frame
  /// publication, then scheduler finish bookkeeping. The queue-depth and
  /// busy-slot gauges drop before the frame is published. Sets
  /// \p ioCharged once a task actually pays the chunk read (scanned bytes
  /// > 0), so a group leader skipped as abandoned or zone-pruned never eats
  /// the charge (the bytesScanned-undercount bug).
  void runClaimedTask(const ScanTask& task, std::int64_t claimedUs,
                      bool& ioCharged, double& maxWaitSec);
  /// What executeTask did with one task.
  struct TaskOutcome {
    bool executed = false;  ///< ran and produced a successful result
    bool paidScanIo = false;  ///< its observables charge chunk bytes read
    /// The result or error frame to publish; empty for an abandoned-batch
    /// skip.
    std::string frame;
  };
  /// Execute a chunk query claimed at \p claimedUs and encode its frame,
  /// without publishing it. `executed` is false for abandoned-batch skips
  /// and failures; `paidScanIo` is set only when \p chargeScanIo was and
  /// the task actually read chunk bytes.
  TaskOutcome executeTask(const ScanTask& task, std::int64_t claimedUs,
                          bool chargeScanIo);

  /// Paper-scale bytes chunk \p chunkId's locally held tables occupy — the
  /// scan scheduler's memory-budget charge for one chunk pass.
  double chunkMemoryBytes(std::int32_t chunkId) const;

  /// Decode a /batch write and enqueue one ScanTask per chunk.
  util::Status enqueueBatch(const std::string& batchId, std::string payload);
  /// Mark a batch abandoned (/bcancel write): queued tasks are skipped and
  /// unread frames dropped.
  void abandonBatch(const std::string& batchId);
  /// Publish one chunk's result frame on the batch stream, honoring the
  /// unread-frame window.
  void publishBatchFrame(const ScanTask& task, std::string frame);
  /// Account one finished/skipped batch chunk; the last one unregisters the
  /// batch and, when abandoned, drops its unread frames.
  void finishBatchChunk(const std::shared_ptr<BatchStream>& stream);

  /// Serve a /ping read: "pong id=<id> queue=<depth> chunks=<count>\n".
  std::string pingPayload() const;
  /// Serialize chunk \p chunkId's tables (chunk, overlap, sources) as one
  /// replayable SQL script ending in a -- QSERV-MD5 trailer.
  util::Result<std::string> snapshotChunk(std::int32_t chunkId) const;
  /// Verify and replay a chunk snapshot, index the loaded tables exactly as
  /// initial placement does, then start exporting the chunk.
  util::Status installChunk(std::int32_t chunkId, const std::string& snapshot);
  /// Stop exporting \p chunkId, then drop its tables.
  util::Status dropChunk(std::int32_t chunkId);

  void addExport(std::int32_t chunkId);
  void removeExport(std::int32_t chunkId);

  /// Run \p plan for \p task: bound to its chunk once, or to each of its
  /// subchunks in turn with the outputs unioned.
  util::Result<sql::TablePtr> executePlan(const ChunkPlan& plan,
                                          const ScanTask& task,
                                          sql::ExecStats& stats);

  /// Build (or reuse) the subchunk + overlap tables needed by \p task;
  /// returns build-side execution stats.
  util::Result<sql::ExecStats> acquireSubchunks(
      std::int32_t chunkId, const std::vector<std::int32_t>& subChunks);
  void releaseSubchunks(std::int32_t chunkId,
                        const std::vector<std::int32_t>& subChunks);

  /// Paper-scale bytes per row for \p tableName (chunk/overlap/subchunk
  /// names resolve to their base table's configured width).
  double rowBytesFor(const std::string& tableName) const;

  std::string id_;
  std::shared_ptr<sql::Database> db_;

  // Per-worker queue observability (the shared-scan scheduler's judgment
  // substrate): "worker.<id>.queue_wait_seconds" / ".queue_depth" /
  // ".convoy_ratio" in the process registry, alongside the aggregated
  // "worker.*" instruments. The convoy ratio is max queue wait in a claimed
  // batch over the batch's service time — high when long scans make short
  // tasks queue behind them (a convoy).
  util::Histogram& queueWaitHist_;
  util::Gauge& queueDepthGauge_;
  util::Histogram& convoyRatioHist_;

  const CatalogConfig& catalog_;
  sphgeom::Chunker chunker_;
  /// Sorted; guarded by exportsMutex_ now that the control plane installs
  /// and drops replicas while chunk queries keep arriving.
  mutable std::mutex exportsMutex_;
  std::vector<std::int32_t> exportedChunks_;
  WorkerConfig config_;

  xrd::FileStore results_;

  ScanScheduler sched_;
  std::atomic<bool> stopping_{false};  ///< lock-free shutdown flag for waits
  std::vector<std::thread> executors_;
  std::atomic<std::uint64_t> tasksExecuted_{0};

  mutable std::mutex batchMutex_;
  std::map<std::string, std::shared_ptr<BatchStream>> batches_;

  // Subchunk refcounting: key = "Object_CC_SS".
  std::mutex subchunkMutex_;
  std::condition_variable subchunkCv_;
  struct SubchunkState {
    int refs = 0;
    bool built = false;
    bool building = false;
  };
  std::map<std::string, SubchunkState> subchunks_;
};

}  // namespace qserv::core
