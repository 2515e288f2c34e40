/// \file scan_scheduler.h
/// \brief The worker's shared-scan task scheduler (paper §4.3, §6.4).
///
/// The paper's workers "do not implement any concept of query cost" (§6.4):
/// one FIFO queue, so interactive point lookups convoy behind full-chunk
/// scans (Fig 14). That queue now lives only in the cost model
/// (simio/queue_sim.h with CostParams::workerPriorityLane off). This
/// scheduler, the worker's only policy, is the fix the paper plans in §4.3
/// and production Qserv later built (wsched::ScanScheduler +
/// memman::MemMan + wpublish::QueriesAndChunks):
///
///  - every task arrives tagged with a query class (the czar derives it
///    from analysis coverage and ships it in the batch request envelope):
///    `interactive` for point/secondary-index lookups, `scan` for
///    multi-chunk table scans;
///  - interactive tasks live in a priority lane and claim executor slots
///    ahead of any queued scan — they never wait behind a scan group;
///  - simio::kInteractiveOnlySlots reserved slots serve the interactive
///    lane only, so a lookup finds a slot while scans hold every general
///    one; they wake only for lookups beyond the idle general slots (see
///    enqueueAll). The modeled lane (queue_sim.cc) runs the same rule;
///  - scan tasks on the same chunk ride one physical pass: a claim gathers
///    every queued same-chunk scan into a group, and a scan arriving while
///    the chunk's pass is in flight joins the open pass (takeJoined) and
///    shares the read instead of paying a second one;
///  - scan groups are rate-tiered (fast/slow): a query whose tasks run much
///    slower than the tier reference is evicted to the slow tier so it
///    rides its own pass instead of dragging everyone (production's
///    QueriesAndChunks "boot the slow query" move);
///  - scan claims reserve the chunk's table bytes against a MemoryBudget
///    before running (MemMan-style lock/unlock per chunk set) and block —
///    never interactive claims — until memory frees.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/memory_budget.h"

namespace qserv::core {

struct BatchStream;

/// Read by nothing: shared scan is the worker's only policy. The type and
/// WorkerConfig::scheduler stay only because benchmark harness code still
/// assigns them.
enum class SchedulerMode { kSharedScan };

/// Query cost class, derived by the czar from analysis coverage and carried
/// to workers in the batch request envelope.
enum class QueryClass {
  kInteractive,  ///< point / secondary-index lookup — low-volume lane
  kScan,         ///< multi-chunk table scan — shared-scan lane
};

const char* queryClassName(QueryClass cls);

/// One queued chunk query, as the worker sees it.
struct ScanTask {
  std::int32_t chunkId = 0;
  std::vector<std::int32_t> subChunkIds;  ///< tables to build before running
  /// Rate-tier key: one query's tasks on this worker share it (the worker
  /// derives it from the batch id); 0 is never rated slow.
  std::uint64_t queryId = 0;
  std::int64_t enqueuedUs = 0;  ///< trace-clock time of arrival
  QueryClass cls = QueryClass::kScan;
  /// Paper-scale bytes this task's chunk tables occupy (scan class only);
  /// charged against the memory budget once per chunk pass.
  double memoryBytes = 0.0;
  std::shared_ptr<BatchStream> batch;  ///< the batch this task arrived in
  /// Set by the scheduler when it counts this task toward its batch's
  /// rating (QueryRate::open); finishing it gives the count back.
  bool rated = false;
};

struct ScanSchedulerConfig {
  /// Byte budget for concurrently locked chunk sets; <= 0 = unlimited.
  double scanMemoryBudgetBytes = 0.0;
  /// A query whose per-task EWMA exceeds this multiple of the tier
  /// reference is evicted to the slow tier; <= 0 disables rating.
  double slowScanFactor = 4.0;
  bool startPaused = false;
};

/// Which tasks an executor slot may claim.
enum class SlotKind {
  kGeneral,          ///< either lane, interactive first
  kInteractiveOnly,  ///< the reserved slot: the interactive lane only
};

/// Thread-safe task scheduler shared by a worker's executor slots. All
/// state, including the memory budget, is mutated under one mutex, so a
/// blocked scan claim cannot miss the wakeup that frees its memory.
class ScanScheduler {
 public:
  /// What one executor slot claimed: an interactive task alone (passId 0),
  /// a scan group sharing one chunk pass (passId != 0 — keep calling
  /// takeJoined until it returns empty), or nothing (shutdown drained).
  struct Claim {
    std::vector<ScanTask> tasks;
    std::uint64_t passId = 0;
  };

  ScanScheduler(std::string workerId, ScanSchedulerConfig config);

  /// False when shutting down (the caller answers "unavailable").
  bool enqueue(ScanTask task);
  /// Atomically enqueue all-or-none (batch arrival); returns false when
  /// shutting down. Wakes at most one waiting general slot per queued task
  /// (tasks that join an open pass need none), and a reserved slot per
  /// interactive task beyond the waiting general slots.
  bool enqueueAll(std::vector<ScanTask> tasks);

  /// Block until a task (group) is claimable by a \p slot slot; empty
  /// claim = shut down and drained. Interactive tasks are claimed first and
  /// never budget-blocked; a scan claim that cannot lock its chunk's memory
  /// waits here while other slots keep draining (and grabs any interactive
  /// arrival instead). A kInteractiveOnly slot claims interactive tasks
  /// only, one at a time.
  Claim claim(SlotKind slot = SlotKind::kGeneral);

  /// Drain tasks that joined pass \p passId mid-flight. An empty return
  /// atomically closes the pass (unlocks its memory); callers loop until
  /// empty so a join racing the close is either executed or requeued as a
  /// fresh pass — never lost.
  std::vector<ScanTask> takeJoined(std::uint64_t passId);

  /// Account one finished task: in-flight depth drops, and \p execSeconds
  /// feeds the slow-scan rating when the task actually executed.
  void finishTask(const ScanTask& task, double execSeconds, bool executed);

  /// Queued plus claimed-but-unfinished tasks — the depth the repair
  /// control plane and queue_depth gauge see. (Queued alone goes to zero
  /// the instant a slot claims a large scan group, hiding its load.)
  std::size_t depth() const;
  std::size_t queuedOnly() const;

  /// Is \p queryId currently rated slow (evicted to the slow tier)?
  bool isSlowQuery(std::uint64_t queryId) const;
  /// Rate keys with a rating held: the batches with scan tasks still queued
  /// or unfinished here (plus any rated by finishTask alone, with no task
  /// ever enqueued).
  std::size_t ratedQueries() const;
  /// Slots of \p kind blocked in claim() with nothing to take.
  std::size_t parkedSlots(SlotKind kind) const;

  bool isShuttingDown() const;
  void resume();
  /// Stop accepting work; claims drain the queue then return empty.
  void shutdown();

  util::MemoryBudget& budget() { return budget_; }

 private:
  static constexpr int kFastTier = 0;
  static constexpr int kSlowTier = 1;
  static constexpr int kNumTiers = 2;

  /// One in-flight chunk pass: the executor slot that claimed it executes
  /// `joined` arrivals until the pass closes.
  struct Pass {
    int tier = kFastTier;
    std::int32_t chunkId = 0;
    std::string memKey;  ///< budget key; empty = nothing locked
    std::deque<ScanTask> joined;
  };

  // All helpers below require mu_ held.
  /// Queue \p task in its lane, or join it to its chunk's open pass; true
  /// when it was queued (and so needs a slot to claim it).
  bool routeTask(ScanTask&& task);
  Claim claimInteractiveOnly(std::unique_lock<std::mutex>& lock);
  /// Pop the front of \p lane as a one-task claim.
  Claim claimOne(std::deque<ScanTask>& lane);
  std::size_t queuedLocked() const;
  int tierOf(std::uint64_t queryId) const;
  void rateQuery(std::uint64_t queryId, double execSeconds);
  void evictToSlowTier(std::uint64_t queryId);
  void closePass(std::map<std::uint64_t, Pass>::iterator it);

  const std::string workerId_;
  const ScanSchedulerConfig config_;
  util::MemoryBudget budget_;

  mutable std::mutex mu_;
  std::condition_variable cv_;          ///< general slots
  std::condition_variable reservedCv_;  ///< interactive-only slots
  bool paused_ = false;
  bool shuttingDown_ = false;
  std::size_t waiting_ = 0;  ///< general slots blocked on cv_ in claim()
  std::size_t reservedWaiting_ = 0;  ///< reserved slots blocked on reservedCv_

  /// The interactive priority lane.
  std::deque<ScanTask> interactive_;
  std::deque<ScanTask> scans_[kNumTiers];

  std::map<std::uint64_t, Pass> passes_;  ///< passId -> open pass
  /// (tier, chunkId) -> open passId, so arrivals join the in-flight pass.
  std::map<std::pair<int, std::int32_t>, std::uint64_t> activePass_;
  std::uint64_t nextPassId_ = 1;
  std::size_t inflight_ = 0;  ///< claimed (incl. joined) minus finished

  /// Slow-scan rating: per-query EWMA of task seconds vs a global
  /// reference EWMA over all executed scan tasks. An entry lives while its
  /// batch has scan tasks here (`open`); the last one to finish drops it.
  struct QueryRate {
    double ewmaSec = 0.0;
    bool slow = false;
    std::size_t open = 0;  ///< the batch's queued and unfinished scan tasks
  };
  std::map<std::uint64_t, QueryRate> rates_;
  double refSec_ = 0.0;
};

}  // namespace qserv::core
