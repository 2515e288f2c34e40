/// \file scan_scheduler_test.cc
/// \brief Unit tests for the worker's shared-scan scheduler: priority-lane
/// ordering, the reserved interactive-only slot, same-chunk pass grouping,
/// mid-pass joins with atomic close, memory-budget blocking, slow-scan
/// eviction and its bounded rating table, wakeups, and one lane rule shared
/// with the cost model's simulated lane.
#include "qserv/scan_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "simio/queue_sim.h"
#include "util/rng.h"

namespace qserv::core {
namespace {

ScanTask makeScan(std::int32_t chunkId, std::uint64_t queryId = 0,
                  double memoryBytes = 0.0) {
  ScanTask t;
  t.chunkId = chunkId;
  t.queryId = queryId;
  t.cls = QueryClass::kScan;
  t.memoryBytes = memoryBytes;
  return t;
}

ScanTask makeInteractive(std::int32_t chunkId) {
  ScanTask t;
  t.chunkId = chunkId;
  t.cls = QueryClass::kInteractive;
  return t;
}

ScanSchedulerConfig sharedScan(bool startPaused = true) {
  ScanSchedulerConfig c;
  c.startPaused = startPaused;
  return c;
}

// ---------------------------------------------------------- priority lane

TEST(ScanScheduler, InteractiveClaimedAheadOfQueuedScans) {
  ScanScheduler sched("w0", sharedScan());
  ASSERT_TRUE(sched.enqueue(makeScan(1, 1)));
  ASSERT_TRUE(sched.enqueue(makeScan(2, 2)));
  ASSERT_TRUE(sched.enqueue(makeInteractive(3)));
  sched.resume();
  // The interactive arrival was last in but is claimed first.
  auto claim = sched.claim();
  ASSERT_EQ(claim.tasks.size(), 1u);
  EXPECT_EQ(claim.tasks[0].cls, QueryClass::kInteractive);
  EXPECT_EQ(claim.passId, 0u);  // no pass, no budget charge
  EXPECT_EQ(sched.budget().lockedSets(), 0u);
}

// ----------------------------------------------------------- scan groups

TEST(ScanScheduler, SameChunkScansShareOnePass) {
  ScanScheduler sched("w0", sharedScan());
  ASSERT_TRUE(sched.enqueue(makeScan(5, 1)));
  ASSERT_TRUE(sched.enqueue(makeScan(6, 2)));
  ASSERT_TRUE(sched.enqueue(makeScan(5, 3)));
  sched.resume();
  auto group = sched.claim();
  ASSERT_EQ(group.tasks.size(), 2u);  // both chunk-5 scans, one pass
  EXPECT_NE(group.passId, 0u);
  EXPECT_EQ(group.tasks[0].chunkId, 5);
  EXPECT_EQ(group.tasks[1].chunkId, 5);
  auto solo = sched.claim();
  ASSERT_EQ(solo.tasks.size(), 1u);
  EXPECT_EQ(solo.tasks[0].chunkId, 6);
}

TEST(ScanScheduler, MidPassArrivalJoinsOpenPass) {
  ScanScheduler sched("w0", sharedScan(false));
  ASSERT_TRUE(sched.enqueue(makeScan(5, 1)));
  auto claim = sched.claim();
  ASSERT_EQ(claim.tasks.size(), 1u);
  ASSERT_NE(claim.passId, 0u);
  // Arrives while the chunk-5 pass is in flight: joins it instead of
  // queueing a second pass.
  ASSERT_TRUE(sched.enqueue(makeScan(5, 2)));
  EXPECT_EQ(sched.queuedOnly(), 1u);  // parked on the pass, not a lane
  sched.finishTask(claim.tasks[0], 0.0, true);
  auto joined = sched.takeJoined(claim.passId);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].queryId, 2u);
  sched.finishTask(joined[0], 0.0, true);
  // Empty drain closes the pass; the next same-chunk scan starts fresh.
  EXPECT_TRUE(sched.takeJoined(claim.passId).empty());
  ASSERT_TRUE(sched.enqueue(makeScan(5, 3)));
  auto fresh = sched.claim();
  ASSERT_EQ(fresh.tasks.size(), 1u);
  EXPECT_NE(fresh.passId, claim.passId);
}

TEST(ScanScheduler, DepthCountsInflightUntilFinished) {
  ScanScheduler sched("w0", sharedScan());
  ASSERT_TRUE(sched.enqueue(makeScan(5, 1)));
  ASSERT_TRUE(sched.enqueue(makeScan(5, 2)));
  sched.resume();
  EXPECT_EQ(sched.depth(), 2u);
  auto claim = sched.claim();
  ASSERT_EQ(claim.tasks.size(), 2u);
  // The lanes emptied, but the claimed group is still the worker's load.
  EXPECT_EQ(sched.queuedOnly(), 0u);
  EXPECT_EQ(sched.depth(), 2u);
  sched.finishTask(claim.tasks[0], 0.0, true);
  EXPECT_EQ(sched.depth(), 1u);
  sched.finishTask(claim.tasks[1], 0.0, true);
  EXPECT_EQ(sched.depth(), 0u);
}

// ---------------------------------------------------------- memory budget

TEST(ScanScheduler, BudgetBlocksConflictingScanUntilPassCloses) {
  ScanSchedulerConfig config = sharedScan(false);
  config.scanMemoryBudgetBytes = 100.0;
  ScanScheduler sched("w0", config);
  ASSERT_TRUE(sched.enqueue(makeScan(1, 1, 80.0)));
  auto first = sched.claim();
  ASSERT_EQ(first.tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(sched.budget().lockedBytes(), 80.0);

  // A second slot wants chunk 2 (80 bytes): over budget, so its claim
  // blocks — until the chunk-1 pass closes and frees the reservation.
  ASSERT_TRUE(sched.enqueue(makeScan(2, 2, 80.0)));
  std::atomic<bool> claimed{false};
  std::thread slot([&] {
    auto second = sched.claim();
    ASSERT_EQ(second.tasks.size(), 1u);
    EXPECT_EQ(second.tasks[0].chunkId, 2);
    claimed.store(true);
    sched.finishTask(second.tasks[0], 0.0, true);
    while (!sched.takeJoined(second.passId).empty()) {
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(claimed.load());  // still budget-blocked

  sched.finishTask(first.tasks[0], 0.0, true);
  EXPECT_TRUE(sched.takeJoined(first.passId).empty());  // closes, unlocks
  slot.join();
  EXPECT_TRUE(claimed.load());
  EXPECT_DOUBLE_EQ(sched.budget().lockedBytes(), 0.0);
}

TEST(ScanScheduler, BudgetBlockedSlotStillServesInteractive) {
  ScanSchedulerConfig config = sharedScan(false);
  config.scanMemoryBudgetBytes = 100.0;
  ScanScheduler sched("w0", config);
  ASSERT_TRUE(sched.enqueue(makeScan(1, 1, 100.0)));
  auto first = sched.claim();
  ASSERT_EQ(first.tasks.size(), 1u);
  ASSERT_TRUE(sched.enqueue(makeScan(2, 2, 100.0)));  // cannot fit

  // The blocked slot must not sleep through an interactive arrival: the
  // priority lane never touches the budget.
  std::atomic<bool> gotInteractive{false};
  std::thread slot([&] {
    auto claim = sched.claim();
    ASSERT_EQ(claim.tasks.size(), 1u);
    EXPECT_EQ(claim.tasks[0].cls, QueryClass::kInteractive);
    gotInteractive.store(true);
    sched.finishTask(claim.tasks[0], 0.0, true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(sched.enqueue(makeInteractive(3)));
  slot.join();
  EXPECT_TRUE(gotInteractive.load());

  // Cleanup: close the first pass, then drain the blocked scan.
  sched.finishTask(first.tasks[0], 0.0, true);
  EXPECT_TRUE(sched.takeJoined(first.passId).empty());
  auto second = sched.claim();
  ASSERT_EQ(second.tasks.size(), 1u);
  sched.finishTask(second.tasks[0], 0.0, true);
  EXPECT_TRUE(sched.takeJoined(second.passId).empty());
}

TEST(ScanScheduler, SameChunkPassesShareOneBudgetCharge) {
  ScanSchedulerConfig config = sharedScan();
  config.scanMemoryBudgetBytes = 100.0;
  ScanScheduler sched("w0", config);
  // Two scans of the same 90-byte chunk: grouped into one pass, one charge.
  ASSERT_TRUE(sched.enqueue(makeScan(7, 1, 90.0)));
  ASSERT_TRUE(sched.enqueue(makeScan(7, 2, 90.0)));
  sched.resume();
  auto group = sched.claim();
  ASSERT_EQ(group.tasks.size(), 2u);
  EXPECT_DOUBLE_EQ(sched.budget().lockedBytes(), 90.0);
  EXPECT_EQ(sched.budget().lockedSets(), 1u);
}

// ------------------------------------------------------- slow-scan tiers

TEST(ScanScheduler, SlowQueryEvictedToSlowTier) {
  ScanSchedulerConfig config = sharedScan(false);
  config.slowScanFactor = 2.0;
  ScanScheduler sched("w0", config);
  // Build the reference rate from a well-behaved query.
  for (int i = 0; i < 4; ++i) {
    sched.finishTask(makeScan(1, /*queryId=*/1), 1.0, true);
  }
  ASSERT_FALSE(sched.isSlowQuery(1));
  // Query 2 runs 10x the reference: rated slow after enough evidence.
  sched.finishTask(makeScan(2, /*queryId=*/2), 10.0, true);
  EXPECT_TRUE(sched.isSlowQuery(2));
  EXPECT_FALSE(sched.isSlowQuery(1));

  // Queued work routes by tier: the slow query's scans ride the slow lane,
  // claimed only after fast-tier chunks.
  ASSERT_TRUE(sched.enqueue(makeScan(3, 2)));  // slow query, chunk 3
  ASSERT_TRUE(sched.enqueue(makeScan(4, 1)));  // fast query, chunk 4
  auto first = sched.claim();
  ASSERT_EQ(first.tasks.size(), 1u);
  EXPECT_EQ(first.tasks[0].chunkId, 4);
  auto second = sched.claim();
  ASSERT_EQ(second.tasks.size(), 1u);
  EXPECT_EQ(second.tasks[0].chunkId, 3);
}

TEST(ScanScheduler, EvictionMovesAlreadyQueuedTasks) {
  ScanSchedulerConfig config = sharedScan();
  config.slowScanFactor = 2.0;
  ScanScheduler sched("w0", config);
  // Query 2's task is queued in the fast tier before the rating flips.
  ASSERT_TRUE(sched.enqueue(makeScan(3, 2)));
  ASSERT_TRUE(sched.enqueue(makeScan(4, 1)));
  for (int i = 0; i < 4; ++i) {
    sched.finishTask(makeScan(1, /*queryId=*/1), 1.0, true);
  }
  sched.finishTask(makeScan(2, /*queryId=*/2), 10.0, true);
  ASSERT_TRUE(sched.isSlowQuery(2));
  sched.resume();
  // Chunk 3 arrived first, but its query was evicted: chunk 4 goes first.
  auto first = sched.claim();
  ASSERT_EQ(first.tasks.size(), 1u);
  EXPECT_EQ(first.tasks[0].chunkId, 4);
}

TEST(ScanScheduler, RatingTableHoldsOnlyOpenBatches) {
  // Rate keys are per batch and never come back, so a batch's rating must
  // go when its last task finishes, slow-rated or not.
  ScanSchedulerConfig config = sharedScan(false);
  config.slowScanFactor = 2.0;
  ScanScheduler sched("w0", config);
  auto runOne = [&](double seconds) {
    auto claim = sched.claim();
    ASSERT_EQ(claim.tasks.size(), 1u);
    sched.finishTask(claim.tasks[0], seconds, true);
    EXPECT_TRUE(sched.takeJoined(claim.passId).empty());
  };
  // Three batches stay open: claimed, never finished.
  std::vector<ScanScheduler::Claim> open;
  for (std::uint64_t q = 1; q <= 3; ++q) {
    ASSERT_TRUE(sched.enqueue(makeScan(static_cast<std::int32_t>(q), q)));
    open.push_back(sched.claim());
  }
  std::uint64_t next = 100;
  for (int i = 0; i < 5000; ++i) {
    // Fast one-task batches hold the reference rate down.
    for (int f = 0; f < 4; ++f) {
      ASSERT_TRUE(sched.enqueue(makeScan(10, next++)));
      runOne(1.0);
    }
    // A slow two-task batch: rated slow by its first task, dropped after
    // its second.
    const std::uint64_t slow = next++;
    ASSERT_TRUE(sched.enqueue(makeScan(20, slow)));
    ASSERT_TRUE(sched.enqueue(makeScan(21, slow)));
    runOne(100.0);
    ASSERT_TRUE(sched.isSlowQuery(slow)) << "batch " << i;
    runOne(100.0);
    ASSERT_FALSE(sched.isSlowQuery(slow));
  }
  EXPECT_EQ(sched.ratedQueries(), 3u);
  for (const auto& claim : open) {
    sched.finishTask(claim.tasks[0], 1.0, true);
    EXPECT_TRUE(sched.takeJoined(claim.passId).empty());
  }
  EXPECT_EQ(sched.ratedQueries(), 0u);
}

// -------------------------------------------------------------- wakeups

/// Executor slots draining \p sched the way a worker's do, counting the
/// tasks they finish: \p general general slots and \p reserved
/// interactive-only ones. \p gate runs before each task finishes.
class Slots {
 public:
  Slots(ScanScheduler& sched, int general, int reserved = 0,
        std::function<void(const ScanTask&)> gate = {})
      : sched_(sched), gate_(std::move(gate)) {
    for (int i = 0; i < general; ++i) {
      threads_.emplace_back([this] { loop(SlotKind::kGeneral); });
    }
    for (int i = 0; i < reserved; ++i) {
      threads_.emplace_back([this] { loop(SlotKind::kInteractiveOnly); });
    }
  }
  ~Slots() { join(); }

  void join() {
    sched_.shutdown();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  /// Wait until \p n tasks finished; false after 10 s (a lost wakeup).
  bool awaitDone(int n) {
    auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (done_.load() < n) {
      if (std::chrono::steady_clock::now() > until) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
  }

  /// Scan tasks a reserved slot claimed (must stay 0).
  int reservedScans() const { return reservedScans_.load(); }
  /// Interactive tasks a reserved slot ran.
  int reservedInteractive() const { return reservedInteractive_.load(); }

  /// Wait until \p general general and \p reserved reserved slots are
  /// parked in claim(); false after 10 s.
  bool awaitParked(std::size_t general, std::size_t reserved) {
    auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (sched_.parkedSlots(SlotKind::kGeneral) < general ||
           sched_.parkedSlots(SlotKind::kInteractiveOnly) < reserved) {
      if (std::chrono::steady_clock::now() > until) return false;
      std::this_thread::yield();
    }
    return true;
  }

 private:
  void finish(const ScanTask& task) {
    if (gate_) gate_(task);
    sched_.finishTask(task, 0.0, true);
    ++done_;
  }

  void loop(SlotKind kind) {
    for (;;) {
      auto claim = sched_.claim(kind);
      if (claim.tasks.empty()) return;
      for (const ScanTask& task : claim.tasks) {
        if (kind == SlotKind::kInteractiveOnly) {
          ++(task.cls == QueryClass::kScan ? reservedScans_
                                            : reservedInteractive_);
        }
        finish(task);
      }
      if (claim.passId == 0) continue;
      for (auto joined = sched_.takeJoined(claim.passId); !joined.empty();
           joined = sched_.takeJoined(claim.passId)) {
        for (const ScanTask& task : joined) finish(task);
      }
    }
  }

  ScanScheduler& sched_;
  std::function<void(const ScanTask&)> gate_;
  std::atomic<int> done_{0};
  std::atomic<int> reservedScans_{0};
  std::atomic<int> reservedInteractive_{0};
  std::vector<std::thread> threads_;
};

TEST(ScanScheduler, EnqueueAllNeverLosesAWakeup) {
  // enqueueAll wakes at most one general slot per queued task, and a
  // reserved slot, on its own wakeup, per interactive task beyond them.
  // Whatever the interleaving, every task of a batch must still be claimed:
  // with idle slots, with slots parked on a full memory budget, and with a
  // reserved slot idle beside them that must never claim a scan nor absorb
  // a scan's wakeup.
  for (int round = 0; round < 200; ++round) {
    for (int k : {1, 3, 64}) {
      for (bool budgetBlocked : {false, true}) {
        for (bool withScans : {false, true}) {
          ScanSchedulerConfig config = sharedScan(false);
          config.scanMemoryBudgetBytes = 100.0;
          ScanScheduler sched("w0", config);
          ScanScheduler::Claim held;
          if (budgetBlocked) {
            // This thread holds the whole budget; the slots park on the
            // queued scan that cannot fit.
            ASSERT_TRUE(sched.enqueue(makeScan(1, 1, 100.0)));
            held = sched.claim();
            ASSERT_TRUE(sched.enqueue(makeScan(2, 2, 100.0)));
          }
          Slots slots(sched, 4, withScans ? 1 : round % 2);
          std::vector<ScanTask> batch;
          for (int i = 0; i < k; ++i) {
            batch.push_back(makeInteractive(10 + i));
            if (withScans) batch.push_back(makeScan(100 + i, 7));
          }
          const int tasks = static_cast<int>(batch.size());
          ASSERT_TRUE(sched.enqueueAll(std::move(batch)));
          // Queued scans wait behind the budget-blocked one.
          if (!budgetBlocked || !withScans) {
            ASSERT_TRUE(slots.awaitDone(tasks))
                << "round " << round << " k=" << k
                << " blocked=" << budgetBlocked << " scans=" << withScans;
          }
          if (budgetBlocked) {
            sched.finishTask(held.tasks[0], 0.0, true);
            EXPECT_TRUE(sched.takeJoined(held.passId).empty());
            ASSERT_TRUE(slots.awaitDone(tasks + 1)) << "round " << round;
          }
          slots.join();
          EXPECT_EQ(slots.reservedScans(), 0);
        }
      }
    }
  }
}

TEST(ScanScheduler, InteractiveArrivalWhileScansHoldEverySlot) {
  // No general slot is waiting when the interactive task arrives. Without a
  // reserved slot, enqueueAll wakes none and the first slot to finish its
  // scan must find it; with one, the reserved slot serves it while the
  // scans still hold every general slot.
  for (int round = 0; round < 200; ++round) {
    for (int reserved : {0, 1}) {
      ScanScheduler sched("w0", sharedScan(false));
      std::atomic<int> scansRunning{0};
      std::atomic<bool> release{false};
      Slots slots(sched, 4, reserved, [&](const ScanTask& task) {
        if (task.cls != QueryClass::kScan) return;
        ++scansRunning;
        while (!release.load()) std::this_thread::yield();
      });
      std::vector<ScanTask> scans;
      for (int c = 0; c < 4; ++c) scans.push_back(makeScan(c, 1));
      ASSERT_TRUE(sched.enqueueAll(std::move(scans)));
      while (scansRunning.load() < 4) std::this_thread::yield();
      std::vector<ScanTask> lookup;
      lookup.push_back(makeInteractive(99));
      ASSERT_TRUE(sched.enqueueAll(std::move(lookup)));
      if (reserved > 0) {
        EXPECT_TRUE(slots.awaitDone(1)) << "round " << round;
      }
      release.store(true);
      ASSERT_TRUE(slots.awaitDone(5)) << "round " << round;
      slots.join();
      EXPECT_EQ(slots.reservedScans(), 0);
    }
  }
}

// ------------------------------------------------------ one lane rule

TEST(ScanScheduler, ServiceOrderMatchesModeledLane) {
  // One fixed trace of distinct-chunk scans and interactive tasks on one
  // worker with 2 general slots and the reserved one, run two ways: through
  // the cost model's lane (simio::simulateQueries), and through this
  // scheduler driven by a virtual clock. Both must start every task at the
  // same virtual time: the lane priority and claim(kInteractiveOnly) /
  // claim(kGeneral) match the model. The harness claims after arrivals,
  // general slots first (the model's tie rule), so no slot is parked when
  // a task arrives; which parked slot an arrival wakes is checked by
  // ArrivalWakesAGeneralSlotFirstAsModeled.
  struct TraceTask {
    double arrival = 0.0;
    double service = 0.0;
    bool interactive = false;
  };
  std::vector<TraceTask> trace;
  util::Rng rng(0x1a2e);
  for (int i = 0; i < 120; ++i) {
    TraceTask t;
    t.arrival = 0.25 * static_cast<double>(rng.below(240));
    t.interactive = rng.below(3) == 0;
    t.service =
        0.25 * static_cast<double>(1 + rng.below(t.interactive ? 4 : 24));
    trace.push_back(t);
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const TraceTask& a, const TraceTask& b) {
                     return a.arrival < b.arrival;
                   });
  const std::size_t n = trace.size();

  // The model: one single-task query per trace entry, no master costs, so
  // a query's last result is its task's end.
  simio::CostParams params;
  params.nodeCount = 1;
  params.slotsPerNode = 2;
  params.perQueryFixedOverheadSec = 0.0;
  params.workerPriorityLane = true;
  std::vector<simio::SimQuery> queries;
  for (const TraceTask& t : trace) {
    simio::SimQuery q;
    q.submitSec = t.arrival;
    q.tasks = {{0, t.service, 0.0, 0.0, t.interactive}};
    queries.push_back(q);
  }
  auto results = simio::simulateQueries(queries, params);
  std::vector<double> modeled(n);
  for (std::size_t i = 0; i < n; ++i) {
    modeled[i] = results[i].lastResultSec - trace[i].service;
  }

  // The scheduler: at each virtual instant finish what ends, enqueue what
  // arrives, then let each idle slot (the reserved one last) claim.
  ScanSchedulerConfig config = sharedScan(false);
  config.slowScanFactor = 0.0;
  ScanScheduler sched("w0", config);
  struct VirtualSlot {
    SlotKind kind = SlotKind::kGeneral;
    bool busy = false;
    double freeAt = 0.0;
    ScanScheduler::Claim claim;
  };
  std::vector<VirtualSlot> slots(3);
  slots[2].kind = SlotKind::kInteractiveOnly;
  std::vector<double> real(n, -1.0);
  std::size_t arrived = 0, finished = 0;
  int queuedInteractive = 0, queuedScans = 0;
  double now = 0.0;
  while (finished < n) {
    for (VirtualSlot& slot : slots) {
      if (!slot.busy || slot.freeAt > now) continue;
      sched.finishTask(slot.claim.tasks[0], 0.0, true);
      EXPECT_TRUE(sched.takeJoined(slot.claim.passId).empty());
      slot.busy = false;
      ++finished;
    }
    for (; arrived < n && trace[arrived].arrival <= now; ++arrived) {
      const auto id = static_cast<std::int32_t>(arrived);
      ASSERT_TRUE(sched.enqueue(trace[arrived].interactive
                                    ? makeInteractive(id)
                                    : makeScan(id, 1)));
      ++(trace[arrived].interactive ? queuedInteractive : queuedScans);
    }
    for (VirtualSlot& slot : slots) {
      bool claimable = slot.kind == SlotKind::kInteractiveOnly
                           ? queuedInteractive > 0
                           : queuedInteractive + queuedScans > 0;
      if (slot.busy || !claimable) continue;
      slot.claim = sched.claim(slot.kind);
      ASSERT_EQ(slot.claim.tasks.size(), 1u);
      const ScanTask& task = slot.claim.tasks[0];
      const auto idx = static_cast<std::size_t>(task.chunkId);
      ASSERT_EQ(task.cls == QueryClass::kInteractive, trace[idx].interactive);
      --(task.cls == QueryClass::kInteractive ? queuedInteractive
                                              : queuedScans);
      real[idx] = now;
      slot.busy = true;
      slot.freeAt = now + trace[idx].service;
    }
    double next = arrived < n ? trace[arrived].arrival
                              : std::numeric_limits<double>::infinity();
    for (const VirtualSlot& slot : slots) {
      if (slot.busy) next = std::min(next, slot.freeAt);
    }
    now = next;
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(real[i], modeled[i])
        << "task " << i << (trace[i].interactive ? " (interactive)" : "");
  }
}

TEST(ScanScheduler, ArrivalWakesAGeneralSlotFirstAsModeled) {
  // Which parked slot an arrival wakes. One general slot holds a long
  // scan; the other and the reserved slot are parked. In the model, two
  // lookups arriving together start at once, the first on the idle
  // general slot (ties go to general slots) and the second on the reserved
  // one; a lone lookup takes the general slot.
  simio::CostParams params;
  params.nodeCount = 1;
  params.slotsPerNode = 2;
  params.perQueryFixedOverheadSec = 0.0;
  params.workerPriorityLane = true;
  std::vector<simio::SimQuery> queries(3);
  queries[0].tasks = {{0, 100.0, 0.0, 0.0, false}};
  for (int i = 1; i <= 2; ++i) {
    queries[static_cast<std::size_t>(i)].submitSec = 0.5;
    queries[static_cast<std::size_t>(i)].tasks = {{0, 1.0, 0.0, 0.0, true}};
  }
  auto modeled = simio::simulateQueries(queries, params);
  EXPECT_DOUBLE_EQ(modeled[1].lastResultSec - 1.0, 0.5);
  EXPECT_DOUBLE_EQ(modeled[2].lastResultSec - 1.0, 0.5);

  // The worker: each lookup holds its slot until the other runs too, which
  // needs the waiting general slot and the reserved slot both woken.
  for (int lookups : {2, 1}) {
    for (int round = 0; round < 25; ++round) {
      ScanScheduler sched("w0", sharedScan(false));
      std::atomic<bool> scanRunning{false}, release{false};
      std::atomic<int> lookupsRunning{0};
      std::atomic<bool> overlapped{false};
      Slots slots(sched, 2, 1, [&](const ScanTask& task) {
        if (task.cls == QueryClass::kScan) {
          scanRunning.store(true);
          while (!release.load()) std::this_thread::yield();
          return;
        }
        ++lookupsRunning;
        auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (lookups > 1 && lookupsRunning.load() < lookups &&
               std::chrono::steady_clock::now() < until) {
          std::this_thread::yield();
        }
        if (lookupsRunning.load() >= lookups) overlapped.store(true);
      });
      ASSERT_TRUE(sched.enqueue(makeScan(1, 1)));
      while (!scanRunning.load()) std::this_thread::yield();
      ASSERT_TRUE(slots.awaitParked(1, 1)) << "round " << round;
      std::vector<ScanTask> batch;
      for (int i = 0; i < lookups; ++i) batch.push_back(makeInteractive(90 + i));
      ASSERT_TRUE(sched.enqueueAll(std::move(batch)));
      EXPECT_TRUE(slots.awaitDone(lookups)) << "round " << round;
      EXPECT_TRUE(overlapped.load()) << "round " << round;
      // A lone lookup went to the idle general slot, not the reserved one.
      EXPECT_EQ(slots.reservedInteractive(), lookups - 1)
          << "round " << round << " lookups " << lookups;
      release.store(true);
      ASSERT_TRUE(slots.awaitDone(lookups + 1)) << "round " << round;
      slots.join();
      EXPECT_EQ(slots.reservedScans(), 0);
    }
  }
}

// ------------------------------------------------------------- shutdown

TEST(ScanScheduler, ShutdownDrainsThenReturnsEmpty) {
  ScanScheduler sched("w0", sharedScan());
  ASSERT_TRUE(sched.enqueue(makeScan(1, 1)));
  sched.shutdown();
  EXPECT_FALSE(sched.enqueue(makeScan(2, 2)));
  auto claim = sched.claim();
  ASSERT_EQ(claim.tasks.size(), 1u);  // queued work still drains
  EXPECT_EQ(claim.tasks[0].chunkId, 1);
  sched.finishTask(claim.tasks[0], 0.0, true);
  while (!sched.takeJoined(claim.passId).empty()) {
  }
  EXPECT_TRUE(sched.claim().tasks.empty());  // drained: slots exit
}

}  // namespace
}  // namespace qserv::core
