/// \file scan_scheduler_test.cc
/// \brief Unit tests for the worker's shared-scan scheduler: class header
/// parsing, priority-lane ordering, same-chunk pass grouping, mid-pass
/// joins with atomic close, memory-budget blocking, slow-scan eviction,
/// and the kFifo degenerate mode.
#include "qserv/scan_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

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
  c.mode = SchedulerMode::kSharedScan;
  c.startPaused = startPaused;
  return c;
}

// ------------------------------------------------------------- fifo mode

TEST(ScanScheduler, FifoClaimsOneTaskAtATimeInArrivalOrder) {
  ScanSchedulerConfig config;  // kFifo
  ScanScheduler sched("w0", config);
  // Same chunk, mixed classes: FIFO ignores both and never groups.
  ASSERT_TRUE(sched.enqueue(makeScan(5, 1)));
  ASSERT_TRUE(sched.enqueue(makeInteractive(5)));
  ASSERT_TRUE(sched.enqueue(makeScan(5, 2)));
  for (std::uint64_t want : {1u, 0u, 2u}) {
    auto claim = sched.claim();
    ASSERT_EQ(claim.tasks.size(), 1u);
    EXPECT_EQ(claim.passId, 0u);
    EXPECT_EQ(claim.tasks[0].queryId, want);
    sched.finishTask(claim.tasks[0], 0.0, true);
  }
  EXPECT_EQ(sched.depth(), 0u);
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

// -------------------------------------------------------------- wakeups

/// Executor slots draining \p sched the way a worker's do, counting the
/// tasks they finish. \p gate runs before each task finishes.
class Slots {
 public:
  Slots(ScanScheduler& sched, int n,
        std::function<void(const ScanTask&)> gate = {})
      : sched_(sched), gate_(std::move(gate)) {
    for (int i = 0; i < n; ++i) threads_.emplace_back([this] { loop(); });
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

 private:
  void finish(const ScanTask& task) {
    if (gate_) gate_(task);
    sched_.finishTask(task, 0.0, true);
    ++done_;
  }

  void loop() {
    for (;;) {
      auto claim = sched_.claim();
      if (claim.tasks.empty()) return;
      for (const ScanTask& task : claim.tasks) finish(task);
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
  std::vector<std::thread> threads_;
};

TEST(ScanScheduler, EnqueueAllNeverLosesAWakeup) {
  // enqueueAll wakes at most one slot per queued task. Whatever the
  // interleaving, every task of a batch must still be claimed: with idle
  // slots, and with slots parked on a full memory budget.
  for (int round = 0; round < 200; ++round) {
    for (int k : {1, 3, 64}) {
      for (bool budgetBlocked : {false, true}) {
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
        Slots slots(sched, 4);
        std::vector<ScanTask> batch;
        for (int i = 0; i < k; ++i) batch.push_back(makeInteractive(10 + i));
        ASSERT_TRUE(sched.enqueueAll(std::move(batch)));
        ASSERT_TRUE(slots.awaitDone(k))
            << "round " << round << " k=" << k << " blocked=" << budgetBlocked;
        if (budgetBlocked) {
          sched.finishTask(held.tasks[0], 0.0, true);
          EXPECT_TRUE(sched.takeJoined(held.passId).empty());
          ASSERT_TRUE(slots.awaitDone(k + 1)) << "round " << round;
        }
      }
    }
  }
}

TEST(ScanScheduler, InteractiveArrivalWhileScansHoldEverySlot) {
  // No slot is waiting when the interactive task arrives, so enqueueAll
  // wakes none; the first slot to finish its scan must find it.
  for (int round = 0; round < 200; ++round) {
    ScanScheduler sched("w0", sharedScan(false));
    std::atomic<int> scansRunning{0};
    std::atomic<bool> release{false};
    Slots slots(sched, 4, [&](const ScanTask& task) {
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
    release.store(true);
    ASSERT_TRUE(slots.awaitDone(5)) << "round " << round;
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
