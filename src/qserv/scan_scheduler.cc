#include "qserv/scan_scheduler.h"

#include <algorithm>
#include <iterator>

#include "util/metrics.h"
#include "util/stopwatch.h"

namespace qserv::core {

namespace {
/// Process-wide scheduler instruments (shared by all in-process workers,
/// like the other worker.* counters).
struct SchedulerMetrics {
  util::Counter& scanPasses;
  util::Counter& scanJoins;
  util::Counter& budgetWaits;
  util::Counter& slowScanEvictions;
  util::Histogram& scanGroupSize;
  util::Histogram& budgetWaitSeconds;

  static SchedulerMetrics& instance() {
    auto& reg = util::MetricsRegistry::instance();
    static SchedulerMetrics* m = new SchedulerMetrics{
        reg.counter("worker.scan_passes"),
        reg.counter("worker.scan_joins"),
        reg.counter("worker.budget_waits"),
        reg.counter("worker.slow_scan_evictions"),
        reg.histogram("worker.scan_group_size"),
        reg.histogram("worker.budget_wait_seconds"),
    };
    return *m;
  }
};
}  // namespace

const char* queryClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kInteractive:
      return "interactive";
    case QueryClass::kScan:
      return "scan";
  }
  return "scan";
}

ScanScheduler::ScanScheduler(std::string workerId, ScanSchedulerConfig config)
    : workerId_(std::move(workerId)),
      config_(config),
      budget_(config.scanMemoryBudgetBytes) {
  paused_ = config_.startPaused;
}

bool ScanScheduler::enqueue(ScanTask task) {
  std::vector<ScanTask> one;
  one.push_back(std::move(task));
  return enqueueAll(std::move(one));
}

bool ScanScheduler::enqueueAll(std::vector<ScanTask> tasks) {
  std::size_t queued = 0;
  std::size_t interactive = 0;
  std::size_t waiting = 0;
  std::size_t reservedWaiting = 0;
  {
    std::lock_guard lock(mu_);
    if (shuttingDown_) return false;
    for (ScanTask& task : tasks) {
      bool lookup = task.cls == QueryClass::kInteractive;
      if (routeTask(std::move(task))) {
        ++queued;
        if (lookup) ++interactive;
      }
    }
    waiting = waiting_;
    reservedWaiting = reservedWaiting_;
  }
  // Wake at most one waiting general slot per queued task: a one-chunk
  // batch wakes one slot, not all of them. A slot that claims nothing
  // re-runs the same checks any other would, and busy slots find the rest
  // when they come back to claim().
  if (queued >= waiting) {
    cv_.notify_all();
  } else {
    for (std::size_t i = 0; i < queued; ++i) cv_.notify_one();
  }
  // Interactive tasks beyond the waiting general slots (all of them while
  // scans hold every general slot) wake reserved slots, on their own
  // condition variable: a scan's wakeup never lands on a reserved slot.
  std::size_t overflow = interactive > waiting ? interactive - waiting : 0;
  for (std::size_t i = 0; i < std::min(overflow, reservedWaiting); ++i) {
    reservedCv_.notify_one();
  }
  return true;
}

bool ScanScheduler::routeTask(ScanTask&& task) {
  if (task.cls == QueryClass::kInteractive) {
    interactive_.push_back(std::move(task));
    return true;
  }
  if (config_.slowScanFactor > 0.0 && task.queryId != 0) {
    ++rates_[task.queryId].open;
    task.rated = true;
  }
  int tier = tierOf(task.queryId);
  auto active = activePass_.find({tier, task.chunkId});
  if (active != activePass_.end()) {
    // The chunk's pass is in flight: merge into the open group and share
    // the read instead of paying a second pass.
    passes_[active->second].joined.push_back(std::move(task));
    SchedulerMetrics::instance().scanJoins.add();
    return false;
  }
  scans_[tier].push_back(std::move(task));
  return true;
}

ScanScheduler::Claim ScanScheduler::claimOne(std::deque<ScanTask>& lane) {
  Claim claim;
  claim.tasks.push_back(std::move(lane.front()));
  lane.pop_front();
  ++inflight_;
  return claim;
}

ScanScheduler::Claim ScanScheduler::claimInteractiveOnly(
    std::unique_lock<std::mutex>& lock) {
  for (;;) {
    if (!paused_ && !interactive_.empty()) return claimOne(interactive_);
    if (shuttingDown_) return {};  // drained: the lane is empty
    ++reservedWaiting_;
    reservedCv_.wait(lock);
    --reservedWaiting_;
  }
}

ScanScheduler::Claim ScanScheduler::claim(SlotKind slot) {
  std::unique_lock lock(mu_);
  if (slot == SlotKind::kInteractiveOnly) return claimInteractiveOnly(lock);
  auto& metrics = SchedulerMetrics::instance();
  bool budgetWaiting = false;
  util::Stopwatch budgetWatch;
  auto finishBudgetWait = [&] {
    if (!budgetWaiting) return;
    metrics.budgetWaitSeconds.observe(budgetWatch.elapsedSeconds());
    budgetWaiting = false;
  };
  for (;;) {
    while (!shuttingDown_ &&
           (paused_ || (interactive_.empty() && scans_[kFastTier].empty() &&
                        scans_[kSlowTier].empty()))) {
      ++waiting_;
      cv_.wait(lock);
      --waiting_;
    }
    if (shuttingDown_ && interactive_.empty() &&
        scans_[kFastTier].empty() && scans_[kSlowTier].empty()) {
      return {};  // drained
    }
    // Interactive lane first: these tasks never wait behind a scan group
    // and never touch the memory budget.
    if (!interactive_.empty()) {
      finishBudgetWait();
      return claimOne(interactive_);
    }
    // Scan lanes, fast tier before slow.
    for (int tier = kFastTier; tier < kNumTiers; ++tier) {
      std::deque<ScanTask>& lane = scans_[tier];
      if (lane.empty()) continue;
      std::int32_t chunk = lane.front().chunkId;
      std::string memKey;
      if (!shuttingDown_) {  // at shutdown, drain without budgeting
        memKey = "chunk:" + std::to_string(chunk);
        if (!budget_.tryLock(memKey, lane.front().memoryBytes)) {
          // Memory is full: wait for a pass to close (closePass notifies)
          // or an interactive arrival, then re-evaluate from the top.
          if (!budgetWaiting) {
            budgetWaiting = true;
            budgetWatch.reset();
            metrics.budgetWaits.add();
          }
          memKey.clear();
          continue;
        }
      }
      finishBudgetWait();
      Claim claim;
      for (auto it = lane.begin(); it != lane.end();) {
        if (it->chunkId == chunk) {
          claim.tasks.push_back(std::move(*it));
          it = lane.erase(it);
        } else {
          ++it;
        }
      }
      claim.passId = nextPassId_++;
      Pass& pass = passes_[claim.passId];
      pass.tier = tier;
      pass.chunkId = chunk;
      pass.memKey = std::move(memKey);
      activePass_[{tier, chunk}] = claim.passId;
      inflight_ += claim.tasks.size();
      metrics.scanPasses.add();
      metrics.scanGroupSize.observe(
          static_cast<double>(claim.tasks.size()));
      return claim;
    }
    if (budgetWaiting) {
      // Every claimable scan is budget-blocked and no interactive work is
      // queued: sleep until a pass closes or something arrives.
      ++waiting_;
      cv_.wait(lock);
      --waiting_;
    }
  }
}

std::vector<ScanTask> ScanScheduler::takeJoined(std::uint64_t passId) {
  std::unique_lock lock(mu_);
  auto it = passes_.find(passId);
  if (it == passes_.end()) return {};
  Pass& pass = it->second;
  if (!pass.joined.empty()) {
    std::vector<ScanTask> out;
    out.reserve(pass.joined.size());
    std::move(pass.joined.begin(), pass.joined.end(),
              std::back_inserter(out));
    pass.joined.clear();
    inflight_ += out.size();
    return out;
  }
  // Empty drain closes the pass atomically: an enqueue after this point
  // finds no active pass and queues a fresh one — a join is never lost.
  closePass(it);
  lock.unlock();
  cv_.notify_all();
  return {};
}

void ScanScheduler::closePass(std::map<std::uint64_t, Pass>::iterator it) {
  Pass& pass = it->second;
  activePass_.erase({pass.tier, pass.chunkId});
  if (!pass.memKey.empty()) budget_.unlock(pass.memKey);
  passes_.erase(it);
}

void ScanScheduler::finishTask(const ScanTask& task, double execSeconds,
                               bool executed) {
  std::lock_guard lock(mu_);
  if (inflight_ > 0) --inflight_;
  if (task.cls != QueryClass::kScan || config_.slowScanFactor <= 0.0) return;
  if (executed) rateQuery(task.queryId, execSeconds);
  if (!task.rated) return;
  // The batch's last scan task here, executed or skipped as abandoned,
  // drops its rating: rate keys are per batch and never come back.
  auto it = rates_.find(task.queryId);
  if (it != rates_.end() && --it->second.open == 0) rates_.erase(it);
}

int ScanScheduler::tierOf(std::uint64_t queryId) const {
  auto it = rates_.find(queryId);
  return it != rates_.end() && it->second.slow ? kSlowTier : kFastTier;
}

void ScanScheduler::rateQuery(std::uint64_t queryId, double execSeconds) {
  auto& rate = rates_[queryId];
  rate.ewmaSec = rate.ewmaSec == 0.0
                     ? execSeconds
                     : 0.5 * rate.ewmaSec + 0.5 * execSeconds;
  // The reference tracks fast-tier behaviour only: a query already rated
  // slow must not drag the bar up and mask other slow queries.
  if (!rate.slow) {
    refSec_ = refSec_ == 0.0 ? execSeconds
                             : 0.8 * refSec_ + 0.2 * execSeconds;
  }
  if (!rate.slow && queryId != 0 && refSec_ > 0.0 &&
      rate.ewmaSec > config_.slowScanFactor * refSec_) {
    rate.slow = true;
    SchedulerMetrics::instance().slowScanEvictions.add();
    evictToSlowTier(queryId);
  }
}

void ScanScheduler::evictToSlowTier(std::uint64_t queryId) {
  // Queued fast-tier tasks of the newly slow query move to the slow lane so
  // they ride their own pass instead of dragging the fast tier. Tasks
  // already joined to an open pass stay: they share a read that is already
  // being paid.
  std::deque<ScanTask>& fast = scans_[kFastTier];
  for (auto it = fast.begin(); it != fast.end();) {
    if (it->queryId == queryId) {
      scans_[kSlowTier].push_back(std::move(*it));
      it = fast.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t ScanScheduler::queuedLocked() const {
  std::size_t queued = interactive_.size() + scans_[kFastTier].size() +
                       scans_[kSlowTier].size();
  for (const auto& [id, pass] : passes_) queued += pass.joined.size();
  return queued;
}

std::size_t ScanScheduler::depth() const {
  std::lock_guard lock(mu_);
  return queuedLocked() + inflight_;
}

std::size_t ScanScheduler::queuedOnly() const {
  std::lock_guard lock(mu_);
  return queuedLocked();
}

bool ScanScheduler::isSlowQuery(std::uint64_t queryId) const {
  std::lock_guard lock(mu_);
  auto it = rates_.find(queryId);
  return it != rates_.end() && it->second.slow;
}

std::size_t ScanScheduler::ratedQueries() const {
  std::lock_guard lock(mu_);
  return rates_.size();
}

std::size_t ScanScheduler::parkedSlots(SlotKind kind) const {
  std::lock_guard lock(mu_);
  return kind == SlotKind::kInteractiveOnly ? reservedWaiting_ : waiting_;
}

bool ScanScheduler::isShuttingDown() const {
  std::lock_guard lock(mu_);
  return shuttingDown_;
}

void ScanScheduler::resume() {
  {
    std::lock_guard lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
  reservedCv_.notify_all();
}

void ScanScheduler::shutdown() {
  {
    std::lock_guard lock(mu_);
    if (shuttingDown_) return;
    shuttingDown_ = true;
    paused_ = false;
  }
  cv_.notify_all();
  reservedCv_.notify_all();
}

}  // namespace qserv::core
