#include "simio/queue_sim.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace qserv::simio {

namespace {

struct PendingTask {
  double arrivalSec = 0.0;
  double serviceSec = 0.0;
  double collectSec = 0.0;
  std::size_t queryIdx = 0;
  std::size_t seq = 0;  // global tie-break for deterministic FIFO order
  bool interactive = false;
};

}  // namespace

std::vector<SimQueryResult> simulateQueries(const std::vector<SimQuery>& queries,
                                            const CostParams& params) {
  std::vector<SimQueryResult> results(queries.size());
  const double preDispatch = params.perQueryFixedOverheadSec * 0.5;
  const double postCollect = params.perQueryFixedOverheadSec * 0.5;

  // Phase 1: master dispatch — serial per query, concurrent across queries
  // (each session has its own frontend thread; the shared cost is modeled in
  // the serialized collect stage below).
  std::vector<std::vector<PendingTask>> perWorker(
      static_cast<std::size_t>(std::max(1, params.nodeCount)));
  std::size_t seq = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const SimQuery& query = queries[q];
    results[q].submitSec = query.submitSec;
    double dispatchStart = query.submitSec + preDispatch;
    double t = dispatchStart;
    for (const SimChunkTask& task : query.tasks) {
      t += task.dispatchSec >= 0 ? task.dispatchSec
                                 : params.masterPerChunkOverheadSec;
      PendingTask p;
      p.arrivalSec = t;
      p.serviceSec = task.serviceSec;
      p.collectSec = task.collectSec;
      p.queryIdx = q;
      p.seq = seq++;
      p.interactive = task.interactive;
      std::size_t w = static_cast<std::size_t>(task.worker) %
                      perWorker.size();
      perWorker[w].push_back(p);
    }
    results[q].dispatchDoneSec = t;
    if (query.tasks.empty()) {
      results[q].lastResultSec = t;
      results[q].completionSec = t + postCollect;
    }
  }

  // Phase 2: worker FIFO queues with K slots each.
  struct Finished {
    double readySec;
    double collectSec;
    std::size_t queryIdx;
    std::size_t seq;
  };
  std::vector<Finished> finished;
  for (auto& tasks : perWorker) {
    if (tasks.empty()) continue;
    std::sort(tasks.begin(), tasks.end(), [](const auto& a, const auto& b) {
      if (a.arrivalSec != b.arrivalSec) return a.arrivalSec < b.arrivalSec;
      return a.seq < b.seq;
    });
    const std::size_t generalSlots =
        static_cast<std::size_t>(std::max(1, params.slotsPerNode));
    if (!params.workerPriorityLane) {
      // The paper's FIFO: each task, in arrival order, takes the slot that
      // frees first (a min-heap of slot free times).
      std::priority_queue<double, std::vector<double>, std::greater<>> slots;
      for (std::size_t s = 0; s < generalSlots; ++s) slots.push(0.0);
      for (const PendingTask& p : tasks) {
        double free = slots.top();
        slots.pop();
        double start = std::max(free, p.arrivalSec);
        double end = start + p.serviceSec;
        slots.push(end);
        finished.push_back({end, p.collectSec, p.queryIdx, p.seq});
      }
      continue;
    }
    // Priority lane (the §4.3 scheduler, ScanScheduler's rule): beside the
    // general slots run kInteractiveOnlySlots slots that take interactive
    // tasks only; a general slot takes the earliest waiting interactive task
    // ahead of any scan. Each step starts one task on the slot that can
    // start soonest; on a tie a general slot goes first, as the worker
    // wakes a reserved slot only for lookups beyond its idle general
    // slots. Each lane is served in arrival order.
    std::vector<const PendingTask*> lanes[2];  // [0]=interactive, [1]=scan
    for (const PendingTask& p : tasks) lanes[p.interactive ? 0 : 1].push_back(&p);
    std::size_t next[2] = {0, 0};
    auto frontArrival = [&](int lane) {
      return next[lane] < lanes[lane].size()
                 ? lanes[lane][next[lane]]->arrivalSec
                 : std::numeric_limits<double>::infinity();
    };
    struct Slot {
      double freeSec = 0.0;
      bool reserved = false;
    };
    std::vector<Slot> laneSlots(generalSlots, Slot{0.0, false});
    laneSlots.resize(generalSlots + kInteractiveOnlySlots, Slot{0.0, true});
    for (std::size_t remaining = tasks.size(); remaining > 0; --remaining) {
      Slot* slot = nullptr;
      double start = std::numeric_limits<double>::infinity();
      for (Slot& s : laneSlots) {
        double ready = s.reserved ? frontArrival(0)
                                  : std::min(frontArrival(0), frontArrival(1));
        double t = std::max(s.freeSec, ready);
        if (t < start) {
          start = t;
          slot = &s;
        }
      }
      int lane = frontArrival(0) <= start ? 0 : 1;
      const PendingTask* p = lanes[lane][next[lane]++];
      slot->freeSec = start + p->serviceSec;
      finished.push_back({slot->freeSec, p->collectSec, p->queryIdx, p->seq});
    }
  }

  // Phase 3: master collect — a single serialized loader (mysqldump replay
  // into the frontend database), processing results in ready order.
  std::sort(finished.begin(), finished.end(), [](const auto& a, const auto& b) {
    if (a.readySec != b.readySec) return a.readySec < b.readySec;
    return a.seq < b.seq;
  });
  double masterFree = 0.0;
  for (const Finished& f : finished) {
    double start = std::max(masterFree, f.readySec);
    double end = start + f.collectSec;
    masterFree = end;
    SimQueryResult& r = results[f.queryIdx];
    r.lastResultSec = std::max(r.lastResultSec, f.readySec);
    r.completionSec = std::max(r.completionSec, end + postCollect);
  }
  return results;
}

SimQueryResult simulateQuery(const std::vector<SimChunkTask>& tasks,
                             const CostParams& params) {
  SimQuery q;
  q.tasks = tasks;
  return simulateQueries({q}, params)[0];
}

}  // namespace qserv::simio
