/// \file queue_sim.h
/// \brief Virtual-time simulation of worker FIFO queues and master overhead.
///
/// Reproduces the scheduling behaviour the paper describes in §6.4: "worker
/// nodes maintain first-in-first-out queues for queries and do not implement
/// any concept of query cost", so long scan tasks convoy short interactive
/// tasks behind them (Fig 14). Each worker node runs `slotsPerNode` executor
/// slots; chunk-query tasks start in arrival order on the earliest free slot.
/// With CostParams::workerPriorityLane the nodes run the real worker's lane
/// rule instead (qserv/scan_scheduler.h).
///
/// The master dispatches a query's chunk tasks serially (fixed per-chunk
/// cost — the §7.6 single-master bottleneck and the linear trend of HV1 in
/// Fig 11) and loads results serially as they arrive.
#pragma once

#include <cstdint>
#include <vector>

#include "simio/cost_model.h"

namespace qserv::simio {

/// One chunk query to simulate.
struct SimChunkTask {
  int worker = 0;           ///< node that owns the chunk
  double serviceSec = 0.0;  ///< worker execution time (workerServiceSeconds)
  double collectSec = 0.0;  ///< master load time (masterCollectSeconds)
  /// Master dispatch cost of this task; < 0 means "use the default
  /// masterPerChunkOverheadSec". Batched dispatch sets the amortized
  /// per-chunk cost here (amortizedBatchDispatchSec).
  double dispatchSec = -1.0;
  /// Interactive-class task (point/secondary-index lookup). Only consulted
  /// when CostParams::workerPriorityLane is on: interactive tasks then claim
  /// a free slot ahead of any queued scan task (the §4.3 scheduler fix);
  /// otherwise the queue is the paper's pure FIFO.
  bool interactive = false;
};

/// One user query: submitted at \p submitSec, fanning out \p tasks.
struct SimQuery {
  double submitSec = 0.0;
  std::vector<SimChunkTask> tasks;
};

struct SimQueryResult {
  double submitSec = 0.0;
  double dispatchDoneSec = 0.0;   ///< last chunk query written
  double lastResultSec = 0.0;     ///< last worker completion
  double completionSec = 0.0;     ///< result table ready at the frontend
  double elapsedSec() const { return completionSec - submitSec; }
};

/// Simulate \p queries sharing one cluster. Queries interact only through
/// worker FIFO queues and the serialized master collect stage, which is how
/// the real system couples them.
std::vector<SimQueryResult> simulateQueries(const std::vector<SimQuery>& queries,
                                            const CostParams& params);

/// Convenience for one query starting at t=0.
SimQueryResult simulateQuery(const std::vector<SimChunkTask>& tasks,
                             const CostParams& params);

}  // namespace qserv::simio
