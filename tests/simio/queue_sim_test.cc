#include "simio/queue_sim.h"

#include <gtest/gtest.h>

namespace qserv::simio {
namespace {

CostParams fastParams() {
  CostParams p;
  p.nodeCount = 4;
  p.slotsPerNode = 2;
  p.perQueryFixedOverheadSec = 1.0;
  p.masterPerChunkOverheadSec = 0.01;
  return p;
}

TEST(QueueSim, EmptyQueryPaysOnlyFixedOverhead) {
  auto r = simulateQuery({}, fastParams());
  EXPECT_NEAR(r.elapsedSec(), 1.0, 1e-9);
}

TEST(QueueSim, SingleTaskLatency) {
  SimChunkTask t{0, 5.0, 0.5};
  auto r = simulateQuery({t}, fastParams());
  // 0.5 pre + 0.01 dispatch + 5 service + 0.5 collect + 0.5 post.
  EXPECT_NEAR(r.elapsedSec(), 6.51, 1e-6);
}

TEST(QueueSim, SlotsAllowParallelismWithinWorker) {
  // Two tasks on one 2-slot worker run concurrently.
  std::vector<SimChunkTask> tasks = {{0, 10.0, 0.0}, {0, 10.0, 0.0}};
  auto r = simulateQuery(tasks, fastParams());
  EXPECT_LT(r.elapsedSec(), 12.0);
  // Three tasks need two rounds.
  tasks.push_back({0, 10.0, 0.0});
  auto r3 = simulateQuery(tasks, fastParams());
  EXPECT_GT(r3.elapsedSec(), 20.0);
}

TEST(QueueSim, TasksSpreadAcrossWorkersRunConcurrently) {
  std::vector<SimChunkTask> tasks;
  for (int w = 0; w < 4; ++w) tasks.push_back({w, 10.0, 0.0});
  auto r = simulateQuery(tasks, fastParams());
  EXPECT_LT(r.elapsedSec(), 12.5);
}

TEST(QueueSim, DispatchOverheadGrowsLinearlyWithChunkCount) {
  // HV1 shape: tiny service, many chunks => time ~ chunks * overhead.
  CostParams p = CostParams::paper150();
  auto mk = [&](int chunks) {
    std::vector<SimChunkTask> tasks;
    for (int i = 0; i < chunks; ++i) {
      tasks.push_back({i % p.nodeCount, 0.01, 0.0005});
    }
    return simulateQuery(tasks, p).elapsedSec();
  };
  double t3000 = mk(3000);
  double t9000 = mk(9000);
  double overhead3000 = t3000 - p.perQueryFixedOverheadSec;
  double overhead9000 = t9000 - p.perQueryFixedOverheadSec;
  EXPECT_NEAR(overhead9000 / overhead3000, 3.0, 0.5);
  // And the 8983-chunk full-sky count lands in the paper's 20-30 s band.
  double hv1 = mk(8983);
  EXPECT_GT(hv1, 20.0);
  EXPECT_LT(hv1, 40.0);
}

TEST(QueueSim, WeakScalingKeepsScanTimeFlat) {
  // Constant data per node: N nodes, 60 chunks each, 30 s per chunk.
  auto timeFor = [&](int nodes) {
    CostParams p = CostParams::paperNodes(nodes);
    std::vector<SimChunkTask> tasks;
    for (int w = 0; w < nodes; ++w) {
      for (int c = 0; c < 60; ++c) tasks.push_back({w, 30.0, 0.001});
    }
    return simulateQuery(tasks, p).elapsedSec();
  };
  double t40 = timeFor(40);
  double t150 = timeFor(150);
  // Worker time is flat; only dispatch overhead grows. Allow 15%.
  EXPECT_LT(t150 / t40, 1.15);
}

TEST(QueueSim, FifoConvoysShortQueriesBehindScans) {
  // Fig 14 mechanism: a short query behind a long scan task on the same
  // worker waits for a slot.
  CostParams p = fastParams();
  p.nodeCount = 1;
  p.slotsPerNode = 1;
  SimQuery scan;
  scan.submitSec = 0.0;
  scan.tasks = {{0, 100.0, 0.0}};
  SimQuery point;
  point.submitSec = 1.0;
  point.tasks = {{0, 0.1, 0.0}};
  auto rs = simulateQueries({scan, point}, p);
  // The point query cannot finish before the scan's task releases the slot.
  EXPECT_GT(rs[1].completionSec, 100.0);
  // pre 0.5 + dispatch 0.01 + service 100 + post 0.5.
  EXPECT_NEAR(rs[0].elapsedSec(), 101.01, 0.1);
}

TEST(QueueSim, FifoServesOneTaskAtATimeInArrivalOrder) {
  // The paper's FIFO (lane off) ignores classes and never groups: three
  // tasks on one 1-slot node, scan / interactive / scan, finish in arrival
  // order, one after another.
  CostParams p = fastParams();
  p.nodeCount = 1;
  p.slotsPerNode = 1;
  p.perQueryFixedOverheadSec = 0.0;
  std::vector<SimQuery> qs(3);
  qs[0].tasks = {{0, 10.0, 0.0, 0.0, false}};
  qs[1].submitSec = 1.0;
  qs[1].tasks = {{0, 1.0, 0.0, 0.0, true}};
  qs[2].submitSec = 2.0;
  qs[2].tasks = {{0, 10.0, 0.0, 0.0, false}};
  auto rs = simulateQueries(qs, p);
  EXPECT_DOUBLE_EQ(rs[0].lastResultSec, 10.0);
  EXPECT_DOUBLE_EQ(rs[1].lastResultSec, 11.0);
  EXPECT_DOUBLE_EQ(rs[2].lastResultSec, 21.0);
}

TEST(QueueSim, FifoChargesEveryScanItsOwnPass) {
  // Three scans of the same chunk priced from their solo observables: the
  // FIFO baseline shares nothing, so each pays a full pass in turn.
  CostParams p = fastParams();
  p.nodeCount = 1;
  p.slotsPerNode = 1;
  p.perQueryFixedOverheadSec = 0.0;
  WorkObservables pass;
  pass.bytesScanned = 200e6;
  const double service = workerServiceSeconds(pass, p);
  ASSERT_GT(service, 0.0);
  std::vector<SimQuery> qs(3);
  for (auto& q : qs) q.tasks = {{0, service, 0.0, 0.0, false}};
  auto rs = simulateQueries(qs, p);
  EXPECT_DOUBLE_EQ(rs[2].lastResultSec, 3.0 * service);
}

TEST(QueueSim, LaneReservedSlotServesInteractiveBesideBusySlots) {
  // Lane on: both general slots hold long scans, and the reserved slot
  // still starts an interactive arrival at once; it never runs a scan, so
  // a third scan waits for a general slot.
  CostParams p = fastParams();
  p.nodeCount = 1;
  p.slotsPerNode = 2;
  p.perQueryFixedOverheadSec = 0.0;
  p.workerPriorityLane = true;
  std::vector<SimQuery> qs(4);
  for (int i = 0; i < 3; ++i) qs[i].tasks = {{0, 100.0, 0.0, 0.0, false}};
  qs[3].submitSec = 1.0;
  qs[3].tasks = {{0, 1.0, 0.0, 0.0, true}};
  auto rs = simulateQueries(qs, p);
  EXPECT_DOUBLE_EQ(rs[3].lastResultSec, 2.0);
  EXPECT_DOUBLE_EQ(rs[2].lastResultSec, 200.0);
  p.workerPriorityLane = false;
  EXPECT_GT(simulateQueries(qs, p)[3].lastResultSec, 100.0);
}

TEST(QueueSim, TwoConcurrentScansDoubleElapsedTime) {
  // Fig 14: two HV2-like scans take ~2x their solo time.
  CostParams p = CostParams::paper150();
  // Dispatch in chunkId order: consecutive chunks live on different workers
  // (round-robin placement), so two concurrent full scans interleave in
  // every worker's FIFO queue.
  auto mkQuery = [&](double submit) {
    SimQuery q;
    q.submitSec = submit;
    for (int c = 0; c < 15; ++c) {
      for (int w = 0; w < p.nodeCount; ++w) q.tasks.push_back({w, 10.0, 0.001});
    }
    return q;
  };
  double solo = simulateQueries({mkQuery(0)}, p)[0].elapsedSec();
  auto both = simulateQueries({mkQuery(0), mkQuery(0.1)}, p);
  EXPECT_NEAR(both[0].elapsedSec() / solo, 2.0, 0.35);
  EXPECT_NEAR(both[1].elapsedSec() / solo, 2.0, 0.35);
}

TEST(QueueSim, CollectStageIsSerialized) {
  // Many simultaneous results serialize through the master loader.
  CostParams p = fastParams();
  p.nodeCount = 100;
  std::vector<SimChunkTask> tasks;
  for (int w = 0; w < 100; ++w) tasks.push_back({w, 1.0, 1.0});
  auto r = simulateQuery(tasks, p);
  // 100 results x 1 s each load serially => >= 100 s.
  EXPECT_GT(r.elapsedSec(), 100.0);
}

TEST(QueueSim, DeterministicAcrossRuns) {
  CostParams p = CostParams::paper150();
  std::vector<SimChunkTask> tasks;
  for (int i = 0; i < 500; ++i) tasks.push_back({i % 150, 0.5 + (i % 7), 0.01});
  auto a = simulateQuery(tasks, p);
  auto b = simulateQuery(tasks, p);
  EXPECT_DOUBLE_EQ(a.completionSec, b.completionSec);
}

TEST(QueueSim, SubmitTimeShiftsEverything) {
  SimChunkTask t{0, 5.0, 0.5};
  SimQuery q;
  q.submitSec = 100.0;
  q.tasks = {t};
  auto r = simulateQueries({q}, fastParams())[0];
  EXPECT_NEAR(r.elapsedSec(), 6.51, 1e-6);
  EXPECT_GT(r.completionSec, 100.0);
}

}  // namespace
}  // namespace qserv::simio
