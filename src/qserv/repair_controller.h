/// \file repair_controller.h
/// \brief The self-healing replication control plane (ROADMAP item 4).
///
/// PR 3 gave the cluster reactive failure handling — retries, replica
/// exclude sets, circuit breakers — but replication itself stayed static
/// config: when a worker died the cluster served on with permanently reduced
/// redundancy. This controller closes the loop from detection to healing:
///
///  - Health monitor: periodic /ping probes over the xrd layer drive a
///    per-worker up/suspect/down state machine with hysteresis (suspectAfter
///    consecutive failures -> suspect, downAfter -> down, upAfter successes
///    -> up). Probe outcomes also train the redirector's per-worker circuit
///    breakers (through their own half-open gating), so the query path and
///    the control plane share one view of worker health instead of keeping
///    two.
///  - Re-replication: when a worker is declared down it is quarantined in
///    the redirector and every chunk whose live replica count fell below the
///    target is copied worker-to-worker (/chunk read -> MD5 verify ->
///    /chunkload write), throttled by a concurrent-transfer budget so repair
///    traffic does not starve queries.
///  - Rebalance: replicas migrate off hot workers (queue-depth from pings,
///    chunk-count tiebreak) copy-then-drop, so placement counts never dip.
///  - Live placement + ingest: placement changes (replica installed, worker
///    evicted, chunk ingested from CSV -> partition -> load) publish
///    atomically into the redirector's locate path and the frontend's
///    available-chunk snapshot; in-flight queries keep the placement they
///    resolved, new queries see the new one — no restarts.
///
/// Everything is observable through repair.* metrics and per-copy trace
/// spans (lastTrace()).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datagen/partitioner.h"
#include "qserv/catalog_config.h"
#include "util/backoff.h"
#include "util/trace.h"
#include "xrd/redirector.h"

namespace qserv::core {

class QservFrontend;

struct RepairConfig {
  /// Monitor-thread probe cadence (start()). probeOnce() ignores it.
  std::chrono::milliseconds probeInterval{50};
  int suspectAfter = 1;  ///< consecutive probe failures -> suspect
  int downAfter = 3;     ///< consecutive probe failures -> down (quarantine)
  int upAfter = 2;       ///< consecutive successes -> up again (hysteresis)
  /// Desired live replicas per chunk (capped by the live worker count).
  int replicationTarget = 2;
  /// Concurrent chunk transfers during repair/rebalance/ingest. Low values
  /// keep repair traffic from starving queries (bench_repair's gate).
  int transferBudget = 2;
  /// Fraction of wall time each transfer slot may spend copying (0 < d <=
  /// 1; 1 disables pacing). After every copy the slot idles proportionally,
  /// so background repair cannot monopolize CPU or disk against the query
  /// path even on a loaded (or single-core) machine.
  double copyDutyCycle = 0.33;
  /// Re-replicate automatically when the monitor declares a worker down.
  bool autoRepair = true;
  int copyAttempts = 3;  ///< per chunk copy, rotating over source replicas
  util::BackoffPolicy copyBackoff;  ///< sleep schedule between copy retries
  std::uint64_t seed = 0x9e37ULL;   ///< decorrelates copy-retry jitter
};

class RepairController {
 public:
  enum class WorkerHealth { kUp, kSuspect, kDown };

  RepairController(RepairConfig config, xrd::RedirectorPtr redirector,
                   CatalogConfig catalog);
  ~RepairController();

  RepairController(const RepairController&) = delete;
  RepairController& operator=(const RepairController&) = delete;

  /// Wire the frontend that receives live placement updates on ingest
  /// (available-chunk merges + secondary-index loads). Optional.
  void attachFrontend(QservFrontend* frontend) { frontend_ = frontend; }

  /// Start the background monitor thread (probe every probeInterval,
  /// auto-repair on down transitions). Idempotent.
  void start();
  /// Stop and join the monitor thread. Idempotent; also run by ~.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// One synchronous probe round over every registered worker: pings each,
  /// advances the health state machine, trains the redirector breakers, and
  /// (de)quarantines on transitions. Returns true when any worker was newly
  /// declared down this round. Deterministic building block for tests; the
  /// monitor thread calls exactly this.
  bool probeOnce();

  /// Enumerate chunks whose live replica count is below target and copy
  /// them to healthy workers, throttled by the transfer budget. Returns the
  /// number of chunk replicas successfully created.
  util::Result<int> repairOnce();

  /// Migrate up to \p maxMoves chunk replicas from the most loaded live
  /// worker to the least loaded (copy to the destination, then drop the
  /// source replica — counts never dip). Returns moves performed.
  util::Result<int> rebalanceOnce(int maxMoves = 4);

  /// Copy one chunk onto \p destId from any of \p sourceIds (MD5-verified,
  /// with backoff retries rotating over sources). Publicly exposed for
  /// targeted tests; repairOnce()/rebalanceOnce() build on it.
  util::Status replicateChunk(std::int32_t chunkId,
                              const std::vector<std::string>& sourceIds,
                              const std::string& destId,
                              util::Trace* trace = nullptr);

  /// Ingest an already partitioned catalog while serving: install every
  /// chunk on replicationTarget live workers, publish placement to the
  /// redirector, then (if a frontend is attached) load the secondary-index
  /// entries and merge the new chunk ids into the dispatchable set.
  util::Status ingest(const datagen::PartitionedCatalog& catalog);

  /// CSV -> partition -> load, concurrent with query serving. Object rows:
  /// "objectId,ra,decl[,uRadius,flux0..flux5,uFluxSg]"; source rows:
  /// "sourceId,objectId,ra,decl[,psfFlux,psfFluxErr,taiMidPoint]". Lines
  /// starting with '#' are skipped. Returns the number of chunks ingested.
  util::Result<std::size_t> ingestCsv(const std::string& objectsCsv,
                                      const std::string& sourcesCsv = "");

  WorkerHealth health(const std::string& workerId) const;
  static const char* healthName(WorkerHealth h);

  /// Chunks whose live replica count is below the effective target, sorted.
  std::vector<std::int32_t> underReplicatedChunks() const;

  struct WorkerStatus {
    std::string id;
    WorkerHealth health = WorkerHealth::kUp;
    int failStreak = 0;
    int okStreak = 0;
    std::size_t queueDepth = 0;  ///< from the last successful ping
    std::size_t chunks = 0;      ///< replicas placed per the redirector
  };
  /// Per-worker health/load view, sorted by worker id.
  std::vector<WorkerStatus> status() const;

  /// Human-readable controller status (the shell's \repair command).
  std::string statusText() const;

  /// The trace of the most recent repair/rebalance run (per-copy spans),
  /// or nullptr before the first run.
  util::TracePtr lastTrace() const;

  const RepairConfig& config() const { return config_; }

 private:
  struct WorkerState {
    WorkerHealth health = WorkerHealth::kUp;
    int failStreak = 0;
    int okStreak = 0;
    std::size_t queueDepth = 0;
  };

  void monitorLoop();
  /// Live = health not kDown and the server reports isUp(). Sorted ids.
  std::vector<std::string> liveServers() const;
  /// Replica counts per live server (servers with zero replicas included).
  std::map<std::string, std::size_t> replicaLoad(
      const std::map<std::int32_t, std::vector<std::string>>& placement,
      const std::vector<std::string>& live) const;

  const RepairConfig config_;
  xrd::RedirectorPtr redirector_;
  const CatalogConfig catalog_;
  std::atomic<QservFrontend*> frontend_{nullptr};

  mutable std::mutex stateMutex_;  ///< guards states_ and lastTrace_
  std::map<std::string, WorkerState> states_;
  util::TracePtr lastTrace_;

  /// Serializes repair/rebalance/ingest runs (the monitor thread and test
  /// callers may race).
  std::mutex repairMutex_;
  std::uint64_t runs_ = 0;  ///< repair/rebalance traces made; repairMutex_

  std::atomic<bool> running_{false};
  std::mutex monitorMutex_;
  std::condition_variable monitorCv_;
  bool stopRequested_ = false;
  std::thread monitor_;
};

}  // namespace qserv::core
