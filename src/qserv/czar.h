/// \file czar.h
/// \brief The Qserv frontend ("czar" + proxy facade).
///
/// Accepts MySQL-dialect SQL (the role the MySQL Proxy plays in the paper's
/// Fig. 1), analyzes and fragments it into chunk queries, prunes the chunk
/// set (spatial restriction -> chunker cover; objectId predicate ->
/// secondary index; otherwise full sky), dispatches over the xrd fabric,
/// merges results, and runs the final aggregation. Also reports virtual-time
/// chunk tasks so callers can feed the cluster queue simulation — alone (a
/// solo timing is included) or jointly with concurrent queries (Fig 14).
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "qserv/catalog_config.h"
#include "qserv/dispatcher.h"
#include "qserv/query_analysis.h"
#include "qserv/query_profile.h"
#include "qserv/query_rewriter.h"
#include "qserv/secondary_index.h"
#include "simio/queue_sim.h"
#include "sql/database.h"
#include "util/stopwatch.h"
#include "util/trace.h"
#include "xrd/redirector.h"

namespace qserv::core {

struct FrontendConfig {
  CatalogConfig catalog;
  simio::CostParams cost;
  int dispatchParallelism = 16;
  int dispatchMaxAttempts = 3;  ///< per chunk query, across replicas
  util::BackoffPolicy dispatchBackoff;  ///< retry sleep schedule
  /// Unread result frames a worker may buffer per batch stream before it
  /// stalls (backpressure toward the merger).
  int dispatchStreamWindow = 8;
  /// Per-query wall-clock budget in seconds; <= 0 means unlimited. When the
  /// budget runs out, in-flight chunk attempts stop and the query fails
  /// with DEADLINE_EXCEEDED instead of hanging on a dead replica.
  double queryDeadlineSeconds = 0.0;
  /// Build a QueryProfile for every query and persist its summary into the
  /// metadata DB's QueryStats table. EXPLAIN ANALYZE profiles regardless.
  /// Initial value of the runtime toggle (setProfilingEnabled). A query
  /// is traced only when it is profiled.
  bool enableProfiling = true;
  /// Queries slower than this (seconds) emit their profile summary as a
  /// structured QLOG line under component "slowquery"; <= 0 disables.
  double slowQuerySeconds = 0.0;
  /// Finished queries retained by processList() (was hard-coded at 32).
  std::size_t processListHistory = 32;
  /// Full QueryProfile objects retained for profileFor().
  std::size_t profileHistory = 64;
  /// QueryStats summary rows retained in the metadata DB. Oldest rows are
  /// evicted past the cap (like processListHistory) so a long-running
  /// frontend does not grow without bound; 0 keeps none.
  std::size_t queryStatsHistory = 1024;
};

class QservFrontend {
 public:
  /// \param availableChunks chunks that actually hold data (the test
  ///        dataset does not cover all of the sky; §6.3 also shrinks this
  ///        set to emulate smaller clusters).
  QservFrontend(FrontendConfig config, xrd::RedirectorPtr redirector,
                std::vector<std::int32_t> availableChunks);

  /// Per-chunk work accounting (for re-mapping onto simulated clusters of
  /// a different size — the paper's 150-node runs).
  struct ChunkAccounting {
    std::int32_t chunkId = 0;
    std::string workerId;
    simio::WorkObservables observables;
  };

  /// Execution record for one user query.
  struct Execution {
    sql::TablePtr result;
    std::size_t chunksDispatched = 0;
    std::uint64_t rowsMerged = 0;
    /// Batch requests planned, one per worker holding chunks.
    std::size_t dispatchBatches = 0;
    std::vector<ChunkAccounting> accounting;
    /// Scheduler class the czar derived and shipped to workers (frontend-only
    /// queries are interactive: they never touch a worker queue).
    QueryClass queryClass = QueryClass::kInteractive;
    /// Virtual-time tasks (worker index, service seconds, collect seconds)
    /// for the cluster queue simulation.
    std::vector<simio::SimChunkTask> simTasks;
    /// This query simulated alone on an idle cluster.
    simio::SimQueryResult soloTiming;
    double wallSeconds = 0.0;  ///< real elapsed time of this execution
    /// This frontend's id of the query (processList(), profileFor(),
    /// QueryStats); a traced query's trace carries the same id.
    std::uint64_t queryId = 0;
    /// Spans from every component this query touched; export with
    /// trace->toChromeJson(). Set only for a traced query: one that ran
    /// with profiling enabled or as EXPLAIN ANALYZE. Null otherwise — an
    /// unprofiled query records no spans anywhere.
    util::TracePtr trace;
    /// Per-stage resource accounting derived from the trace. Set when
    /// profiling is enabled (FrontendConfig::enableProfiling) or the
    /// statement was EXPLAIN ANALYZE; null for plain EXPLAIN.
    std::shared_ptr<const QueryProfile> profile;
  };

  /// One row of the SHOW PROCESSLIST-style view: an in-flight or recently
  /// finished query.
  struct QueryInfo {
    std::uint64_t id = 0;
    std::string sql;
    /// analyzing | rewriting | dispatching | merging | finalizing | done |
    /// failed: <status>
    std::string state;
    std::size_t chunksTotal = 0;      ///< chunk queries planned
    std::size_t chunksCompleted = 0;  ///< chunk queries finished so far
    double elapsedSeconds = 0.0;      ///< so far (live) or total (finished)
    bool finished = false;
    /// Failure Status string for failed queries; empty while running or on
    /// success (machine-readable companion of the "failed: ..." state).
    std::string failureStatus;
  };

  /// Execute \p sql end to end. `EXPLAIN <select>` returns the plan as a
  /// result table without executing; `EXPLAIN ANALYZE <select>` executes
  /// and returns the per-stage breakdown (Execution::profile is also set).
  util::Result<Execution> query(const std::string& sql);

  /// The retained profile of a finished query, or nullptr (bounded history,
  /// FrontendConfig::profileHistory; summaries persist in QueryStats).
  std::shared_ptr<const QueryProfile> profileFor(std::uint64_t id) const;

  /// Runtime toggle for per-query tracing and profiling (Execution::trace,
  /// QueryStats rows, retained profiles, slow-query log). EXPLAIN ANALYZE
  /// still traces and profiles when off. Read once as each query starts.
  /// Atomic: may be flipped while other threads are inside query().
  void setProfilingEnabled(bool on) {
    profilingEnabled_.store(on, std::memory_order_relaxed);
  }
  bool profilingEnabled() const {
    return profilingEnabled_.load(std::memory_order_relaxed);
  }

  /// Live in-flight queries (dispatch order) followed by the most recent
  /// finished ones, newest first (bounded history).
  std::vector<QueryInfo> processList() const;

  /// The chunk set \p sql would be dispatched to, without executing
  /// (analysis/pruning introspection for tests and benches).
  util::Result<std::vector<std::int32_t>> chunksFor(const std::string& sql);

  SecondaryIndex& secondaryIndex() { return index_; }
  sql::Database& metadata() {
    flushQueryStats();  // direct readers see current QueryStats rows
    return metadata_;
  }
  const CatalogConfig& catalog() const { return config_.catalog; }
  const simio::CostParams& costParams() const { return config_.cost; }

  /// Restrict dispatch to \p chunks (the paper's §6.3 cluster-size
  /// emulation: "the frontend was configured to only dispatch queries for
  /// partitions belonging to the desired set of cluster nodes"). Thread-safe
  /// against concurrent query(): the chunk set is an immutable snapshot
  /// swapped atomically, so each query resolves against exactly one
  /// placement version.
  void setAvailableChunks(std::vector<std::int32_t> chunks);

  /// Merge newly ingested chunks into the dispatchable set (live placement:
  /// in-flight queries keep the snapshot they already resolved).
  void addAvailableChunks(std::span<const std::int32_t> chunks);

  std::vector<std::int32_t> availableChunks() const;

 private:
  /// Live bookkeeping for one executing query (backs processList()).
  struct LiveQuery {
    std::uint64_t id = 0;
    std::string sql;
    util::Stopwatch watch;
    std::atomic<std::size_t> chunksTotal{0};
    std::atomic<std::size_t> chunksCompleted{0};
    std::mutex stateMutex;
    std::string state = "queued";

    void setState(const std::string& s) {
      std::lock_guard lock(stateMutex);
      state = s;
    }
  };

  std::vector<std::int32_t> resolveChunks(const AnalyzedQuery& analyzed);
  std::shared_ptr<const std::vector<std::int32_t>> availableChunksSnapshot()
      const;
  int workerIndexOf(const std::string& workerId);

  /// EXPLAIN's one-line description of how \p specs would be dispatched
  /// (batch count and chunks-per-batch shape).
  std::string describeDispatch(const std::vector<ChunkQuerySpec>& specs);

  /// Execute a SELECT end to end with processList bookkeeping and, when
  /// profiling is enabled (or \p forceProfile), tracing, profile building
  /// and persistence.
  util::Result<Execution> runUserQuery(const std::string& sql,
                                       bool forceProfile);
  /// Plan-only EXPLAIN: analyze, prune, rewrite — never dispatch.
  util::Result<Execution> explainOnly(const sql::SelectStmt& stmt);
  /// Retain \p profile, append its summary row to the QueryStats buffer
  /// (bounded by queryStatsHistory), and emit the slow-query log line when
  /// over threshold. The registered table snapshot is rebuilt lazily by
  /// flushQueryStats() — a per-query rebuild would cost O(history) on the
  /// hot path.
  void recordProfile(const std::shared_ptr<const QueryProfile>& profile);
  /// Publish pending statsRows_ as a fresh QueryStats snapshot table (no-op
  /// when nothing changed since the last flush). Called before any frontend
  /// read of the metadata DB so readers always see current rows.
  void flushQueryStats();

  /// The body of query() for query \p id; \p live is registered by
  /// runUserQuery(), and \p trace is null for an untraced query.
  util::Result<Execution> runQuery(const std::string& sql, std::uint64_t id,
                                   LiveQuery& live, util::Trace* trace);
  std::shared_ptr<LiveQuery> beginQuery(std::uint64_t id,
                                        const std::string& sql);
  void endQuery(const std::shared_ptr<LiveQuery>& live,
                const util::Status& status);

  FrontendConfig config_;
  xrd::RedirectorPtr redirector_;
  /// Immutable dispatchable-chunk snapshot; the pointer (not the vector) is
  /// swapped under availableMutex_ on placement changes.
  mutable std::mutex availableMutex_;
  std::shared_ptr<const std::vector<std::int32_t>> availableChunks_;
  sql::Database metadata_;
  SecondaryIndex index_;
  sphgeom::Chunker chunker_;
  Dispatcher dispatcher_;
  /// Query ids (also the merge table's name, qm_<id>); 0 is never used.
  std::atomic<std::uint64_t> nextQueryId_{1};
  /// Runtime profiling toggle, seeded from config_.enableProfiling.
  std::atomic<bool> profilingEnabled_;

  std::mutex workerIndexMutex_;
  std::map<std::string, int> workerIndexes_;

  mutable std::mutex processMutex_;
  std::map<std::uint64_t, std::shared_ptr<LiveQuery>> inflight_;
  std::deque<QueryInfo> recent_;  ///< finished queries, newest first
  /// Retained profiles, newest first (bounded by profileHistory).
  std::deque<std::shared_ptr<const QueryProfile>> profiles_;

  /// QueryStats rows, oldest first (bounded by queryStatsHistory). The
  /// registered "QueryStats" table is never mutated in place — database.h's
  /// contents-are-append-only invariant — so concurrent frontend SELECTs
  /// can scan it freely; flushQueryStats() rebuilds a fresh snapshot from
  /// these rows and atomically swaps it in (Database::replaceTable), but
  /// only when a metadata read needs it (statsDirty_), keeping the
  /// per-query cost of recordProfile() O(1).
  std::mutex statsMutex_;
  std::vector<std::vector<sql::Value>> statsRows_;
  bool statsDirty_ = false;
};

}  // namespace qserv::core
