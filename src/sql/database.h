/// \file database.h
/// \brief An embedded SQL database: named tables, indexes, and execution.
///
/// Each Qserv worker hosts one Database holding its chunk tables
/// (Object_CC, Source_CC, overlap tables); the master hosts one for result
/// merging. The table map is thread-safe so a worker can execute several
/// chunk queries concurrently (distinct queries create distinct
/// task-scoped subchunk tables); table *contents* are append-only and only
/// written by their creating statement.
///
/// A table and its indexes are published together as one TableSnapshot.
/// Writers build the next snapshot (table and indexes) outside the lock and
/// hold it only to swap the snapshot in; readers take both halves in one
/// lookup, so a probe never meets an index built over another snapshot of
/// the table it reads.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sql/functions.h"
#include "sql/index.h"
#include "sql/table.h"
#include "util/status.h"

namespace qserv::sql {

/// Work observables from one statement/script execution; the simio cost
/// model converts these into virtual time.
struct ExecStats {
  std::uint64_t rowsScanned = 0;    ///< base-table rows read (scan or index)
  std::uint64_t pairsEvaluated = 0; ///< nested-loop join pairs examined
  std::uint64_t joinMatches = 0;    ///< equi-join (hash) matches emitted
  std::uint64_t rowsOutput = 0;     ///< result rows produced
  std::uint64_t rowsInserted = 0;   ///< rows written by INSERT/CTAS
  std::uint64_t indexLookups = 0;   ///< executions served by an index probe
  std::uint64_t statements = 0;     ///< statements executed
  // Vectorized scan path (sql/vector_eval.h):
  std::uint64_t vectorizedScans = 0;   ///< full scans run through kernels
  std::uint64_t vectorRowsIn = 0;      ///< rows entering the kernel pipeline
  std::uint64_t vectorRowsOut = 0;     ///< rows surviving all kernels
  std::uint64_t fallbackRows = 0;      ///< survivors re-checked row-at-a-time
  std::uint64_t zoneMapPrunes = 0;     ///< scans skipped via zone maps
  std::uint64_t zoneMapRowsSkipped = 0;  ///< rows those scans never touched
  // Columnar aggregation (sql/executor.cc consumeAggregate):
  std::uint64_t columnarAggregates = 0;  ///< aggregations run column-at-a-time
  std::uint64_t columnarAggRows = 0;     ///< input rows those aggregated
  // Zone-based spatial join (sql/spatial_join.h):
  std::uint64_t spatialJoins = 0;        ///< join stages run through zones
  std::uint64_t zoneJoinZonesBuilt = 0;  ///< dec bands across built indexes
  std::uint64_t zoneJoinZonesProbed = 0; ///< zone buckets inspected by probes
  std::uint64_t zoneJoinCandidates = 0;  ///< pairs reaching the exact test
  std::uint64_t zoneJoinPairsPruned = 0; ///< pairs the window never examined
  /// Base-table rows read, broken down by table name — the cost model
  /// charges different paper-scale row widths per table.
  std::map<std::string, std::uint64_t> rowsScannedByTable;

  void add(const ExecStats& o);
};

/// Index snapshots of one table: (lowercased column name, index) pairs.
using IndexSet =
    std::vector<std::pair<std::string, std::shared_ptr<const OrderedIndex>>>;

/// One published state of a table: its contents and the indexes built over
/// exactly those contents.
struct TableSnapshot {
  TablePtr table;                           ///< nullptr when absent
  std::shared_ptr<const IndexSet> indexes;  ///< nullptr when none

  /// Index over \p column (case-insensitive); nullptr when none.
  std::shared_ptr<const OrderedIndex> index(std::string_view column) const;
};

class Database {
 public:
  explicit Database(std::string name = "db");

  const std::string& name() const { return name_; }

  /// Register an externally built table (data loading path). Fails with
  /// kAlreadyExists when the name is taken.
  util::Status registerTable(TablePtr table);

  /// Atomically replace a registered table with a new snapshot (registering
  /// it when absent) together with its indexes rebuilt over the new
  /// contents. This is the supported way to publish contents that evolve
  /// after registration (e.g. the frontend's QueryStats history) without
  /// violating the append-only invariant: readers that already hold the
  /// previous TablePtr keep scanning an unchanging table.
  util::Status replaceTable(TablePtr table);

  /// Atomically publish \p table's rows followed by the rows of \p more as
  /// the table's next snapshot, with every index extended over the appended
  /// rows (not rebuilt). Readers holding the previous snapshot keep it.
  /// Fails with kNotFound when \p table is absent and kInvalidArgument when
  /// \p more's columns do not fit.
  util::Status extendTable(const std::string& table, const Table& more);

  /// Remove a table and its indexes.
  util::Status dropTable(const std::string& table, bool ifExists = false);

  /// Rename a table in place, carrying its indexes along. Fails with
  /// kNotFound when \p from is absent and kAlreadyExists when \p to is
  /// taken. The merger uses this to adopt the first chunk dump's table as
  /// the merge table instead of copying it row by row.
  util::Status renameTable(const std::string& from, const std::string& to);

  /// Find a table; nullptr when absent. Lookup is exact (case-sensitive),
  /// like MySQL table names on Unix.
  TablePtr findTable(const std::string& table) const;

  /// A table and its indexes, as published together (table is nullptr when
  /// absent). The executor binds every FROM table through this.
  TableSnapshot snapshot(const std::string& table) const;

  bool hasTable(const std::string& table) const {
    return findTable(table) != nullptr;
  }

  std::vector<std::string> tableNames() const;

  /// Build an ordered index over \p column of \p table.
  util::Status createIndex(const std::string& table,
                           const std::string& column);

  /// Find an index; nullptr when absent.
  std::shared_ptr<const OrderedIndex> findIndex(
      const std::string& table, const std::string& column) const;

  /// Extend the indexes of \p table over rows appended in place since they
  /// were built (INSERT).
  void refreshIndexes(const std::string& table);

  /// Mutable registry: callers may add custom UDFs before executing.
  FunctionRegistry& functions() { return registry_; }
  const FunctionRegistry& functions() const { return registry_; }

  /// Execute one SQL statement. SELECTs return their result table; DDL/DML
  /// return an empty zero-column table. \p stats (optional) accumulates
  /// work observables.
  util::Result<TablePtr> execute(std::string_view sql,
                                 ExecStats* stats = nullptr);

  /// Execute a semicolon-separated script. The rows of every SELECT are
  /// appended into a single result table (the chunk-query protocol runs one
  /// SELECT per subchunk and unions the outputs, paper §5.4).
  util::Result<TablePtr> executeScript(std::string_view sql,
                                       ExecStats* stats = nullptr);

 private:
  friend class Executor;

  std::string name_;
  FunctionRegistry registry_;

  /// Swap in the snapshot \p make builds (outside the lock) from the
  /// current one; rebuilds on top of a concurrent writer's snapshot instead
  /// of overwriting it.
  template <class Make>
  util::Status publish(const std::string& table, Make make);

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, TableSnapshot> tables_;
};

}  // namespace qserv::sql
