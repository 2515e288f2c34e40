/// \file merger.h
/// \brief Frontend result merging (paper §5.4, "Query Results Transfer").
///
/// The paper's master replays each worker's mysqldump stream into its local
/// database: "After each result table is loaded, it is merged into a table
/// which serves as the final result table for non-aggregating queries. When
/// aggregation is needed, an aggregation query is executed on this table to
/// produce the final result table." Here each chunk result arrives in the
/// binary row codec (sql/rowcodec.h). The dispatcher's collector verifies
/// and decodes it on the thread that read it (VerifiedResult::decode), and
/// the merger appends the decoded typed columns into one merge table under
/// a lock that covers only that append: no table is created, registered or
/// dropped per chunk, and no SQL runs until the final SELECT — none at all
/// when the plan is the identity `SELECT * FROM <merge>`.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "qserv/observables_codec.h"
#include "qserv/query_rewriter.h"
#include "simio/cost_model.h"
#include "sql/table.h"

namespace qserv::core {

/// One chunk result whose MD5 trailer matched and whose rows and
/// observables decoded. decode() is the only way to make one, and
/// ResultMerger::merge accepts nothing else, so no unverified payload can
/// reach a merge table.
class VerifiedResult {
 public:
  /// Verify \p payload's trailer (kDataLoss when it is missing or does not
  /// match), split the table bytes off the observables block after it (and,
  /// when \p traced, the worker block that ends a traced chunk's body), and
  /// decode them all. A payload that verifies but whose table or blocks do
  /// not decode exactly is kInvalidArgument.
  static util::Result<VerifiedResult> decode(std::string_view payload,
                                             bool traced = false);

  const sql::TablePtr& table() const { return table_; }
  const simio::WorkObservables& observables() const { return observables_; }
  /// The worker's timings of a traced chunk; empty when untraced.
  const std::optional<WorkerTimings>& workerTimings() const {
    return workerTimings_;
  }
  /// Size of the payload it was decoded from, trailer included.
  std::size_t payloadBytes() const { return payloadBytes_; }

 private:
  VerifiedResult() = default;

  sql::TablePtr table_;
  simio::WorkObservables observables_;
  std::optional<WorkerTimings> workerTimings_;
  std::size_t payloadBytes_ = 0;
};

class ResultMerger {
 public:
  /// Merges into a table named \p mergeTable. (A traced query's merge
  /// spans are recorded by the dispatcher's collector, which calls merge()
  /// through its result sink.)
  explicit ResultMerger(std::string mergeTable);

  ResultMerger(const ResultMerger&) = delete;
  ResultMerger& operator=(const ResultMerger&) = delete;

  /// Append one verified chunk result to the merge table; thread-safe. The
  /// first result's table becomes the merge table; later results must fit
  /// it (Table::appendFrom's type rules). All-or-nothing: a result that
  /// does not fit leaves the merge table untouched.
  util::Status merge(VerifiedResult result);

  /// The final result. An identity plan returns the merge table itself,
  /// without parsing, executing or copying anything; any other plan runs
  /// its final SELECT (the union's ORDER BY/LIMIT/DISTINCT or the
  /// aggregation query) in a private database built for that purpose.
  /// Call once, after every merge() returned.
  util::Result<sql::TablePtr> finalize(const MergePlan& plan);

  std::uint64_t rowsMerged() const;
  const std::string& mergeTable() const { return mergeTable_; }

 private:
  std::string mergeTable_;
  mutable std::mutex mutex_;  ///< guards merge_ and rowsMerged_
  sql::TablePtr merge_;       ///< the first result's table, adopted
  std::uint64_t rowsMerged_ = 0;
};

}  // namespace qserv::core
