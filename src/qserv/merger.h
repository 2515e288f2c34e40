/// \file merger.h
/// \brief Frontend result merging (paper §5.4, "Query Results Transfer").
///
/// The paper's master replays each worker's mysqldump stream into its local
/// database: "After each result table is loaded, it is merged into a table
/// which serves as the final result table for non-aggregating queries. When
/// aggregation is needed, an aggregation query is executed on this table to
/// produce the final result table." Here each chunk result arrives in the
/// binary row codec (sql/rowcodec.h) and is decoded straight into the typed
/// columns of one merge table: no table is created, registered or dropped
/// per chunk, and no SQL runs until the final SELECT.
#pragma once

#include <string>

#include "sql/database.h"
#include "util/trace.h"

namespace qserv::core {

class ResultMerger {
 public:
  /// Merges into table \p mergeTable of a private per-query database (so
  /// concurrent user queries never collide on temp table names). When
  /// \p trace is set, per-result "replay dump" and finalize spans are
  /// recorded under the "merger" component.
  explicit ResultMerger(std::string mergeTable,
                        util::TracePtr trace = nullptr);

  ResultMerger(const ResultMerger&) = delete;
  ResultMerger& operator=(const ResultMerger&) = delete;

  /// Verify one chunk result's MD5 trailer and append its rows to the merge
  /// table. The first result's schema becomes the merge table's; later
  /// results must fit it (Table::appendFrom's type rules).
  util::Status mergeResult(const std::string& payload);

  /// Run the final SELECT (plain union passthrough or the aggregation
  /// query) against the merge table.
  util::Result<sql::TablePtr> finalize(const std::string& finalSelectSql);

  std::uint64_t rowsMerged() const { return rowsMerged_; }
  const std::string& mergeTable() const { return mergeTable_; }

 private:
  sql::Database db_;
  std::string mergeTable_;
  util::TracePtr trace_;
  sql::TablePtr merge_;  ///< registered in db_ once the first result lands
  std::uint64_t rowsMerged_ = 0;
};

}  // namespace qserv::core
