/// \file explain.h
/// \brief Plan introspection for `EXPLAIN <select>` (no execution).
///
/// Classifies a query exactly the way the frontend and workers will treat
/// it — pruning decision (secondary index / spatial cover / full sky),
/// chunk count, rewritten chunk template, join strategy (zone / hash /
/// nested loop), and the vectorized-vs-fallback scan-filter split with
/// zone-map eligibility — by mirroring the executor's structural rules over
/// the analyzed AST. The classification is static: the worker makes the
/// final call at run time (it sees column types and data), but the shapes
/// tested here are the same ones sql/vector_eval.cc and the executor's join
/// stage test.
#pragma once

#include <span>
#include <string>

#include "qserv/query_analysis.h"
#include "qserv/query_rewriter.h"
#include "sql/table.h"

namespace qserv::core {

/// The plan `EXPLAIN` renders, one classified property per field.
struct ExplainPlan {
  std::string statement;      ///< normalized (re-serialized) SELECT
  std::string pruning;        ///< secondary-index / spatial cover / full sky
  std::int64_t chunkCount = 0;
  std::string chunkTemplate;  ///< the chunk-query template ("" if none)
  std::string joinStrategy;   ///< zone / hash / nested loop / none
  std::string filter;         ///< vectorized-kernel vs scalar-residual split
  std::string zoneMap;        ///< zone-map pruning eligibility
  std::string merge;          ///< merge/final-aggregation plan
  std::string dispatch;       ///< batch count and shape
  std::string scheduler;      ///< worker scheduler class (interactive/scan)

  /// Two-column (property, value) result table.
  sql::TablePtr toTable() const;
};

/// Build the plan for \p analyzed. \p chunks is the pruned chunk set and
/// \p rewrite the rewrite result; pass rewrite == nullptr for frontend-only
/// queries (no partitioned table). \p dispatchDesc describes the dispatch
/// strategy (mode, batches per worker, chunks per batch); empty when the
/// query never reaches the dispatcher.
ExplainPlan buildExplainPlan(const AnalyzedQuery& analyzed,
                             std::span<const std::int32_t> chunks,
                             const RewriteResult* rewrite,
                             std::string dispatchDesc = {});

}  // namespace qserv::core
