/// \file query_analysis.h
/// \brief Frontend query analysis (paper §5.3).
///
/// Parsing serves several functions in Qserv: detect spatial restrictions
/// (qserv_areaspec_box — so spatial queries do not become full-sky queries),
/// detect index opportunities (objectId predicates), detect database/table
/// references that need rewriting, detect aliases and joins, and prepare for
/// results merging and aggregation. This module produces that analysis; the
/// rewriter (query_rewriter.h) consumes it.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "qserv/catalog_config.h"
#include "qserv/scan_scheduler.h"
#include "sql/ast.h"
#include "util/status.h"

namespace qserv::core {

struct AnalyzedQuery {
  /// The statement with frontend-only pseudo-functions (areaspec) removed.
  sql::SelectStmt stmt;

  /// Spatial restriction extracted from qserv_areaspec_box, or derived from
  /// BETWEEN predicates on partitioning columns, if any.
  std::optional<sphgeom::SphericalBox> areaRestriction;

  /// True when areaRestriction was derived from ordinary predicates rather
  /// than qserv_areaspec_box. Implicit restrictions prune the chunk cover
  /// but are NOT rewritten into qserv_ptInSphericalBox (the original
  /// predicates already filter rows on the workers).
  bool areaRestrictionIsImplicit = false;

  /// objectIds pinned by `objectId = N` / `objectId IN (...)` conjuncts on a
  /// partitioned table (the secondary-index opportunity). Empty = none.
  std::vector<std::int64_t> restrictedObjectIds;

  struct FromTable {
    sql::TableRef ref;
    const PartitionedTable* partitioned = nullptr;  // null: ordinary table
  };
  std::vector<FromTable> from;

  /// Self-join of an overlap-carrying partitioned table (SHV1 shape):
  /// executed over on-the-fly subchunk + overlap tables.
  bool isNearNeighbor = false;

  /// Any aggregate function in the select list (drives the merge plan).
  bool hasAggregates = false;

  /// True when at least one FROM table is partitioned (otherwise the query
  /// executes entirely on the frontend).
  bool touchesPartitioned() const {
    for (const auto& t : from) {
      if (t.partitioned != nullptr) return true;
    }
    return false;
  }
};

/// Analyze a parsed SELECT against \p config.
util::Result<AnalyzedQuery> analyzeQuery(const sql::SelectStmt& stmt,
                                         const CatalogConfig& config);

/// Parse then analyze.
util::Result<AnalyzedQuery> analyzeQuery(std::string_view sql,
                                         const CatalogConfig& config);

/// True when any aggregate function call appears in \p expr.
bool exprHasAggregate(const sql::Expr& expr);

/// Derive the scheduler class the czar ships in the batch request envelope,
/// from analysis coverage: point / secondary-index lookups (pinned
/// objectIds, or a restriction that prunes to at most one chunk) are
/// interactive; anything touching multiple chunks is a scan. \p chunkCount
/// is the pruned dispatch cover's size.
QueryClass deriveQueryClass(const AnalyzedQuery& analyzed,
                            std::size_t chunkCount);

}  // namespace qserv::core
