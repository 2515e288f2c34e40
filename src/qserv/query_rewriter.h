/// \file query_rewriter.h
/// \brief User query -> per-chunk queries + merge plan (paper §5.3, §5.4).
///
/// Rewrites performed, following the paper's worked example:
///  - Table references: `Object` -> `Object_CC` per chunk, with the original
///    binding name kept as an alias so column qualifiers still resolve. The
///    chunk query is rendered once, as a ChunkQueryTemplate whose partitioned
///    FROM entries keep their base names and are bound per chunk on the
///    worker (chunk_template.h).
///  - `qserv_areaspec_box(...)` (already extracted by analysis) -> a
///    `qserv_ptInSphericalBox(<ra>, <decl>, ...) = 1` conjunct on the
///    director table, executed by the worker-side UDF.
///  - Aggregates: AVG(x) splits into SUM(x)+COUNT(x) chunk columns with
///    stable generated names (QS<k>_SUM / QS<k>_COUNT), reassembled by the
///    merge query as SUM(`QS<k>_SUM`) / SUM(`QS<k>_COUNT`); COUNT -> SUM of
///    partial counts; SUM/MIN/MAX -> same aggregate over partials. GROUP BY
///    is applied per chunk and re-applied over the merge table.
///  - Near-neighbor self-joins: the statement runs once per subchunk,
///    joining the subchunk table Object_CC_SS against the on-the-fly overlap
///    table ObjectFullOverlap_CC_SS; each chunk lists the subchunks it needs
///    (§5.4 chunk query representation).
///  - ORDER BY / LIMIT move to the merge query (chunks also apply top-k
///    when a LIMIT is present).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "qserv/chunk_template.h"
#include "qserv/query_analysis.h"

namespace qserv::core {

struct MergePlan {
  bool hasAggregation = false;
  /// Final SELECT over the merge table (already named inside the SQL).
  std::string finalSelectSql;
  /// finalSelectSql is `SELECT * FROM <merge>`: no aggregation, DISTINCT,
  /// ORDER BY or LIMIT, so the merge table already is the result.
  bool identity = false;
};

struct RewriteResult {
  /// The chunk query, once. Its queryClass is left at kScan: the czar sets
  /// it from deriveQueryClass.
  ChunkQueryTemplate chunkTemplate;
  std::vector<ChunkQuerySpec> chunkQueries;  ///< the chunks it runs on
  MergePlan merge;
};

class QueryRewriter {
 public:
  QueryRewriter(const CatalogConfig& config, const sphgeom::Chunker& chunker)
      : config_(config), chunker_(chunker) {}

  /// Rewrite \p analyzed for execution over \p chunks, merging into
  /// \p mergeTableName on the frontend.
  util::Result<RewriteResult> rewrite(const AnalyzedQuery& analyzed,
                                      std::span<const std::int32_t> chunks,
                                      const std::string& mergeTableName) const;

 private:
  const CatalogConfig& config_;
  const sphgeom::Chunker& chunker_;
};

}  // namespace qserv::core
