/// \file chunk_template.h
/// \brief One query's chunk query, written once and bound per chunk (paper
/// §5.3-§5.4 chunk queries, §7.6 batching).
///
/// Every chunk query of a user query is the same statement over different
/// tables: `Object_CC` per chunk, or `Object_CC_SS` joined with
/// `ObjectFullOverlap_CC_SS` once per subchunk for a near-neighbor join. A
/// ChunkQueryTemplate is that statement once, with its partitioned FROM
/// entries still naming their base tables and marked by TableBindings. The
/// czar renders it once per query and ships it once per batch; the worker
/// parses it once per batch into a ChunkPlan and binds each task by
/// replacing only the marked FROM entries' table names. No SQL text is
/// substituted, so a select alias or a string literal that spells a chunk
/// table name is never touched.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qserv/scan_scheduler.h"
#include "sql/ast.h"
#include "util/status.h"

namespace qserv::core {

/// What a marked FROM entry's base table becomes for one chunk.
enum class TableBindingKind : std::uint8_t {
  kChunk = 0,        ///< Object -> Object_<chunk>
  kSubChunk = 1,     ///< Object -> Object_<chunk>_<subchunk>
  kFullOverlap = 2,  ///< Object -> ObjectFullOverlap_<chunk>_<subchunk>
};

/// One marked FROM entry of a template.
struct TableBinding {
  std::uint16_t from = 0;  ///< index into the template's FROM list
  TableBindingKind kind = TableBindingKind::kChunk;

  bool operator==(const TableBinding&) const = default;
};

/// The chunk query every chunk of one user query runs.
struct ChunkQueryTemplate {
  std::string sql;  ///< one SELECT; marked FROM entries name base tables
  std::vector<TableBinding> bindings;
  /// Results are partial aggregates, whose size does not grow with row
  /// density: the worker does not scale their result observables.
  bool aggregate = false;
  /// Scheduler class of every chunk task (czar: deriveQueryClass).
  QueryClass queryClass = QueryClass::kScan;

  /// The SQL followed by what each binding becomes, e.g.
  /// "SELECT ... FROM Object AS Object [Object = Object_<chunk>]".
  std::string describe() const;
};

/// One chunk a template runs on.
struct ChunkQuerySpec {
  std::int32_t chunkId = 0;
  /// Subchunks to visit (near-neighbor joins; empty otherwise). Each one's
  /// tables are built on the worker before the statement runs.
  std::vector<std::int32_t> subChunkIds;
};

/// A template parsed once and bound per chunk without copying the
/// statement: callers keep a copy of stmt().from and let bind() rename
/// its marked entries before each execution.
class ChunkPlan {
 public:
  /// Parse \p query's SQL, which must be exactly one SELECT, and check that
  /// every binding marks a distinct FROM entry. kInvalidArgument otherwise.
  static util::Result<ChunkPlan> parse(const ChunkQueryTemplate& query);

  const sql::SelectStmt& stmt() const { return stmt_; }

  /// True when a binding names subchunk tables: the statement then runs
  /// once per subchunk of a chunk and the outputs are unioned.
  bool perSubChunk() const { return perSubChunk_; }

  /// Set the marked entries of \p from (a copy of stmt().from) to chunk
  /// \p chunkId's tables; \p subChunkId is used only by subchunk bindings.
  void bind(std::int32_t chunkId, std::int32_t subChunkId,
            std::vector<sql::TableRef>& from) const;

  /// The statement bound to one chunk (and subchunk), as SQL.
  std::string boundSql(std::int32_t chunkId, std::int32_t subChunkId = 0) const;

 private:
  sql::SelectStmt stmt_;
  std::vector<TableBinding> bindings_;
  bool perSubChunk_ = false;
};

}  // namespace qserv::core
