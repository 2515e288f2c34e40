/// \file executor.h
/// \brief Statement execution against a Database.
///
/// The SELECT pipeline: resolve FROM tables -> expand `*` -> extract
/// aggregates into slots -> split WHERE into per-table filters, equi-join
/// keys, and residual predicates -> enumerate the input rows (index probe,
/// filtered scan, hash join, or nested loop; stored column-wise, so a
/// single-table query's inputs are its scan's selection vector) ->
/// aggregate/group (column-at-a-time over that selection) -> project ->
/// order -> limit. This covers every query shape in the paper's
/// evaluation (§6.2), including the near-neighbor self-join and the
/// Object x Source equi-join with a residual spatial predicate.
#pragma once

#include <span>

#include "sql/ast.h"
#include "sql/database.h"

namespace qserv::sql {

/// Execute \p stmt against \p db. SELECT returns its result table (named
/// "result"); other statements return an empty zero-column table.
util::Result<TablePtr> executeStatement(Database& db, const Statement& stmt,
                                        ExecStats& stats);

/// Execute a parsed SELECT.
util::Result<TablePtr> executeSelect(Database& db, const SelectStmt& sel,
                                     ExecStats& stats);

/// Execute \p sel reading \p from in place of its own FROM list (same
/// length, same order). A statement parsed once can so run against other
/// tables — a chunk-query template bound per chunk — without being copied.
util::Result<TablePtr> executeSelect(Database& db, const SelectStmt& sel,
                                     std::span<const TableRef> from,
                                     ExecStats& stats);

}  // namespace qserv::sql
