/// \file dump.h
/// \brief SQL-statement table serialization — the `mysqldump` analogue.
///
/// The paper (§5.4): "Results from a chunk query are transferred as SQL
/// statements. The worker executes mysqldump on the result table and the
/// resulting byte stream is read byte-for-byte by the master, which executes
/// the SQL statements to load results into its local database." This module
/// produces and replays exactly such a byte stream:
///
///   -- qserv-dump v1
///   DROP TABLE IF EXISTS `target`;
///   CREATE TABLE `target` (...);
///   INSERT INTO `target` VALUES (...),(...);   -- batched
///
/// Chunk snapshots (worker-to-worker copy, /chunkload) and ingest ship these
/// scripts. Chunk results travel in the binary row codec (rowcodec.h);
/// dumpedBytes() sizes the dump the paper would have shipped for them, which
/// is what the cost model prices.
#pragma once

#include <string>

#include "sql/database.h"
#include "sql/table.h"
#include "util/status.h"

namespace qserv::sql {

/// Serialize \p table as a replayable SQL script creating \p targetName.
/// \p batchRows caps rows per INSERT statement (mysqldump batches too).
std::string dumpTable(const Table& table, const std::string& targetName,
                      std::size_t batchRows = 500);

/// Byte size of dumpTable(table, targetName, batchRows), split where the
/// first INSERT begins: `envelope` is the header, DROP and CREATE lines;
/// `rows` is every INSERT statement. Counted without building the dump
/// (doubles are sized with std::to_chars, which formats exactly as the
/// dump's %.17g).
struct DumpSize {
  std::size_t envelope = 0;
  std::size_t rows = 0;
};
DumpSize dumpedBytes(const Table& table, const std::string& targetName,
                     std::size_t batchRows = 500);

/// Replay a dump script into \p db. Returns the loaded table.
util::Result<TablePtr> loadDump(Database& db, std::string_view dump);

}  // namespace qserv::sql
