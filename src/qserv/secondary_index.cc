#include "qserv/secondary_index.h"

#include <algorithm>

#include "util/strings.h"

namespace qserv::core {

SecondaryIndex::SecondaryIndex(sql::Database& metadata) : metadata_(metadata) {
  if (!metadata_.hasTable(kTableName)) {
    auto status = metadata_.execute(
        util::format("CREATE TABLE %s (objectId BIGINT, chunkId BIGINT, "
                     "subChunkId BIGINT)",
                     kTableName));
    (void)status;  // creation can only fail on a pre-existing table
  }
  // Index the (still empty) table once: every load extends this index, so
  // lookups are probes, not scans.
  if (!metadata_.findIndex(kTableName, "objectId")) {
    auto status = metadata_.createIndex(kTableName, "objectId");
    (void)status;  // the table and its objectId column exist
  }
}

util::Status SecondaryIndex::load(
    std::span<const datagen::SecondaryIndexEntry> entries) {
  sql::TablePtr table = metadata_.findTable(kTableName);
  if (!table) return util::Status::internal("ObjectIndex table missing");
  // Incremental loads happen while the frontend serves queries (the ingest
  // path), and concurrent lookups read the registered table — so never
  // mutate it in place. extendTable publishes old rows + these entries as a
  // new snapshot with the objectId index extended by this batch only.
  sql::Table batch(kTableName, table->schema());
  batch.reserveMore(entries.size());
  for (const auto& e : entries) {
    QSERV_RETURN_IF_ERROR(batch.appendRow(std::vector<sql::Value>{
        sql::Value(e.objectId), sql::Value(static_cast<std::int64_t>(e.chunkId)),
        sql::Value(static_cast<std::int64_t>(e.subChunkId))}));
  }
  return metadata_.extendTable(kTableName, batch);
}

util::Result<std::vector<SecondaryIndex::Location>> SecondaryIndex::lookup(
    std::span<const std::int64_t> objectIds) const {
  std::vector<Location> out;
  if (objectIds.empty()) return out;
  // The lookup is itself a SQL query on the metadata database (§5.5).
  std::vector<std::string> ids;
  ids.reserve(objectIds.size());
  for (std::int64_t id : objectIds) ids.push_back(std::to_string(id));
  std::string sql =
      util::format("SELECT objectId, chunkId, subChunkId FROM %s WHERE "
                   "objectId IN (%s)",
                   kTableName, util::join(ids, ", ").c_str());
  QSERV_ASSIGN_OR_RETURN(sql::TablePtr result, metadata_.execute(sql));
  out.reserve(result->numRows());
  for (std::size_t r = 0; r < result->numRows(); ++r) {
    out.push_back(Location{result->cell(r, 0).asInt(),
                           static_cast<std::int32_t>(result->cell(r, 1).asInt()),
                           static_cast<std::int32_t>(result->cell(r, 2).asInt())});
  }
  return out;
}

util::Result<std::vector<std::int32_t>> SecondaryIndex::chunksFor(
    std::span<const std::int64_t> objectIds) const {
  QSERV_ASSIGN_OR_RETURN(auto locations, lookup(objectIds));
  std::vector<std::int32_t> out;
  out.reserve(locations.size());
  for (const auto& loc : locations) out.push_back(loc.chunkId);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t SecondaryIndex::size() const {
  sql::TablePtr table = metadata_.findTable(kTableName);
  return table ? table->numRows() : 0;
}

}  // namespace qserv::core
