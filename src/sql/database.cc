#include "sql/database.h"

#include "sql/executor.h"
#include "sql/parser.h"
#include "util/strings.h"

namespace qserv::sql {

void ExecStats::add(const ExecStats& o) {
  rowsScanned += o.rowsScanned;
  pairsEvaluated += o.pairsEvaluated;
  joinMatches += o.joinMatches;
  rowsOutput += o.rowsOutput;
  rowsInserted += o.rowsInserted;
  indexLookups += o.indexLookups;
  statements += o.statements;
  vectorizedScans += o.vectorizedScans;
  vectorRowsIn += o.vectorRowsIn;
  vectorRowsOut += o.vectorRowsOut;
  fallbackRows += o.fallbackRows;
  zoneMapPrunes += o.zoneMapPrunes;
  zoneMapRowsSkipped += o.zoneMapRowsSkipped;
  columnarAggregates += o.columnarAggregates;
  columnarAggRows += o.columnarAggRows;
  spatialJoins += o.spatialJoins;
  zoneJoinZonesBuilt += o.zoneJoinZonesBuilt;
  zoneJoinZonesProbed += o.zoneJoinZonesProbed;
  zoneJoinCandidates += o.zoneJoinCandidates;
  zoneJoinPairsPruned += o.zoneJoinPairsPruned;
  for (const auto& [table, rows] : o.rowsScannedByTable) {
    rowsScannedByTable[table] += rows;
  }
}

Database::Database(std::string name)
    : name_(std::move(name)), registry_(FunctionRegistry::builtins()) {}

util::Status Database::registerTable(TablePtr table) {
  std::unique_lock lock(mutex_);
  auto [it, inserted] = tables_.emplace(table->name(), table);
  if (!inserted) {
    return util::Status::alreadyExists(
        util::format("table %s already exists", table->name().c_str()));
  }
  return util::Status::ok();
}

util::Status Database::replaceTable(TablePtr table) {
  std::unique_lock lock(mutex_);
  auto& slot = tables_[table->name()];
  slot = std::move(table);
  // Existing indexes snapshot the replaced contents: rebuild them over the
  // new table so probes keep agreeing with scans.
  auto it = indexes_.find(slot->name());
  if (it != indexes_.end()) {
    for (auto& [colName, index] : it->second) {
      auto col = slot->schema().indexOf(colName);
      if (!col) continue;
      index = std::make_shared<OrderedIndex>(*slot, *col);
    }
  }
  return util::Status::ok();
}

util::Status Database::dropTable(const std::string& table, bool ifExists) {
  std::unique_lock lock(mutex_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    if (ifExists) return util::Status::ok();
    return util::Status::notFound(
        util::format("unknown table %s", table.c_str()));
  }
  tables_.erase(it);
  indexes_.erase(table);
  return util::Status::ok();
}

util::Status Database::renameTable(const std::string& from,
                                   const std::string& to) {
  std::unique_lock lock(mutex_);
  auto it = tables_.find(from);
  if (it == tables_.end()) {
    return util::Status::notFound(
        util::format("unknown table %s", from.c_str()));
  }
  if (tables_.count(to) != 0) {
    return util::Status::alreadyExists(
        util::format("table %s already exists", to.c_str()));
  }
  TablePtr table = std::move(it->second);
  tables_.erase(it);
  table->rename(to);
  tables_.emplace(to, std::move(table));
  auto idx = indexes_.find(from);
  if (idx != indexes_.end()) {
    auto moved = std::move(idx->second);
    indexes_.erase(idx);
    indexes_.emplace(to, std::move(moved));
  }
  return util::Status::ok();
}

TablePtr Database::findTable(const std::string& table) const {
  std::shared_lock lock(mutex_);
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second;
}

std::vector<std::string> Database::tableNames() const {
  std::shared_lock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, _] : tables_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

util::Status Database::createIndex(const std::string& table,
                                   const std::string& column) {
  TablePtr t = findTable(table);
  if (!t) {
    return util::Status::notFound(
        util::format("unknown table %s", table.c_str()));
  }
  auto col = t->schema().indexOf(column);
  if (!col) {
    return util::Status::notFound(
        util::format("unknown column %s.%s", table.c_str(), column.c_str()));
  }
  auto index = std::make_shared<OrderedIndex>(*t, *col);
  std::unique_lock lock(mutex_);
  indexes_[table][util::toLower(column)] = std::move(index);
  return util::Status::ok();
}

std::shared_ptr<const OrderedIndex> Database::findIndex(
    const std::string& table, const std::string& column) const {
  std::shared_lock lock(mutex_);
  auto it = indexes_.find(table);
  if (it == indexes_.end()) return nullptr;
  auto jt = it->second.find(util::toLower(column));
  return jt == it->second.end() ? nullptr : jt->second;
}

void Database::refreshIndexes(const std::string& table) {
  TablePtr t = findTable(table);
  if (!t) return;
  std::unique_lock lock(mutex_);
  auto it = indexes_.find(table);
  if (it == indexes_.end()) return;
  // Rebuild each index as an immutable snapshot over the current rows.
  for (auto& [colName, index] : it->second) {
    auto col = t->schema().indexOf(colName);
    if (!col) continue;
    index = std::make_shared<OrderedIndex>(*t, *col);
  }
}

util::Result<TablePtr> Database::execute(std::string_view sql,
                                         ExecStats* stats) {
  QSERV_ASSIGN_OR_RETURN(Statement stmt, parseStatement(sql));
  ExecStats local;
  QSERV_ASSIGN_OR_RETURN(TablePtr result,
                         executeStatement(*this, stmt, local));
  if (stats != nullptr) stats->add(local);
  return result;
}

util::Result<TablePtr> Database::executeScript(std::string_view sql,
                                               ExecStats* stats) {
  QSERV_ASSIGN_OR_RETURN(auto stmts, parseScript(sql));
  ExecStats local;
  TablePtr combined;
  for (const Statement& stmt : stmts) {
    QSERV_ASSIGN_OR_RETURN(TablePtr result,
                           executeStatement(*this, stmt, local));
    if (!std::holds_alternative<SelectStmt>(stmt)) continue;
    if (!combined) {
      combined = result;
      continue;
    }
    if (result->numColumns() != combined->numColumns()) {
      return util::Status::invalidArgument(
          "script SELECTs produce different column counts");
    }
    QSERV_RETURN_IF_ERROR(combined->appendFrom(*result));
  }
  if (stats != nullptr) stats->add(local);
  if (!combined) combined = std::make_shared<Table>("result", Schema{});
  return combined;
}

}  // namespace qserv::sql
