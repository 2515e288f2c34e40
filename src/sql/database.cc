#include "sql/database.h"

#include <algorithm>

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

std::shared_ptr<const OrderedIndex> TableSnapshot::index(
    std::string_view column) const {
  if (!indexes) return nullptr;
  for (const auto& [name, index] : *indexes) {
    if (util::iequals(name, column)) return index;
  }
  return nullptr;
}

Database::Database(std::string name)
    : name_(std::move(name)), registry_(FunctionRegistry::builtins()) {}

template <class Make>
util::Status Database::publish(const std::string& table, Make make) {
  for (;;) {
    TableSnapshot cur = snapshot(table);
    QSERV_ASSIGN_OR_RETURN(TableSnapshot next, make(cur));
    if (next.table == cur.table && next.indexes == cur.indexes) {
      return util::Status::ok();  // nothing to publish
    }
    std::unique_lock lock(mutex_);
    auto it = tables_.find(table);
    if (it == tables_.end()) {
      if (cur.table) continue;  // dropped meanwhile: start over
      tables_.emplace(table, std::move(next));
      return util::Status::ok();
    }
    if (it->second.table != cur.table || it->second.indexes != cur.indexes) {
      continue;  // another writer published first: build on top of it
    }
    it->second = std::move(next);
    return util::Status::ok();
  }
}

util::Status Database::registerTable(TablePtr table) {
  std::unique_lock lock(mutex_);
  auto [it, inserted] =
      tables_.emplace(table->name(), TableSnapshot{table, nullptr});
  if (!inserted) {
    return util::Status::alreadyExists(
        util::format("table %s already exists", table->name().c_str()));
  }
  return util::Status::ok();
}

util::Status Database::replaceTable(TablePtr table) {
  return publish(table->name(), [&](const TableSnapshot& cur)
                                    -> util::Result<TableSnapshot> {
    // The current indexes describe the replaced contents: rebuild each over
    // the new table so probes keep agreeing with scans.
    auto indexes = std::make_shared<IndexSet>();
    if (cur.indexes) {
      for (const auto& [colName, index] : *cur.indexes) {
        auto col = table->schema().indexOf(colName);
        if (!col) continue;
        indexes->emplace_back(colName,
                              std::make_shared<OrderedIndex>(*table, *col));
      }
    }
    return TableSnapshot{table, std::move(indexes)};
  });
}

util::Status Database::extendTable(const std::string& table,
                                   const Table& more) {
  return publish(table, [&](const TableSnapshot& cur)
                            -> util::Result<TableSnapshot> {
    if (!cur.table) {
      return util::Status::notFound(
          util::format("unknown table %s", table.c_str()));
    }
    auto next = std::make_shared<Table>(table, cur.table->schema());
    next->reserveMore(cur.table->numRows() + more.numRows());
    QSERV_RETURN_IF_ERROR(next->appendFrom(*cur.table));
    QSERV_RETURN_IF_ERROR(next->appendFrom(more));
    auto indexes = std::make_shared<IndexSet>();
    if (cur.indexes) {
      for (const auto& [colName, index] : *cur.indexes) {
        indexes->emplace_back(
            colName, std::make_shared<OrderedIndex>(index->extended(*next)));
      }
    }
    return TableSnapshot{std::move(next), std::move(indexes)};
  });
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
  TableSnapshot moved = std::move(it->second);
  tables_.erase(it);
  moved.table->rename(to);
  tables_.emplace(to, std::move(moved));
  return util::Status::ok();
}

TablePtr Database::findTable(const std::string& table) const {
  std::shared_lock lock(mutex_);
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second.table;
}

TableSnapshot Database::snapshot(const std::string& table) const {
  std::shared_lock lock(mutex_);
  auto it = tables_.find(table);
  return it == tables_.end() ? TableSnapshot{} : it->second;
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
  return publish(table, [&](const TableSnapshot& cur)
                            -> util::Result<TableSnapshot> {
    if (!cur.table) {
      return util::Status::notFound(
          util::format("unknown table %s", table.c_str()));
    }
    auto col = cur.table->schema().indexOf(column);
    if (!col) {
      return util::Status::notFound(util::format(
          "unknown column %s.%s", table.c_str(), column.c_str()));
    }
    std::string key = util::toLower(column);
    auto indexes = std::make_shared<IndexSet>();
    if (cur.indexes) {
      for (const auto& entry : *cur.indexes) {
        if (entry.first != key) indexes->push_back(entry);
      }
    }
    indexes->emplace_back(std::move(key),
                          std::make_shared<OrderedIndex>(*cur.table, *col));
    return TableSnapshot{cur.table, std::move(indexes)};
  });
}

std::shared_ptr<const OrderedIndex> Database::findIndex(
    const std::string& table, const std::string& column) const {
  return snapshot(table).index(column);
}

void Database::refreshIndexes(const std::string& table) {
  auto status = publish(table, [&](const TableSnapshot& cur)
                                   -> util::Result<TableSnapshot> {
    if (!cur.table || !cur.indexes) return cur;
    auto indexes = std::make_shared<IndexSet>();
    for (const auto& [colName, index] : *cur.indexes) {
      indexes->emplace_back(
          colName,
          index->coveredRows() == cur.table->numRows()
              ? index
              : std::make_shared<OrderedIndex>(index->extended(*cur.table)));
    }
    return TableSnapshot{cur.table, std::move(indexes)};
  });
  (void)status;  // the builder above never fails
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
