#include "sql/dump.h"

#include <charconv>
#include <cmath>

#include "util/strings.h"

namespace qserv::sql {

std::string dumpTable(const Table& table, const std::string& targetName,
                      std::size_t batchRows) {
  if (batchRows == 0) batchRows = 1;
  std::string out = "-- qserv-dump v1\n";
  out += "DROP TABLE IF EXISTS `" + targetName + "`;\n";
  out += "CREATE TABLE `" + targetName + "` ";
  // VARCHAR needs a length to read back.
  std::string cols = "(";
  for (std::size_t i = 0; i < table.numColumns(); ++i) {
    if (i > 0) cols += ", ";
    const ColumnDef& c = table.schema().column(i);
    cols += "`" + c.name + "` ";
    switch (c.type) {
      case ColumnType::kInt: cols += "BIGINT"; break;
      case ColumnType::kDouble: cols += "DOUBLE"; break;
      case ColumnType::kString: cols += "VARCHAR(255)"; break;
    }
  }
  cols += ")";
  out += cols + ";\n";

  for (std::size_t start = 0; start < table.numRows(); start += batchRows) {
    std::size_t end = std::min(start + batchRows, table.numRows());
    out += "INSERT INTO `" + targetName + "` VALUES ";
    for (std::size_t r = start; r < end; ++r) {
      if (r > start) out += ",";
      out += "(";
      for (std::size_t c = 0; c < table.numColumns(); ++c) {
        if (c > 0) out += ",";
        out += table.cell(r, c).toSqlLiteral();
      }
      out += ")";
    }
    out += ";\n";
  }
  return out;
}

namespace {

/// Length of Value::toSqlLiteral() for a cell of \p table.
std::size_t literalBytes(const Table& table, std::size_t row,
                         std::size_t col) {
  if (table.isNull(row, col)) return 4;  // NULL
  char buf[32];
  switch (table.schema().column(col).type) {
    case ColumnType::kInt: {
      auto [end, ec] = std::to_chars(buf, buf + sizeof buf,
                                     table.intColumn(col)[row]);
      return static_cast<std::size_t>(end - buf);
    }
    case ColumnType::kDouble: {
      double d = table.doubleColumn(col)[row];
      if (std::isnan(d)) return 4;  // NULL: SQL has no NaN literal
      auto [end, ec] = std::to_chars(buf, buf + sizeof buf, d,
                                     std::chars_format::general, 17);
      std::string_view s(buf, static_cast<std::size_t>(end - buf));
      bool readsAsDouble = s.find_first_of(".eE") != std::string_view::npos ||
                           std::isinf(d);
      return s.size() + (readsAsDouble ? 0 : 2);  // ".0" appended
    }
    case ColumnType::kString: {
      const std::string& s = table.stringColumn(col)[row];
      std::size_t n = s.size() + 2;  // quotes
      for (char c : s) {
        if (c == '\'' || c == '\\') ++n;  // doubled
      }
      return n;
    }
  }
  return 4;
}

}  // namespace

DumpSize dumpedBytes(const Table& table, const std::string& targetName,
                     std::size_t batchRows) {
  if (batchRows == 0) batchRows = 1;
  const std::size_t ncols = table.numColumns();
  DumpSize size;
  // "-- qserv-dump v1\n" + "DROP TABLE IF EXISTS `<name>`;\n" +
  // "CREATE TABLE `<name>` (<cols>);\n"
  size.envelope = 17 + (22 + targetName.size() + 3) +
                  (14 + targetName.size() + 2 + 2 + 2);
  for (std::size_t c = 0; c < ncols; ++c) {
    const ColumnDef& col = table.schema().column(c);
    if (c > 0) size.envelope += 2;  // ", "
    size.envelope += col.name.size() + 3;  // "`name` "
    switch (col.type) {
      case ColumnType::kInt:     // BIGINT
      case ColumnType::kDouble:  // DOUBLE
        size.envelope += 6;
        break;
      case ColumnType::kString: size.envelope += 12; break;  // VARCHAR(255)
    }
  }
  const std::size_t n = table.numRows();
  for (std::size_t start = 0; start < n; start += batchRows) {
    std::size_t end = std::min(start + batchRows, n);
    // "INSERT INTO `<name>` VALUES " ... ";\n", rows joined by ","
    size.rows += 13 + targetName.size() + 9 + 2 + (end - start - 1);
  }
  // Each row: "(" cells joined by "," ")".
  size.rows += n * (2 + (ncols > 0 ? ncols - 1 : 0));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < ncols; ++c) {
      size.rows += literalBytes(table, r, c);
    }
  }
  return size;
}

util::Result<TablePtr> loadDump(Database& db, std::string_view dump) {
  ExecStats stats;
  QSERV_ASSIGN_OR_RETURN(TablePtr result, db.executeScript(dump, &stats));
  (void)result;  // dumps contain no SELECTs
  // The dump creates exactly one table, named in its CREATE TABLE header.
  std::size_t pos = dump.find("CREATE TABLE `");
  if (pos == std::string_view::npos) {
    return util::Status::invalidArgument("dump has no CREATE TABLE");
  }
  pos += 14;
  std::size_t end = dump.find('`', pos);
  if (end == std::string_view::npos) {
    return util::Status::invalidArgument("malformed CREATE TABLE in dump");
  }
  std::string name(dump.substr(pos, end - pos));
  TablePtr table = db.findTable(name);
  if (!table) {
    return util::Status::internal("dump replay did not create " + name);
  }
  return table;
}

}  // namespace qserv::sql
