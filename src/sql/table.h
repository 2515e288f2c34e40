/// \file table.h
/// \brief Append-only columnar table storage.
///
/// Columns are stored as typed vectors with a null mask — a decomposition
/// storage model in the spirit of the columnar organization the paper
/// contemplates in §7.4, chosen here for scan speed on wide tables.
///
/// Every append also maintains a per-column *zone map* (min/max over non-null
/// values plus a null count): a scan whose predicate range cannot intersect a
/// column's zone is skipped without touching a row (see sql/vector_eval.h and
/// DESIGN.md "Scan pipeline").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sql/schema.h"
#include "util/status.h"

namespace qserv::sql {

/// Append-maintained summary of one column, for scan pruning. `intMin/Max`
/// are meaningful for INT columns, `dblMin/Max` for DOUBLE columns; both are
/// valid only when `hasValue` is set. `hasNaN` disables range-based pruning
/// for DOUBLE columns (NaN never enters min/max, so the range would lie).
struct ZoneMap {
  bool hasValue = false;     ///< at least one non-null value appended
  bool hasNaN = false;       ///< a DOUBLE column saw a NaN value
  std::int64_t intMin = 0;
  std::int64_t intMax = 0;
  double dblMin = 0.0;
  double dblMax = 0.0;
  std::size_t nullCount = 0;
};

/// Typed storage of one column: a null mask plus the value vector matching
/// `type`, one entry per row, holding 0 / "" at NULL rows. It is also the
/// unit of a bulk append (Table::appendColumns), which lets a decoder build
/// columns without boxing a Value per cell.
struct ColumnBlock {
  ColumnType type = ColumnType::kInt;
  std::vector<std::uint8_t> nulls;  ///< 1 = NULL
  std::vector<std::int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
};

class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  std::size_t numRows() const { return numRows_; }
  std::size_t numColumns() const { return schema_.numColumns(); }

  /// Append a row; values must match the schema's declared types
  /// (ints are accepted into DOUBLE columns and widened).
  util::Status appendRow(std::span<const Value> values);

  /// Bulk append: every row is type-checked up front, column storage is
  /// reserved once, and nothing is appended unless all rows validate
  /// (all-or-nothing, unlike a loop of appendRow which stops mid-way).
  util::Status appendRows(std::span<const std::vector<Value>> rows);

  /// Reserve column storage for \p rows more rows, so a sequence of bulk
  /// appends of known total size allocates once.
  void reserveMore(std::size_t rows);

  /// Append every row of \p src by typed column-to-column copy (no Value
  /// boxing). Column counts must match; an INT source column widens into a
  /// DOUBLE destination, and an all-NULL source column feeds any type.
  util::Status appendFrom(const Table& src);

  /// Append rows given column by column, under appendFrom's type rules.
  /// Each block's null mask and typed vector must hold the same number of
  /// rows, with nulls entries 0 or 1. Nothing is appended unless every
  /// block validates; a block whose type matches its column is moved in,
  /// not copied, while the table is empty.
  util::Status appendColumns(std::vector<ColumnBlock> blocks);

  /// Value of a cell. Preconditions: row < numRows(), col < numColumns().
  Value cell(std::size_t row, std::size_t col) const;

  /// Materialize a full row.
  std::vector<Value> row(std::size_t r) const;

  /// Raw typed column access for hot scan loops. The vectors are only
  /// meaningful for the column's declared type; null entries hold 0 / "" and
  /// must be checked through isNull().
  const std::vector<std::int64_t>& intColumn(std::size_t col) const;
  const std::vector<double>& doubleColumn(std::size_t col) const;
  const std::vector<std::string>& stringColumn(std::size_t col) const;
  bool isNull(std::size_t row, std::size_t col) const;

  /// Raw null mask of a column (1 = NULL), for vectorized kernels.
  const std::vector<std::uint8_t>& nullMask(std::size_t col) const;

  /// Append-maintained min/max/null summary of a column.
  const ZoneMap& zoneMap(std::size_t col) const;

  /// Rename in place (Database::renameTable; the merger adopts the first
  /// chunk dump's table as its merge table instead of copying it).
  void rename(std::string newName) { name_ = std::move(newName); }

  /// In-memory payload bytes (column data only, no metadata).
  std::size_t payloadBytes() const;

 private:
  struct Column : ColumnBlock {
    ZoneMap zone;

    void append(const Value& v);  // no type check; updates the zone map
    void reserveMore(std::size_t n);
    /// Append \p n rows of \p src (summarized by \p srcZone); the caller
    /// has checked that the types may be appended.
    void appendBlock(const ColumnBlock& src, const ZoneMap& srcZone,
                     std::size_t n);
  };

  std::string name_;
  Schema schema_;
  std::vector<Column> columns_;
  std::size_t numRows_ = 0;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace qserv::sql
