/// \file index.h
/// \brief Ordered secondary index over one column of a table.
///
/// The paper limits worker-side indexing to objectId (§4.3, §5.5): chunk
/// tables are indexed by objectId so point queries on the containing chunk
/// use indexed execution instead of a scan. This is that index.
///
/// An index is an immutable sorted flat array of (key, row) entries, ordered
/// by key and then by row. INT columns (every index the system creates:
/// objectId, subChunkId) keep raw int64 keys; other column types keep boxed
/// Value keys. Probes binary-search with exactly the ordering of
/// Value::compare, so ties come back in row order and NULL keys are never
/// returned. A table that grows by appending rows gets its next index from
/// extended(): the new rows' entries are sorted and merged into a copy of
/// the old array, instead of re-sorting every row.
#pragma once

#include <cstdint>
#include <vector>

#include "sql/table.h"

namespace qserv::sql {

class OrderedIndex {
 public:
  /// Build over \p table's column \p col (all current rows).
  OrderedIndex(const Table& table, std::size_t col);

  /// The index of \p table, which holds this index's rows followed by
  /// appended ones: this index's entries plus those of rows
  /// [coveredRows(), table.numRows()).
  OrderedIndex extended(const Table& table) const;

  /// Rows whose key equals \p key (sqlEquals semantics; NULL matches none).
  std::vector<std::size_t> lookup(const Value& key) const;

  /// Rows with lo <= key <= hi (inclusive); empty when lo > hi.
  std::vector<std::size_t> lookupRange(const Value& lo, const Value& hi) const;

  /// Table rows this index covers: every row below this count is indexed.
  std::size_t coveredRows() const { return coveredRows_; }

  /// Entries (rows with a non-NULL, non-NaN key).
  std::size_t size() const { return intKeys_ ? ints_.size() : values_.size(); }

 private:
  template <class K>
  struct Entry {
    K key;
    std::size_t row;
  };

  OrderedIndex(std::size_t col, bool intKeys) : col_(col), intKeys_(intKeys) {}

  std::size_t col_;
  bool intKeys_;
  std::size_t coveredRows_ = 0;
  std::vector<Entry<std::int64_t>> ints_;  ///< INT columns
  std::vector<Entry<Value>> values_;       ///< every other column type
};

}  // namespace qserv::sql
