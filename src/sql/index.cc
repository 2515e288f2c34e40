#include "sql/index.h"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace qserv::sql {

namespace {

/// Value::compare(Value(key), probe), without boxing the common INT probe.
int compareKey(std::int64_t key, const Value& probe) {
  if (probe.isInt()) {
    std::int64_t p = probe.asInt();
    return key < p ? -1 : key > p ? 1 : 0;
  }
  return Value(key).compare(probe);
}

int compareKey(const Value& key, const Value& probe) {
  return key.compare(probe);
}

int compareKey(std::int64_t a, std::int64_t b) {
  return a < b ? -1 : a > b ? 1 : 0;
}

/// (key, row) order. A strict weak order because one index's keys all come
/// from one column (one type) and exclude NULL and NaN.
struct EntryLess {
  template <class E>
  bool operator()(const E& a, const E& b) const {
    int c = compareKey(a.key, b.key);
    return c < 0 || (c == 0 && a.row < b.row);
  }
};

/// \p old (sorted) merged with \p fresh (any order) into one sorted array.
template <class E>
std::vector<E> mergedWith(const std::vector<E>& old, std::vector<E> fresh) {
  std::sort(fresh.begin(), fresh.end(), EntryLess{});
  if (old.empty()) return fresh;
  std::vector<E> out;
  out.reserve(old.size() + fresh.size());
  std::merge(old.begin(), old.end(), fresh.begin(), fresh.end(),
             std::back_inserter(out), EntryLess{});
  return out;
}

/// Rows of the entries with lo <= key <= hi under Value::compare. The
/// compare of a key against a fixed probe is monotone in the key order (an
/// int64 key widens monotonically to double), so both bounds are partition
/// points. A NaN probe compares equal to every key, so it matches every
/// row, as Value::compare says.
template <class E>
std::vector<std::size_t> rowsBetween(const std::vector<E>& entries,
                                     const Value& lo, const Value& hi) {
  auto begin = std::partition_point(
      entries.begin(), entries.end(),
      [&](const E& e) { return compareKey(e.key, lo) < 0; });
  auto end = std::partition_point(
      begin, entries.end(),
      [&](const E& e) { return compareKey(e.key, hi) <= 0; });
  std::vector<std::size_t> out;
  out.reserve(static_cast<std::size_t>(end - begin));
  for (auto it = begin; it != end; ++it) out.push_back(it->row);
  return out;
}

}  // namespace

OrderedIndex::OrderedIndex(const Table& table, std::size_t col)
    : col_(col),
      intKeys_(table.schema().column(col).type == ColumnType::kInt) {
  *this = extended(table);  // every row is new to an empty index
}

OrderedIndex OrderedIndex::extended(const Table& table) const {
  OrderedIndex next(col_, intKeys_);
  std::size_t n = table.numRows();
  if (intKeys_) {
    const auto& keys = table.intColumn(col_);
    const auto& nulls = table.nullMask(col_);
    std::vector<Entry<std::int64_t>> fresh;
    fresh.reserve(n - coveredRows_);
    for (std::size_t r = coveredRows_; r < n; ++r) {
      if (nulls[r] == 0) fresh.push_back({keys[r], r});
    }
    next.ints_ = mergedWith(ints_, std::move(fresh));
  } else {
    std::vector<Entry<Value>> fresh;
    for (std::size_t r = coveredRows_; r < n; ++r) {
      Value key = table.cell(r, col_);
      // NULL keys are unreachable via = / BETWEEN; NaN has no place in
      // a sort order (it compares equal to everything).
      if (key.isNull() || (key.isDouble() && std::isnan(key.asDouble()))) {
        continue;
      }
      fresh.push_back({std::move(key), r});
    }
    next.values_ = mergedWith(values_, std::move(fresh));
  }
  next.coveredRows_ = n;
  return next;
}

std::vector<std::size_t> OrderedIndex::lookup(const Value& key) const {
  return lookupRange(key, key);
}

std::vector<std::size_t> OrderedIndex::lookupRange(const Value& lo,
                                                   const Value& hi) const {
  if (lo.isNull() || hi.isNull()) return {};
  return intKeys_ ? rowsBetween(ints_, lo, hi) : rowsBetween(values_, lo, hi);
}

}  // namespace qserv::sql
