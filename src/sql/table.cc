#include "sql/table.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/strings.h"

namespace qserv::sql {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.resize(schema_.numColumns());
  for (std::size_t i = 0; i < schema_.numColumns(); ++i) {
    columns_[i].type = schema_.column(i).type;
  }
}

namespace {

// Zone-map maintenance for one non-null value.
void noteInt(ZoneMap& z, std::int64_t x) {
  if (!z.hasValue) {
    z.hasValue = true;
    z.intMin = z.intMax = x;
  } else {
    if (x < z.intMin) z.intMin = x;
    if (x > z.intMax) z.intMax = x;
  }
}

void noteDouble(ZoneMap& z, double x) {
  if (std::isnan(x)) {
    z.hasNaN = true;
  } else if (!z.hasValue) {
    z.hasValue = true;
    z.dblMin = z.dblMax = x;
  } else {
    if (x < z.dblMin) z.dblMin = x;
    if (x > z.dblMax) z.dblMax = x;
  }
}

/// Zone map of a bulk-append block; kInvalidArgument when a null-mask entry
/// is not 0 or 1.
util::Result<ZoneMap> summarize(const ColumnBlock& b) {
  ZoneMap z;
  for (std::size_t r = 0; r < b.nulls.size(); ++r) {
    if (b.nulls[r] > 1) {
      return util::Status::invalidArgument("null mask entry is not 0 or 1");
    }
    if (b.nulls[r]) {
      ++z.nullCount;
      continue;
    }
    switch (b.type) {
      case ColumnType::kInt: noteInt(z, b.ints[r]); break;
      case ColumnType::kDouble: noteDouble(z, b.doubles[r]); break;
      case ColumnType::kString: z.hasValue = true; break;
    }
  }
  return z;
}

/// appendFrom's type rule: a same-typed source, an INT source into a DOUBLE
/// column, or an all-NULL source of any type.
bool appendable(ColumnType dest, ColumnType src, std::size_t srcNulls,
                std::size_t n) {
  return src == dest ||
         (dest == ColumnType::kDouble && src == ColumnType::kInt) ||
         srcNulls == n;
}

std::size_t typedSize(const ColumnBlock& b) {
  switch (b.type) {
    case ColumnType::kInt: return b.ints.size();
    case ColumnType::kDouble: return b.doubles.size();
    case ColumnType::kString: return b.strings.size();
  }
  return 0;
}

}  // namespace

void Table::Column::append(const Value& v) {
  nulls.push_back(v.isNull() ? 1 : 0);
  if (v.isNull()) {
    ++zone.nullCount;
    switch (type) {
      case ColumnType::kInt: ints.push_back(0); break;
      case ColumnType::kDouble: doubles.push_back(0.0); break;
      case ColumnType::kString: strings.push_back(std::string()); break;
    }
    return;
  }
  switch (type) {
    case ColumnType::kInt:
      ints.push_back(v.asInt());
      noteInt(zone, ints.back());
      break;
    case ColumnType::kDouble:
      doubles.push_back(v.toDouble());
      noteDouble(zone, doubles.back());
      break;
    case ColumnType::kString:
      strings.push_back(v.asString());
      zone.hasValue = true;  // strings get no min/max; nullCount stays useful
      break;
  }
}

namespace {
/// Make room for \p n more elements, growing geometrically. Reserving
/// exactly size()+n on every append defeats std::vector's doubling: each
/// append then reallocates and copies the whole column, and a merge table
/// fed one chunk result at a time pays that once per chunk.
template <class Vec>
void growFor(Vec& v, std::size_t n) {
  if (v.capacity() - v.size() < n) {
    v.reserve(std::max(v.size() + n, 2 * v.capacity()));
  }
}
}  // namespace

void Table::Column::reserveMore(std::size_t n) {
  growFor(nulls, n);
  switch (type) {
    case ColumnType::kInt: growFor(ints, n); break;
    case ColumnType::kDouble: growFor(doubles, n); break;
    case ColumnType::kString: growFor(strings, n); break;
  }
}

util::Status Table::appendRow(std::span<const Value> values) {
  if (values.size() != schema_.numColumns()) {
    return util::Status::invalidArgument(util::format(
        "table %s: row has %zu values, schema has %zu columns", name_.c_str(),
        values.size(), schema_.numColumns()));
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!valueMatches(columns_[i].type, values[i])) {
      return util::Status::invalidArgument(util::format(
          "table %s column %s: %s value does not match declared type %s",
          name_.c_str(), schema_.column(i).name.c_str(),
          valueTypeName(values[i].type()), columnTypeName(columns_[i].type)));
    }
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    columns_[i].append(values[i]);
  }
  ++numRows_;
  return util::Status::ok();
}

util::Status Table::appendRows(std::span<const std::vector<Value>> rows) {
  // Validate everything before touching column storage so a bad row in the
  // middle of a batch cannot leave the table half-appended.
  for (const auto& values : rows) {
    if (values.size() != schema_.numColumns()) {
      return util::Status::invalidArgument(util::format(
          "table %s: row has %zu values, schema has %zu columns", name_.c_str(),
          values.size(), schema_.numColumns()));
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (!valueMatches(columns_[i].type, values[i])) {
        return util::Status::invalidArgument(util::format(
            "table %s column %s: %s value does not match declared type %s",
            name_.c_str(), schema_.column(i).name.c_str(),
            valueTypeName(values[i].type()), columnTypeName(columns_[i].type)));
      }
    }
  }
  for (Column& c : columns_) c.reserveMore(rows.size());
  for (const auto& values : rows) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      columns_[i].append(values[i]);
    }
  }
  numRows_ += rows.size();
  return util::Status::ok();
}

void Table::reserveMore(std::size_t rows) {
  for (Column& c : columns_) c.reserveMore(rows);
}

void Table::Column::appendBlock(const ColumnBlock& s, const ZoneMap& sz,
                                std::size_t n) {
  reserveMore(n);
  nulls.insert(nulls.end(), s.nulls.begin(), s.nulls.begin() + n);
  zone.nullCount += sz.nullCount;
  if (sz.nullCount == n && s.type != type) {
    // All-NULL mismatched column: append typed padding only.
    switch (type) {
      case ColumnType::kInt: ints.resize(ints.size() + n, 0); break;
      case ColumnType::kDouble: doubles.resize(doubles.size() + n, 0.0); break;
      case ColumnType::kString: strings.resize(strings.size() + n); break;
    }
    return;
  }
  // Widening or not, the source's extremes bound every value it adds.
  switch (type) {
    case ColumnType::kInt:
      ints.insert(ints.end(), s.ints.begin(), s.ints.begin() + n);
      if (sz.hasValue) {
        noteInt(zone, sz.intMin);
        noteInt(zone, sz.intMax);
      }
      break;
    case ColumnType::kDouble:
      if (s.type == ColumnType::kInt) {
        for (std::size_t r = 0; r < n; ++r) {
          doubles.push_back(static_cast<double>(s.ints[r]));
        }
        if (sz.hasValue) {
          noteDouble(zone, static_cast<double>(sz.intMin));
          noteDouble(zone, static_cast<double>(sz.intMax));
        }
      } else {
        doubles.insert(doubles.end(), s.doubles.begin(), s.doubles.begin() + n);
        if (sz.hasNaN) zone.hasNaN = true;
        if (sz.hasValue) {
          noteDouble(zone, sz.dblMin);
          noteDouble(zone, sz.dblMax);
        }
      }
      break;
    case ColumnType::kString:
      strings.insert(strings.end(), s.strings.begin(), s.strings.begin() + n);
      if (sz.hasValue) zone.hasValue = true;
      break;
  }
}

util::Status Table::appendFrom(const Table& src) {
  if (src.numColumns() != numColumns()) {
    return util::Status::invalidArgument(util::format(
        "table %s: cannot append from %s: %zu columns vs %zu", name_.c_str(),
        src.name_.c_str(), src.numColumns(), numColumns()));
  }
  const std::size_t n = src.numRows();
  for (std::size_t i = 0; i < numColumns(); ++i) {
    const Column& s = src.columns_[i];
    if (!appendable(columns_[i].type, s.type, s.zone.nullCount, n)) {
      return util::Status::invalidArgument(util::format(
          "table %s column %s: cannot append %s column %s of type %s",
          name_.c_str(), schema_.column(i).name.c_str(), src.name_.c_str(),
          src.schema_.column(i).name.c_str(), columnTypeName(s.type)));
    }
  }
  for (std::size_t i = 0; i < numColumns(); ++i) {
    columns_[i].appendBlock(src.columns_[i], src.columns_[i].zone, n);
  }
  numRows_ += n;
  return util::Status::ok();
}

util::Status Table::appendColumns(std::vector<ColumnBlock> blocks) {
  if (blocks.size() != numColumns()) {
    return util::Status::invalidArgument(util::format(
        "table %s: cannot append %zu columns to %zu", name_.c_str(),
        blocks.size(), numColumns()));
  }
  const std::size_t n = blocks.empty() ? 0 : blocks[0].nulls.size();
  std::vector<ZoneMap> zones;
  zones.reserve(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const ColumnBlock& b = blocks[i];
    if (b.nulls.size() != n || typedSize(b) != n) {
      return util::Status::invalidArgument(util::format(
          "table %s: column block %zu does not hold %zu rows", name_.c_str(),
          i, n));
    }
    QSERV_ASSIGN_OR_RETURN(ZoneMap zone, summarize(b));
    if (!appendable(columns_[i].type, b.type, zone.nullCount, n)) {
      return util::Status::invalidArgument(util::format(
          "table %s column %s: cannot append a column of type %s",
          name_.c_str(), schema_.column(i).name.c_str(),
          columnTypeName(b.type)));
    }
    zones.push_back(zone);
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    Column& d = columns_[i];
    if (numRows_ == 0 && blocks[i].type == d.type) {
      static_cast<ColumnBlock&>(d) = std::move(blocks[i]);
      d.zone = zones[i];
    } else {
      d.appendBlock(blocks[i], zones[i], n);
    }
  }
  numRows_ += n;
  return util::Status::ok();
}

Value Table::cell(std::size_t row, std::size_t col) const {
  assert(row < numRows_ && col < columns_.size());
  const Column& c = columns_[col];
  if (c.nulls[row]) return Value::null();
  switch (c.type) {
    case ColumnType::kInt: return Value(c.ints[row]);
    case ColumnType::kDouble: return Value(c.doubles[row]);
    case ColumnType::kString: return Value(c.strings[row]);
  }
  return Value::null();
}

std::vector<Value> Table::row(std::size_t r) const {
  std::vector<Value> out;
  out.reserve(numColumns());
  for (std::size_t c = 0; c < numColumns(); ++c) out.push_back(cell(r, c));
  return out;
}

const std::vector<std::int64_t>& Table::intColumn(std::size_t col) const {
  assert(columns_[col].type == ColumnType::kInt);
  return columns_[col].ints;
}

const std::vector<double>& Table::doubleColumn(std::size_t col) const {
  assert(columns_[col].type == ColumnType::kDouble);
  return columns_[col].doubles;
}

const std::vector<std::string>& Table::stringColumn(std::size_t col) const {
  assert(columns_[col].type == ColumnType::kString);
  return columns_[col].strings;
}

bool Table::isNull(std::size_t row, std::size_t col) const {
  assert(row < numRows_ && col < columns_.size());
  return columns_[col].nulls[row] != 0;
}

const std::vector<std::uint8_t>& Table::nullMask(std::size_t col) const {
  assert(col < columns_.size());
  return columns_[col].nulls;
}

const ZoneMap& Table::zoneMap(std::size_t col) const {
  assert(col < columns_.size());
  return columns_[col].zone;
}

std::size_t Table::payloadBytes() const {
  std::size_t total = 0;
  for (const Column& c : columns_) {
    switch (c.type) {
      case ColumnType::kInt: total += c.ints.size() * sizeof(std::int64_t); break;
      case ColumnType::kDouble: total += c.doubles.size() * sizeof(double); break;
      case ColumnType::kString:
        for (const auto& s : c.strings) total += s.size() + 1;
        break;
    }
    total += c.nulls.size();
  }
  return total;
}

}  // namespace qserv::sql
