#include "sql/table.h"

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
    case ColumnType::kInt: {
      std::int64_t x = v.asInt();
      ints.push_back(x);
      if (!zone.hasValue) {
        zone.hasValue = true;
        zone.intMin = zone.intMax = x;
      } else {
        if (x < zone.intMin) zone.intMin = x;
        if (x > zone.intMax) zone.intMax = x;
      }
      break;
    }
    case ColumnType::kDouble: {
      double x = v.toDouble();
      doubles.push_back(x);
      if (std::isnan(x)) {
        zone.hasNaN = true;
      } else if (!zone.hasValue) {
        zone.hasValue = true;
        zone.dblMin = zone.dblMax = x;
      } else {
        if (x < zone.dblMin) zone.dblMin = x;
        if (x > zone.dblMax) zone.dblMax = x;
      }
      break;
    }
    case ColumnType::kString:
      strings.push_back(v.asString());
      zone.hasValue = true;  // strings get no min/max; nullCount stays useful
      break;
  }
}

void Table::Column::reserveMore(std::size_t n) {
  nulls.reserve(nulls.size() + n);
  switch (type) {
    case ColumnType::kInt: ints.reserve(ints.size() + n); break;
    case ColumnType::kDouble: doubles.reserve(doubles.size() + n); break;
    case ColumnType::kString: strings.reserve(strings.size() + n); break;
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

util::Status Table::appendFrom(const Table& src) {
  if (src.numColumns() != numColumns()) {
    return util::Status::invalidArgument(util::format(
        "table %s: cannot append from %s: %zu columns vs %zu", name_.c_str(),
        src.name_.c_str(), src.numColumns(), numColumns()));
  }
  std::size_t n = src.numRows();
  for (std::size_t i = 0; i < numColumns(); ++i) {
    const Column& s = src.columns_[i];
    if (s.type == columns_[i].type) continue;
    if (columns_[i].type == ColumnType::kDouble && s.type == ColumnType::kInt) {
      continue;  // widened below
    }
    if (s.zone.nullCount == n) continue;  // all-NULL source feeds any type
    return util::Status::invalidArgument(util::format(
        "table %s column %s: cannot append %s column %s of type %s",
        name_.c_str(), schema_.column(i).name.c_str(), src.name_.c_str(),
        src.schema_.column(i).name.c_str(), columnTypeName(s.type)));
  }
  for (std::size_t i = 0; i < numColumns(); ++i) {
    Column& d = columns_[i];
    const Column& s = src.columns_[i];
    d.reserveMore(n);
    d.nulls.insert(d.nulls.end(), s.nulls.begin(), s.nulls.end());
    d.zone.nullCount += s.zone.nullCount;
    if (s.zone.nullCount == n && s.type != d.type) {
      // All-NULL mismatched column: append typed padding only.
      switch (d.type) {
        case ColumnType::kInt: d.ints.resize(d.ints.size() + n, 0); break;
        case ColumnType::kDouble:
          d.doubles.resize(d.doubles.size() + n, 0.0);
          break;
        case ColumnType::kString:
          d.strings.resize(d.strings.size() + n);
          break;
      }
      continue;
    }
    switch (d.type) {
      case ColumnType::kInt:
        d.ints.insert(d.ints.end(), s.ints.begin(), s.ints.end());
        if (s.zone.hasValue) {
          if (!d.zone.hasValue) {
            d.zone.hasValue = true;
            d.zone.intMin = s.zone.intMin;
            d.zone.intMax = s.zone.intMax;
          } else {
            if (s.zone.intMin < d.zone.intMin) d.zone.intMin = s.zone.intMin;
            if (s.zone.intMax > d.zone.intMax) d.zone.intMax = s.zone.intMax;
          }
        }
        break;
      case ColumnType::kDouble: {
        if (s.type == ColumnType::kInt) {
          for (std::int64_t x : s.ints) {
            d.doubles.push_back(static_cast<double>(x));
          }
          if (s.zone.hasValue) {
            double lo = static_cast<double>(s.zone.intMin);
            double hi = static_cast<double>(s.zone.intMax);
            if (!d.zone.hasValue) {
              d.zone.hasValue = true;
              d.zone.dblMin = lo;
              d.zone.dblMax = hi;
            } else {
              if (lo < d.zone.dblMin) d.zone.dblMin = lo;
              if (hi > d.zone.dblMax) d.zone.dblMax = hi;
            }
          }
        } else {
          d.doubles.insert(d.doubles.end(), s.doubles.begin(), s.doubles.end());
          if (s.zone.hasNaN) d.zone.hasNaN = true;
          if (s.zone.hasValue) {
            if (!d.zone.hasValue) {
              d.zone.hasValue = true;
              d.zone.dblMin = s.zone.dblMin;
              d.zone.dblMax = s.zone.dblMax;
            } else {
              if (s.zone.dblMin < d.zone.dblMin) d.zone.dblMin = s.zone.dblMin;
              if (s.zone.dblMax > d.zone.dblMax) d.zone.dblMax = s.zone.dblMax;
            }
          }
        }
        break;
      }
      case ColumnType::kString:
        d.strings.insert(d.strings.end(), s.strings.begin(), s.strings.end());
        if (s.zone.hasValue) d.zone.hasValue = true;
        break;
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
