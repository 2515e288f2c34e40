/// \file dump_size_test.cc
/// \brief dumpedBytes() counts exactly what dumpTable() would write, split
/// at the first INSERT, without building the dump.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <limits>

#include "sql/dump.h"
#include "util/rng.h"

namespace qserv::sql {
namespace {

void expectSameSize(const Table& t, const std::string& name,
                    std::size_t batchRows = 500) {
  std::string dump = dumpTable(t, name, batchRows);
  std::size_t envelope = dump.find("INSERT");
  if (envelope == std::string::npos) envelope = dump.size();
  DumpSize size = dumpedBytes(t, name, batchRows);
  EXPECT_EQ(size.envelope, envelope) << t.numRows() << " rows";
  EXPECT_EQ(size.rows, dump.size() - envelope) << t.numRows() << " rows";
}

Schema mixedSchema() {
  return Schema({{"objectId", ColumnType::kInt},
                 {"flux", ColumnType::kDouble},
                 {"label", ColumnType::kString},
                 {"ra_PS", ColumnType::kDouble}});
}

Value randomDouble(util::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  static const double kEdges[] = {
      std::numeric_limits<double>::quiet_NaN(),
      kInf,
      -kInf,
      -0.0,
      0.0,
      4.9406564584124654e-324,  // smallest denormal
      2.2250738585072009e-308,  // largest denormal
      1e308,
      -1e308,
      1.0,
      100.0,
      1e16,
      1e17,
      123456789012345678.0,
      0.1,
      1.0 / 3.0};
  switch (rng.below(4)) {
    case 0: return Value(kEdges[rng.below(std::size(kEdges))]);
    case 1: return Value(static_cast<double>(rng.range(-1000, 1000)));
    case 2: return Value(rng.uniform(-1e9, 1e9));
    default: {
      std::uint64_t bits = rng();
      double d;
      std::memcpy(&d, &bits, sizeof d);
      return Value(d);
    }
  }
}

Value randomInt(util::Rng& rng) {
  static const std::int64_t kEdges[] = {
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(), 0, -1, 9, 10};
  if (rng.below(3) == 0) return Value(kEdges[rng.below(std::size(kEdges))]);
  return Value(static_cast<std::int64_t>(rng()) >>
               static_cast<int>(rng.below(63)));
}

Value randomString(util::Rng& rng) {
  static const char* kEdges[] = {"", "'", "\\", "it's", "a\\'b", "''\\\\"};
  if (rng.below(2) == 0) return Value(kEdges[rng.below(std::size(kEdges))]);
  std::string s;
  for (std::size_t k = rng.below(12); k > 0; --k) {
    s.push_back(static_cast<char>(rng.below(256)));
  }
  return Value(std::move(s));
}

Table randomTable(util::Rng& rng, std::size_t rows) {
  Table t("src", mixedSchema());
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Value> row = {randomInt(rng), randomDouble(rng),
                              randomString(rng), randomDouble(rng)};
    for (Value& v : row) {
      if (rng.below(8) == 0) v = Value::null();
    }
    EXPECT_TRUE(t.appendRow(row).isOk());
  }
  return t;
}

TEST(DumpedBytes, EdgeValuesMatchDumpTable) {
  Table t("src", mixedSchema());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  std::vector<std::vector<Value>> rows = {
      {Value(lo), Value(nan), Value("it's"), Value(-0.0)},
      {Value(hi), Value(inf), Value("back\\slash"), Value(-inf)},
      {Value::null(), Value(5e-324), Value(""), Value(1e308)},
      {Value(0), Value(-1e308), Value::null(), Value::null()},
      {Value(-1), Value(2.0), Value("'\\'"), Value(1e17)},
  };
  for (const auto& row : rows) ASSERT_TRUE(t.appendRow(row).isOk());
  expectSameSize(t, "r_0123456789abcdef0123456789abcdef");
}

TEST(DumpedBytes, CrossesInsertBatchBoundaries) {
  util::Rng rng(7);
  for (std::size_t rows : {0, 1, 499, 500, 501, 1000, 1501}) {
    Table t = randomTable(rng, rows);
    expectSameSize(t, "r_batch");
  }
  // A small batch size crosses many statement boundaries.
  Table t = randomTable(rng, 37);
  expectSameSize(t, "r_small", /*batchRows=*/4);
}

TEST(DumpedBytes, SeededRandomTablesMatchDumpTable) {
  util::Rng rng(20261017);
  for (int trial = 0; trial < 40; ++trial) {
    Table t = randomTable(rng, rng.below(80));
    expectSameSize(t, trial % 2 == 0 ? "r_x" : "a_much_longer_result_name");
  }
}

TEST(DumpedBytes, NoColumnsAndSingleColumnTables) {
  Table empty("e", Schema{});
  expectSameSize(empty, "r_empty");
  Table one("o", Schema({{"n", ColumnType::kInt}}));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(one.appendRow(std::vector<Value>{Value(i)}).isOk());
  }
  expectSameSize(one, "r_one");
}

}  // namespace
}  // namespace qserv::sql
