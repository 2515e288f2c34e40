#include "sql/rowcodec.h"

#include <gtest/gtest.h>

#include "sql/dump.h"
#include "util/rng.h"

namespace qserv::sql {
namespace {

TablePtr sampleTable() {
  Schema schema({{"id", ColumnType::kInt},
                 {"ra", ColumnType::kDouble},
                 {"name", ColumnType::kString}});
  auto t = std::make_shared<Table>("src", schema);
  EXPECT_TRUE(t->appendRow(std::vector<Value>{Value(1), Value(1.5), Value("a")}).isOk());
  EXPECT_TRUE(t->appendRow(std::vector<Value>{Value(-7), Value::null(), Value("it's")}).isOk());
  EXPECT_TRUE(t->appendRow(std::vector<Value>{Value::null(), Value(0.25), Value::null()}).isOk());
  return t;
}

TEST(RowCodec, MagicDetection) {
  auto t = sampleTable();
  std::string bin = encodeTableBinary(*t, "out");
  EXPECT_TRUE(isBinaryTablePayload(bin));
  EXPECT_FALSE(isBinaryTablePayload(dumpTable(*t, "out")));
  EXPECT_FALSE(isBinaryTablePayload(""));
  EXPECT_FALSE(isBinaryTablePayload("QB"));
}

TEST(RowCodec, RoundTripPreservesEverything) {
  auto t = sampleTable();
  std::string bin = encodeTableBinary(*t, "decoded");
  auto loaded = decodeTableBinary(bin);
  ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
  EXPECT_EQ((*loaded)->name(), "decoded");
  ASSERT_EQ((*loaded)->numRows(), t->numRows());
  ASSERT_EQ((*loaded)->numColumns(), t->numColumns());
  for (std::size_t c = 0; c < t->numColumns(); ++c) {
    EXPECT_EQ((*loaded)->schema().column(c), t->schema().column(c));
  }
  for (std::size_t r = 0; r < t->numRows(); ++r) {
    for (std::size_t c = 0; c < t->numColumns(); ++c) {
      EXPECT_EQ((*loaded)->cell(r, c), t->cell(r, c)) << r << "," << c;
    }
  }
}

TEST(RowCodec, DoubleBitsExact) {
  Schema schema({{"x", ColumnType::kDouble}});
  auto t = std::make_shared<Table>("t", schema);
  for (double d : {0.1, 1.0 / 3.0, 1e-300, -0.0, 2.2250738585072014e-308}) {
    ASSERT_TRUE(t->appendRow(std::vector<Value>{Value(d)}).isOk());
  }
  auto loaded = decodeTableBinary(encodeTableBinary(*t, "t2"));
  ASSERT_TRUE(loaded.isOk());
  for (std::size_t r = 0; r < t->numRows(); ++r) {
    EXPECT_EQ((*loaded)->cell(r, 0).asDouble(), t->cell(r, 0).asDouble());
  }
}

TEST(RowCodec, EmptyTable) {
  Schema schema({{"a", ColumnType::kInt}});
  Table t("t", schema);
  auto loaded = decodeTableBinary(encodeTableBinary(t, "empty"));
  ASSERT_TRUE(loaded.isOk());
  EXPECT_EQ((*loaded)->numRows(), 0u);
  EXPECT_EQ((*loaded)->numColumns(), 1u);
}

TEST(RowCodec, TrailingBytesAreRejected) {
  // A payload is exactly one table: the reader splits the observables line
  // off before decoding, so bytes past the last column are damage.
  auto t = sampleTable();
  std::string bin = encodeTableBinary(*t, "t2");
  ASSERT_TRUE(decodeTableBinary(bin).isOk());
  EXPECT_FALSE(decodeTableBinary(bin + "-- QSERV-OBS trailing\n").isOk());
  EXPECT_FALSE(decodeTableBinary(bin + std::string(1, '\0')).isOk());
  Table dest("d", t->schema());
  EXPECT_FALSE(appendTableBinary(bin + "x", dest).isOk());
  EXPECT_EQ(dest.numRows(), 0u);
  EXPECT_TRUE(appendTableBinary(bin, dest).isOk());
  EXPECT_EQ(dest.numRows(), 3u);
}

TEST(RowCodec, TruncationIsRejectedEverywhere) {
  auto t = sampleTable();
  std::string bin = encodeTableBinary(*t, "t2");
  // Any strict prefix must fail cleanly (never crash, never succeed except
  // the degenerate full length).
  for (std::size_t cut = 4; cut < bin.size(); cut += 3) {
    auto r = decodeTableBinary(std::string_view(bin).substr(0, cut));
    EXPECT_FALSE(r.isOk()) << "cut=" << cut;
  }
}

TEST(RowCodec, GarbageRejected) {
  EXPECT_FALSE(decodeTableBinary("not binary at all").isOk());
  std::string bad = std::string(kRowCodecMagic) + std::string(100, '\xff');
  EXPECT_FALSE(decodeTableBinary(bad).isOk());
}

TEST(RowCodec, SmallerThanSqlDump) {
  // The point of §7.1: the binary stream is much denser than INSERT text.
  Schema schema({{"a", ColumnType::kInt}, {"b", ColumnType::kDouble}});
  auto t = std::make_shared<Table>("t", schema);
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t->appendRow(std::vector<Value>{
                     Value(static_cast<std::int64_t>(rng())),
                     Value(rng.uniform())})
                    .isOk());
  }
  std::string dump = dumpTable(*t, "t2");
  std::string bin = encodeTableBinary(*t, "t2");
  EXPECT_LT(bin.size() * 2, dump.size());
}

TEST(RowCodec, RandomizedRoundTripSweep) {
  util::Rng rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    Schema schema({{"i", ColumnType::kInt},
                   {"d", ColumnType::kDouble},
                   {"s", ColumnType::kString}});
    auto t = std::make_shared<Table>("t", schema);
    std::size_t rows = rng.below(50);
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<Value> row(3);
      row[0] = rng.below(5) == 0 ? Value::null()
                                 : Value(static_cast<std::int64_t>(rng()));
      row[1] = rng.below(5) == 0 ? Value::null() : Value(rng.uniform(-1e9, 1e9));
      if (rng.below(5) == 0) {
        row[2] = Value::null();
      } else {
        std::string s;
        for (std::size_t k = rng.below(20); k > 0; --k) {
          s.push_back(static_cast<char>(rng.below(256)));
        }
        row[2] = Value(std::move(s));
      }
      ASSERT_TRUE(t->appendRow(row).isOk());
    }
    auto loaded = decodeTableBinary(encodeTableBinary(*t, "t2"));
    ASSERT_TRUE(loaded.isOk()) << trial;
    ASSERT_EQ((*loaded)->numRows(), rows);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < 3; ++c) {
        ASSERT_EQ((*loaded)->cell(r, c), t->cell(r, c));
      }
    }
  }
}

}  // namespace
}  // namespace qserv::sql
