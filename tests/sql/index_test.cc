/// Ordered index probes and snapshot publishing: a flat index extended batch
/// by batch answers every probe exactly like one built in a single pass and
/// like a brute-force Value::compare oracle, and Database publishes a table
/// together with the indexes built over exactly its rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "sql/database.h"
#include "sql/index.h"
#include "util/rng.h"

namespace qserv::sql {
namespace {

/// Rows with lo <= key <= hi under Value::compare, in (key, row) order;
/// NULL and NaN keys never match.
std::vector<std::size_t> oracle(const Table& t, std::size_t col,
                                const Value& lo, const Value& hi) {
  if (lo.isNull() || hi.isNull()) return {};
  std::vector<std::pair<Value, std::size_t>> hits;
  for (std::size_t r = 0; r < t.numRows(); ++r) {
    Value k = t.cell(r, col);
    if (k.isNull() || (k.isDouble() && std::isnan(k.asDouble()))) continue;
    if (k.compare(lo) >= 0 && k.compare(hi) <= 0) hits.emplace_back(k, r);
  }
  std::stable_sort(hits.begin(), hits.end(), [](const auto& a, const auto& b) {
    return a.first.compare(b.first) < 0;
  });
  std::vector<std::size_t> rows;
  for (const auto& h : hits) rows.push_back(h.second);
  return rows;
}

constexpr std::int64_t kBig = std::int64_t{1} << 53;

/// Probe keys for the INT column: present and absent INTs, DOUBLEs on and
/// between integers (and beyond double precision), NaN, NULL and STRINGs.
std::vector<Value> probes(util::Rng& rng) {
  std::vector<Value> out = {
      Value::null(), Value("7"), Value(""), Value(3.0), Value(3.5),
      Value(-0.0), Value(static_cast<double>(kBig)), Value(kBig + 1),
      Value(std::numeric_limits<std::int64_t>::max()),
      Value(std::numeric_limits<std::int64_t>::min()), Value(1e300),
      Value(-1e300), Value(std::numeric_limits<double>::quiet_NaN())};
  for (int i = 0; i < 6; ++i) {
    std::int64_t v = rng.range(-3, 40);
    out.emplace_back(v);
    out.emplace_back(static_cast<double>(v));
    out.emplace_back(static_cast<double>(v) + 0.5);
  }
  return out;
}

/// Both lookups of \p a and \p b agree with each other and with the oracle
/// for every probe and every (lo, hi) pair of probes.
void expectSameAnswers(const OrderedIndex& a, const OrderedIndex& b,
                       const Table& t, std::size_t col,
                       const std::vector<Value>& keys) {
  for (const Value& k : keys) {
    auto want = oracle(t, col, k, k);
    EXPECT_EQ(a.lookup(k), want) << k.toSqlLiteral();
    EXPECT_EQ(b.lookup(k), want) << k.toSqlLiteral();
    for (const Value& hi : keys) {
      auto range = oracle(t, col, k, hi);
      EXPECT_EQ(a.lookupRange(k, hi), range)
          << k.toSqlLiteral() << ".." << hi.toSqlLiteral();
      EXPECT_EQ(b.lookupRange(k, hi), range)
          << k.toSqlLiteral() << ".." << hi.toSqlLiteral();
    }
  }
}

class OrderedIndexSeeded : public ::testing::TestWithParam<std::uint64_t> {};

// The ingest path's invariant: k extensions by random-size batches give the
// same (row, order) answers as one build over the final table.
TEST_P(OrderedIndexSeeded, ExtendingInRandomBatchesMatchesOneBuild) {
  util::Rng rng(GetParam());
  Schema schema({{"id", ColumnType::kInt},
                 {"x", ColumnType::kDouble},
                 {"s", ColumnType::kString}});
  Table t("T", schema);
  auto appendBatch = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<Value> row(3);
      switch (rng.below(12)) {
        case 0: row[0] = Value::null(); break;
        case 1: row[0] = Value(kBig + static_cast<std::int64_t>(rng.below(3)));
          break;
        case 2: row[0] = Value(std::numeric_limits<std::int64_t>::max());
          break;
        case 3: row[0] = Value(std::numeric_limits<std::int64_t>::min());
          break;
        default: row[0] = Value(rng.range(-3, 40)); break;  // duplicates
      }
      switch (rng.below(10)) {
        case 0: row[1] = Value::null(); break;
        case 1: row[1] = Value(std::numeric_limits<double>::quiet_NaN());
          break;
        default: row[1] = Value(static_cast<double>(rng.range(-3, 40)) / 2);
      }
      char letter = static_cast<char>('a' + rng.below(6));
      row[2] = rng.below(10) == 0 ? Value::null()
                                  : Value(std::string(1, letter));
      ASSERT_TRUE(t.appendRow(row).isOk());
    }
  };

  appendBatch(rng.below(20));
  OrderedIndex ids(t, 0), xs(t, 1), ss(t, 2);
  const int batches = 2 + static_cast<int>(rng.below(7));
  for (int b = 0; b < batches; ++b) {
    appendBatch(rng.below(60));  // empty batches included
    ids = ids.extended(t);
    xs = xs.extended(t);
    ss = ss.extended(t);
    ASSERT_EQ(ids.coveredRows(), t.numRows());
  }

  OrderedIndex idsOnce(t, 0), xsOnce(t, 1), ssOnce(t, 2);
  EXPECT_EQ(ids.size(), idsOnce.size());
  auto keys = probes(rng);
  expectSameAnswers(ids, idsOnce, t, 0, keys);
  expectSameAnswers(xs, xsOnce, t, 1, keys);
  std::vector<Value> strings = {Value("a"), Value("c"), Value("cc"),
                                Value("f"), Value("z"), Value(2),
                                Value(1.5), Value::null()};
  expectSameAnswers(ss, ssOnce, t, 2, strings);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderedIndexSeeded,
                         ::testing::Values(1u, 29u, 404u, 5151u, 60606u));

TEST(OrderedIndex, EmptyRangeAndNullKeys) {
  Table t("T", Schema({{"id", ColumnType::kInt}}));
  for (int v : {5, 3, 4, 3}) {
    ASSERT_TRUE(t.appendRow(std::vector<Value>{Value(v)}).isOk());
  }
  ASSERT_TRUE(t.appendRow(std::vector<Value>{Value::null()}).isOk());
  OrderedIndex index(t, 0);
  EXPECT_EQ(index.size(), 4u);  // the NULL key is not indexed
  EXPECT_EQ(index.coveredRows(), 5u);
  EXPECT_TRUE(index.lookupRange(Value(5), Value(3)).empty());
  EXPECT_TRUE(index.lookupRange(Value(4.5), Value(3.5)).empty());
  EXPECT_EQ(index.lookupRange(Value(3), Value(4)),
            (std::vector<std::size_t>{1, 3, 2}));  // key order, ties by row
  EXPECT_TRUE(index.lookup(Value::null()).empty());
}

/// A database holding T(id INT, v DOUBLE) with rows id = 0..n-1, indexed by
/// id, and a batch of \p m more rows id = n..n+m-1.
struct Fixture {
  Database db;
  std::shared_ptr<Table> batch;

  Fixture(int n, int m) {
    Schema schema({{"id", ColumnType::kInt}, {"v", ColumnType::kDouble}});
    auto t = std::make_shared<Table>("T", schema);
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(
          t->appendRow(std::vector<Value>{Value(i), Value(i * 0.5)}).isOk());
    }
    EXPECT_TRUE(db.registerTable(t).isOk());
    EXPECT_TRUE(db.createIndex("T", "id").isOk());
    batch = std::make_shared<Table>("batch", schema);
    for (int i = n; i < n + m; ++i) {
      EXPECT_TRUE(batch->appendRow(std::vector<Value>{Value(i), Value(i * 0.5)})
                      .isOk());
    }
  }
};

// The table/index race, pinned down: a reader that bound a snapshot before a
// publish probes an index that covers exactly that snapshot's rows, so an
// id published after the bind resolves to nothing rather than to a row past
// the end of the table it reads; a reader binding after the publish sees
// the new rows through the extended index.
TEST(DatabaseSnapshot, IndexCoversExactlyTheRowsOfItsTable) {
  Fixture f(100, 10);
  TableSnapshot before = f.db.snapshot("T");
  ASSERT_TRUE(f.db.extendTable("T", *f.batch).isOk());
  TableSnapshot after = f.db.snapshot("T");

  ASSERT_NE(before.table, after.table);
  EXPECT_EQ(before.table->numRows(), 100u);
  EXPECT_EQ(before.index("id")->coveredRows(), before.table->numRows());
  EXPECT_EQ(after.table->numRows(), 110u);
  EXPECT_EQ(after.index("ID")->coveredRows(), after.table->numRows());

  EXPECT_TRUE(before.index("id")->lookup(Value(105)).empty());
  EXPECT_EQ(after.index("id")->lookup(Value(105)),
            std::vector<std::size_t>{105});
  for (std::size_t r : after.index("id")->lookupRange(Value(0), Value(1000))) {
    EXPECT_LT(r, after.table->numRows());
  }

  ExecStats stats;
  auto r = f.db.execute("SELECT v FROM T WHERE id = 105", &stats);
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  ASSERT_EQ((*r)->numRows(), 1u);
  EXPECT_EQ((*r)->cell(0, 0).asDouble(), 52.5);
  EXPECT_EQ(stats.indexLookups, 1u);
}

TEST(DatabaseSnapshot, ExtendTableFailsWithoutPublishing) {
  Fixture f(5, 2);
  TableSnapshot before = f.db.snapshot("T");
  EXPECT_EQ(f.db.extendTable("missing", *f.batch).code(),
            util::ErrorCode::kNotFound);
  Table narrow("narrow", Schema({{"id", ColumnType::kInt}}));
  ASSERT_TRUE(narrow.appendRow(std::vector<Value>{Value(9)}).isOk());
  EXPECT_EQ(f.db.extendTable("T", narrow).code(),
            util::ErrorCode::kInvalidArgument);
  TableSnapshot now = f.db.snapshot("T");
  EXPECT_EQ(now.table, before.table);
  EXPECT_EQ(now.indexes, before.indexes);
  EXPECT_FALSE(f.db.hasTable("missing"));
}

TEST(DatabaseSnapshot, ReplaceAndInsertKeepIndexesOverTheirTable) {
  Fixture f(20, 0);
  // replaceTable: indexes are rebuilt over the replacement's rows.
  auto smaller = std::make_shared<Table>("T", f.db.findTable("T")->schema());
  for (int i : {7, 3}) {
    ASSERT_TRUE(
        smaller->appendRow(std::vector<Value>{Value(i), Value(0.0)}).isOk());
  }
  ASSERT_TRUE(f.db.replaceTable(smaller).isOk());
  TableSnapshot s = f.db.snapshot("T");
  EXPECT_EQ(s.table, smaller);
  EXPECT_EQ(s.index("id")->coveredRows(), 2u);
  EXPECT_EQ(s.index("id")->lookup(Value(3)), std::vector<std::size_t>{1});
  EXPECT_TRUE(s.index("id")->lookup(Value(15)).empty());

  // INSERT appends in place; the index is extended over the new rows.
  ASSERT_TRUE(f.db.execute("INSERT INTO T VALUES (3, 1.0), (42, 2.0)").isOk());
  s = f.db.snapshot("T");
  EXPECT_EQ(s.index("id")->coveredRows(), 4u);
  EXPECT_EQ(s.index("id")->lookup(Value(3)),
            (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(s.index("id")->lookup(Value(42)), std::vector<std::size_t>{3});
}

}  // namespace
}  // namespace qserv::sql
