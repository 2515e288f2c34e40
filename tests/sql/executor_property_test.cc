/// Property-based differential tests for the SQL executor: randomized
/// predicates run through different execution paths (index probe vs full
/// scan, count vs materialize, grouped vs global, dump/replay) must agree.
#include <gtest/gtest.h>

#include "sql/dump.h"
#include "sql/executor.h"
#include "util/rng.h"
#include "util/strings.h"

namespace qserv::sql {
namespace {

/// Builds two identical databases, one with indexes and one without.
class ExecutorProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    Schema schema({{"id", ColumnType::kInt},
                   {"k", ColumnType::kInt},
                   {"x", ColumnType::kDouble},
                   {"y", ColumnType::kDouble}});
    auto a = std::make_shared<Table>("T", schema);
    auto b = std::make_shared<Table>("T", schema);
    util::Rng rng(GetParam());
    const int rows = 400;
    for (int i = 0; i < rows; ++i) {
      std::vector<Value> row(4);
      row[0] = Value(i);
      row[1] = Value(static_cast<std::int64_t>(rng.below(7)));
      row[2] = rng.below(20) == 0 ? Value::null()
                                  : Value(rng.uniform(-100.0, 100.0));
      row[3] = Value(rng.uniform(0.0, 1.0));
      ASSERT_TRUE(a->appendRow(row).isOk());
      ASSERT_TRUE(b->appendRow(row).isOk());
    }
    ASSERT_TRUE(indexed_.registerTable(a).isOk());
    ASSERT_TRUE(plain_.registerTable(b).isOk());
    ASSERT_TRUE(indexed_.createIndex("T", "id").isOk());
    ASSERT_TRUE(indexed_.createIndex("T", "k").isOk());
  }

  /// Run on both databases and require identical results (same row
  /// multiset in the same order for deterministic queries).
  void expectSame(const std::string& sql) {
    ExecStats si, sp;
    auto ri = indexed_.execute(sql, &si);
    auto rp = plain_.execute(sql, &sp);
    ASSERT_TRUE(ri.isOk()) << ri.status().toString() << " for " << sql;
    ASSERT_TRUE(rp.isOk()) << rp.status().toString() << " for " << sql;
    ASSERT_EQ((*ri)->numRows(), (*rp)->numRows()) << sql;
    ASSERT_EQ((*ri)->numColumns(), (*rp)->numColumns()) << sql;
    for (std::size_t r = 0; r < (*ri)->numRows(); ++r) {
      for (std::size_t c = 0; c < (*ri)->numColumns(); ++c) {
        ASSERT_EQ((*ri)->cell(r, c), (*rp)->cell(r, c))
            << sql << " at " << r << "," << c;
      }
    }
  }

  Database indexed_{"indexed"};
  Database plain_{"plain"};
};

TEST_P(ExecutorProperty, IndexAndScanPathsAgree) {
  util::Rng rng(GetParam() * 31 + 1);
  for (int trial = 0; trial < 12; ++trial) {
    std::int64_t v = rng.range(-10, 410);
    expectSame(util::format("SELECT * FROM T WHERE id = %lld ORDER BY id",
                            static_cast<long long>(v)));
    expectSame(util::format(
        "SELECT * FROM T WHERE id BETWEEN %lld AND %lld ORDER BY id",
        static_cast<long long>(v), static_cast<long long>(v + 25)));
    expectSame(util::format(
        "SELECT COUNT(*) FROM T WHERE id IN (%lld, %lld, %lld)",
        static_cast<long long>(v), static_cast<long long>(v + 3),
        static_cast<long long>(rng.range(0, 399))));
    expectSame(util::format("SELECT COUNT(*), SUM(x) FROM T WHERE k = %llu",
                            static_cast<unsigned long long>(rng.below(9))));
  }
}

// Probes into the INT-indexed columns whose constants are not plain INTs:
// the index must answer with Value::compare semantics (numeric across
// INT/DOUBLE, numerics before strings, NULL matching nothing), exactly as
// the scan does.
TEST_P(ExecutorProperty, MixedTypeIndexProbesAgreeWithScan) {
  util::Rng rng(GetParam() * 31 + 3);
  for (int trial = 0; trial < 8; ++trial) {
    long long v = rng.range(-5, 405);
    long long w = rng.range(-5, 405);
    long long k = static_cast<long long>(rng.below(8));
    for (const std::string& where : std::vector<std::string>{
             util::format("id = %lld.0", v),
             util::format("id = %lld.5", v),
             util::format("k = %lld.0", k),
             util::format("k = %lld.25", k),
             util::format("id IN (%lld, %lld.0, %lld.5, %lld, %lld)", v, w, v,
                          v, w),
             util::format("k IN (%lld.0, %lld, 2.5, %lld)", k, k, k),
             util::format("id BETWEEN %lld.5 AND %lld.75", v, v + 20),
             util::format("id BETWEEN %lld.25 AND %lld", v, v + 1),
             util::format("k BETWEEN %lld.5 AND 6.5", k),
             util::format("id BETWEEN %lld AND %lld", v + 10, v),
             util::format("k BETWEEN %lld.5 AND %lld", k, k),
             "id = NULL",
             "k IN (NULL, 3)",
             "id BETWEEN NULL AND 10",
             util::format("id = '%lld'", v),
             "k IN ('a', 2)",
             "id BETWEEN 'a' AND 'z'",
         }) {
      expectSame("SELECT * FROM T WHERE " + where + " ORDER BY id");
      // Order-independent aggregates: a range probe on k yields rows in
      // (k, row) order, a scan in row order, so a DOUBLE SUM may round
      // differently between the two.
      expectSame("SELECT COUNT(*), SUM(id), MAX(x) FROM T WHERE " + where);
      ExecStats stats;
      ASSERT_TRUE(indexed_.execute("SELECT id FROM T WHERE " + where, &stats)
                      .isOk());
      // Probed, unless the zone map ruled the scan out first.
      EXPECT_EQ(stats.indexLookups + stats.zoneMapPrunes, 1u) << where;
    }
  }
}

TEST_P(ExecutorProperty, CountStarEqualsMaterializedRowCount) {
  util::Rng rng(GetParam() * 31 + 2);
  for (int trial = 0; trial < 8; ++trial) {
    double cut = rng.uniform(-120.0, 120.0);
    std::string where = util::format("x > %.17g AND y < %.17g", cut,
                                     rng.uniform(0.0, 1.0));
    auto count =
        indexed_.execute("SELECT COUNT(*) FROM T WHERE " + where);
    auto rows = indexed_.execute("SELECT id FROM T WHERE " + where);
    ASSERT_TRUE(count.isOk() && rows.isOk());
    EXPECT_EQ((*count)->cell(0, 0).asInt(),
              static_cast<std::int64_t>((*rows)->numRows()));
  }
}

TEST_P(ExecutorProperty, GroupSumsEqualGlobalSum) {
  auto grouped = indexed_.execute(
      "SELECT k, SUM(y), COUNT(*) FROM T GROUP BY k");
  auto global = indexed_.execute("SELECT SUM(y), COUNT(*) FROM T");
  ASSERT_TRUE(grouped.isOk() && global.isOk());
  double sum = 0;
  std::int64_t n = 0;
  for (std::size_t r = 0; r < (*grouped)->numRows(); ++r) {
    sum += (*grouped)->cell(r, 1).asDouble();
    n += (*grouped)->cell(r, 2).asInt();
  }
  EXPECT_NEAR(sum, (*global)->cell(0, 0).asDouble(), 1e-9);
  EXPECT_EQ(n, (*global)->cell(0, 1).asInt());
}

TEST_P(ExecutorProperty, OrderByIsSortedAndLimitIsPrefix) {
  auto full = indexed_.execute("SELECT id, x FROM T ORDER BY x DESC, id");
  auto top = indexed_.execute("SELECT id, x FROM T ORDER BY x DESC, id LIMIT 10");
  ASSERT_TRUE(full.isOk() && top.isOk());
  // Sorted (NULLs first ascending => last in DESC order per compare()).
  for (std::size_t r = 1; r < (*full)->numRows(); ++r) {
    int c = (*full)->cell(r - 1, 1).compare((*full)->cell(r, 1));
    EXPECT_GE(c, 0) << "row " << r;
  }
  ASSERT_EQ((*top)->numRows(), 10u);
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_EQ((*top)->cell(r, 0), (*full)->cell(r, 0));
  }
}

TEST_P(ExecutorProperty, DumpReplayPreservesQueryResults) {
  auto result = indexed_.execute(
      "SELECT k, COUNT(*) AS n, SUM(y) AS s FROM T GROUP BY k ORDER BY k");
  ASSERT_TRUE(result.isOk());
  Database fresh;
  auto loaded = loadDump(fresh, dumpTable(**result, "replayed"));
  ASSERT_TRUE(loaded.isOk());
  // Aggregations over the replayed table equal direct recomputation.
  auto viaReplay = fresh.execute("SELECT SUM(n), SUM(s) FROM replayed");
  auto direct = indexed_.execute("SELECT COUNT(*), SUM(y) FROM T");
  ASSERT_TRUE(viaReplay.isOk() && direct.isOk());
  EXPECT_EQ((*viaReplay)->cell(0, 0).asInt(), (*direct)->cell(0, 0).asInt());
  EXPECT_NEAR((*viaReplay)->cell(0, 1).asDouble(),
              (*direct)->cell(0, 1).asDouble(), 1e-9);
}

TEST_P(ExecutorProperty, SelfJoinPairCountSymmetry) {
  // count of (a,b) pairs with a.x < b.x equals pairs with a.x > b.x.
  auto lt = indexed_.execute(
      "SELECT COUNT(*) FROM T a, T b WHERE a.x < b.x");
  auto gt = indexed_.execute(
      "SELECT COUNT(*) FROM T a, T b WHERE a.x > b.x");
  ASSERT_TRUE(lt.isOk() && gt.isOk());
  EXPECT_EQ((*lt)->cell(0, 0).asInt(), (*gt)->cell(0, 0).asInt());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorProperty,
                         ::testing::Values(11u, 222u, 3333u, 44444u));

}  // namespace
}  // namespace qserv::sql
