/// Tests for the vectorized scan-filter path (sql/vector_eval.h) and the
/// executor's columnar aggregation: golden NULL-comparison, INT/DOUBLE
/// coercion and MIN/MAX/SUM edge-case semantics, randomized bit-exact parity
/// against the row-at-a-time boxed path, zone-map pruning stats, and the bulk
/// append paths (Table::appendRows / appendFrom) the scan pipeline rides on.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sql/database.h"
#include "sql/parser.h"
#include "sql/vector_eval.h"
#include "util/rng.h"
#include "util/strings.h"

namespace qserv::sql {
namespace {

/// Bit-exact cell equality: same type, same int, same double bit pattern
/// (-0.0 does not match 0.0), same string. Any NaN matches any NaN: when a
/// sum adds two NaNs, IEEE 754 leaves open which payload and sign survive,
/// and the compiler is free to commute the operands.
bool sameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return a.asInt() == b.asInt();
    case ValueType::kDouble:
      if (std::isnan(a.asDouble())) return std::isnan(b.asDouble());
      return std::bit_cast<std::uint64_t>(a.asDouble()) ==
             std::bit_cast<std::uint64_t>(b.asDouble());
    case ValueType::kString:
      return a.asString() == b.asString();
  }
  return false;
}

/// Same column names and types, and bit-identical cells in the same order.
void expectSameTable(const Table& on, const Table& off,
                     const std::string& what) {
  ASSERT_EQ(on.numColumns(), off.numColumns()) << what;
  for (std::size_t c = 0; c < on.numColumns(); ++c) {
    EXPECT_EQ(on.schema().column(c).name, off.schema().column(c).name) << what;
    EXPECT_EQ(on.schema().column(c).type, off.schema().column(c).type)
        << what << " column " << c;
  }
  ASSERT_EQ(on.numRows(), off.numRows()) << what;
  for (std::size_t r = 0; r < on.numRows(); ++r) {
    for (std::size_t c = 0; c < on.numColumns(); ++c) {
      EXPECT_TRUE(sameCell(on.cell(r, c), off.cell(r, c)))
          << what << " at " << r << "," << c << ": "
          << on.cell(r, c).toSqlLiteral() << " vs "
          << off.cell(r, c).toSqlLiteral();
    }
  }
}

/// Restores the global vectorized-filter switch after each test.
class VectorEval : public ::testing::Test {
 protected:
  void TearDown() override { setVectorizedFilterEnabled(true); }

  /// Run \p sql with the vectorized scan and columnar aggregation paths on
  /// and off; require the same column names and types and bit-identical
  /// cells. Returns the vectorized result (null on error); \p onStats, when
  /// given, receives its stats.
  TablePtr expectParity(Database& db, const std::string& sql,
                        ExecStats* onStats = nullptr) {
    setVectorizedFilterEnabled(true);
    auto vec = db.execute(sql, onStats);
    setVectorizedFilterEnabled(false);
    auto row = db.execute(sql);
    setVectorizedFilterEnabled(true);
    EXPECT_TRUE(vec.isOk()) << vec.status().toString() << " for " << sql;
    EXPECT_TRUE(row.isOk()) << row.status().toString() << " for " << sql;
    if (!vec.isOk() || !row.isOk()) return nullptr;
    expectSameTable(**vec, **row, sql);
    return *vec;
  }

  /// The ids surviving `SELECT id FROM T WHERE <where> ORDER BY id`, with
  /// parity between both paths asserted along the way.
  std::vector<std::int64_t> idsWhere(Database& db, const std::string& where) {
    std::string sql = "SELECT id FROM T WHERE " + where + " ORDER BY id";
    expectParity(db, sql);
    auto r = db.execute(sql);
    EXPECT_TRUE(r.isOk()) << where;
    std::vector<std::int64_t> ids;
    if (r.isOk()) {
      for (std::size_t i = 0; i < (*r)->numRows(); ++i) {
        ids.push_back((*r)->cell(i, 0).asInt());
      }
    }
    return ids;
  }
};

using Ids = std::vector<std::int64_t>;

/// id INT, a INT (NULLs at ids 2 and 5), x DOUBLE (NULL at id 3), s STRING.
std::unique_ptr<Database> goldenDb() {
  auto db = std::make_unique<Database>("golden");
  Schema schema({{"id", ColumnType::kInt},
                 {"a", ColumnType::kInt},
                 {"x", ColumnType::kDouble},
                 {"s", ColumnType::kString}});
  auto t = std::make_shared<Table>("T", schema);
  auto row = [&](std::int64_t id, Value a, Value x, const char* s) {
    std::vector<Value> r{Value(id), std::move(a), std::move(x),
                         Value(std::string(s))};
    ASSERT_TRUE(t->appendRow(r).isOk());
  };
  row(0, Value(std::int64_t{10}), Value(1.5), "aa");
  row(1, Value(std::int64_t{20}), Value(2.0), "bb");
  row(2, Value::null(), Value(2.5), "cc");
  row(3, Value(std::int64_t{30}), Value::null(), "dd");
  row(4, Value(std::int64_t{20}), Value(5.0), "ee");
  row(5, Value::null(), Value(-1.0), "ff");
  EXPECT_TRUE(db->registerTable(t).isOk());
  return db;
}

TEST_F(VectorEval, NullComparisonGoldens) {
  auto db = goldenDb();
  // NULL never satisfies a comparison — `a != 20` does NOT keep NULL rows.
  EXPECT_EQ(idsWhere(*db, "a = 20"), (Ids{1, 4}));
  EXPECT_EQ(idsWhere(*db, "a != 20"), (Ids{0, 3}));
  EXPECT_EQ(idsWhere(*db, "a < 30"), (Ids{0, 1, 4}));
  EXPECT_EQ(idsWhere(*db, "NOT a < 30"), (Ids{3}));
  EXPECT_EQ(idsWhere(*db, "a IS NULL"), (Ids{2, 5}));
  EXPECT_EQ(idsWhere(*db, "a IS NOT NULL"), (Ids{0, 1, 3, 4}));
  EXPECT_EQ(idsWhere(*db, "x IS NULL"), (Ids{3}));
  // Comparison against a NULL constant is NULL for every row.
  EXPECT_EQ(idsWhere(*db, "a = NULL"), Ids{});
  EXPECT_EQ(idsWhere(*db, "a != NULL"), Ids{});
  EXPECT_EQ(idsWhere(*db, "x BETWEEN 1 AND NULL"), Ids{});
  EXPECT_EQ(idsWhere(*db, "x NOT BETWEEN 1 AND NULL"), Ids{});
  // IN keeps matches even with a NULL item; NOT IN with a NULL item keeps
  // nothing (the non-match outcome is NULL, not true).
  EXPECT_EQ(idsWhere(*db, "a IN (20, NULL)"), (Ids{1, 4}));
  EXPECT_EQ(idsWhere(*db, "a NOT IN (20, NULL)"), Ids{});
  EXPECT_EQ(idsWhere(*db, "a NOT IN (20, 30)"), (Ids{0}));
  EXPECT_EQ(idsWhere(*db, "x NOT BETWEEN 1.5 AND 2.5"), (Ids{4, 5}));
  EXPECT_EQ(idsWhere(*db, "a IN (NULL)"), Ids{});
}

TEST_F(VectorEval, IntDoubleCoercionGoldens) {
  auto db = goldenDb();
  // INT column against DOUBLE constants: compare through widening.
  EXPECT_EQ(idsWhere(*db, "a < 25.5"), (Ids{0, 1, 4}));
  EXPECT_EQ(idsWhere(*db, "a = 20.0"), (Ids{1, 4}));
  EXPECT_EQ(idsWhere(*db, "a BETWEEN 15.5 AND 29.9"), (Ids{1, 4}));
  EXPECT_EQ(idsWhere(*db, "a IN (10.0, 30)"), (Ids{0, 3}));
  // DOUBLE column against INT constants.
  EXPECT_EQ(idsWhere(*db, "x = 2"), (Ids{1}));
  EXPECT_EQ(idsWhere(*db, "x >= 2"), (Ids{1, 2, 4}));
  EXPECT_EQ(idsWhere(*db, "x BETWEEN -1 AND 2"), (Ids{0, 1, 5}));
  // Inverted range: BETWEEN with lo > hi holds for nothing, NOT BETWEEN for
  // every non-null row.
  EXPECT_EQ(idsWhere(*db, "x BETWEEN 3 AND 2"), Ids{});
  EXPECT_EQ(idsWhere(*db, "x NOT BETWEEN 3 AND 2"), (Ids{0, 1, 2, 4, 5}));
  // A string constant against a numeric column compares by type rank
  // (numeric sorts before string) — constant truth per non-null row.
  EXPECT_EQ(idsWhere(*db, "a < 'zz'"), (Ids{0, 1, 3, 4}));
  EXPECT_EQ(idsWhere(*db, "a > 'zz'"), Ids{});
}

TEST_F(VectorEval, NaNColumnValuesKeepParityAndDisablePruning) {
  Database db("nan");
  Schema schema({{"id", ColumnType::kInt}, {"x", ColumnType::kDouble}});
  auto t = std::make_shared<Table>("T", schema);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(t->appendRow(std::vector<Value>{Value(std::int64_t{0}), Value(1.0)}).isOk());
  ASSERT_TRUE(t->appendRow(std::vector<Value>{Value(std::int64_t{1}), Value(nan)}).isOk());
  ASSERT_TRUE(t->appendRow(std::vector<Value>{Value(std::int64_t{2}), Value(2.0)}).isOk());
  ASSERT_TRUE(db.registerTable(t).isOk());
  // Value::compare treats NaN as equal to everything, so the NaN row
  // satisfies `x = 1e300` even though no finite value does. Zone pruning
  // must not "win" here: hasNaN disables the range check.
  EXPECT_EQ(idsWhere(db, "x = 1e300"), (Ids{1}));
  EXPECT_EQ(idsWhere(db, "x BETWEEN 100 AND 200"), (Ids{1}));
  EXPECT_EQ(idsWhere(db, "x > 1e300"), Ids{});
  EXPECT_EQ(idsWhere(db, "x < 1.5"), (Ids{0}));
  setVectorizedFilterEnabled(true);
  ExecStats stats;
  auto r = db.execute("SELECT COUNT(*) FROM T WHERE x = 1e300", &stats);
  ASSERT_TRUE(r.isOk());
  EXPECT_EQ((*r)->cell(0, 0).asInt(), 1);
  EXPECT_EQ(stats.zoneMapPrunes, 0u);
}

TEST_F(VectorEval, RandomizedParityTenThousandRows) {
  Database db("fuzz");
  Schema schema({{"id", ColumnType::kInt},
                 {"a", ColumnType::kInt},
                 {"x", ColumnType::kDouble},
                 {"y", ColumnType::kDouble},
                 {"z", ColumnType::kDouble},   // all NULL
                 {"s", ColumnType::kString}});
  auto t = std::make_shared<Table>("T", schema);
  util::Rng rng(20260806);
  const std::size_t kRows = 12000;  // > 2 kernel blocks, exercises reordering
  std::vector<std::vector<Value>> rows;
  rows.reserve(kRows);
  const char* words[] = {"lsst", "qserv", "czar", "chunk"};
  for (std::size_t i = 0; i < kRows; ++i) {
    std::vector<Value> row(6);
    row[0] = Value(static_cast<std::int64_t>(i));
    if (rng.below(10) != 0) {
      row[1] = Value(static_cast<std::int64_t>(rng.range(-50, 50)));
    }
    if (rng.below(8) != 0) row[2] = Value(rng.uniform(-100.0, 100.0));
    row[3] = Value(rng.uniform(0.0, 1.0));
    // row[4] (z) stays NULL for every row.
    row[5] = Value(std::string(words[rng.below(4)]));
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(t->appendRows(rows).isOk());
  ASSERT_TRUE(db.registerTable(t).isOk());

  // Every supported kernel shape with randomized constants, plus residual
  // shapes (strings, cross-column, arithmetic) mixed into conjunctions.
  const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
  for (int trial = 0; trial < 25; ++trial) {
    long long ia = rng.range(-55, 55);
    double dx = rng.uniform(-110.0, 110.0);
    double dy = rng.uniform(-0.1, 1.1);
    const char* op = ops[rng.below(6)];
    expectParity(db, util::format(
        "SELECT id FROM T WHERE a %s %lld ORDER BY id", op, ia));
    expectParity(db, util::format(
        "SELECT id, x FROM T WHERE x %s %.17g ORDER BY id", op, dx));
    expectParity(db, util::format(
        "SELECT COUNT(*) FROM T WHERE a BETWEEN %lld AND %lld", ia, ia + 20));
    expectParity(db, util::format(
        "SELECT id FROM T WHERE x NOT BETWEEN %.17g AND %.17g ORDER BY id",
        dx, dx + 30.0));
    expectParity(db, util::format(
        "SELECT COUNT(*) FROM T WHERE a IN (%lld, %lld, %lld)", ia, ia + 1,
        static_cast<long long>(rng.range(-55, 55))));
    expectParity(db, util::format(
        "SELECT COUNT(*) FROM T WHERE a NOT IN (%lld, %lld)", ia, ia + 2));
    // Conjunctions across columns, including the all-NULL column and
    // residual conjuncts that force the per-row fallback on survivors.
    expectParity(db, util::format(
        "SELECT id FROM T WHERE a > %lld AND x < %.17g AND y %s %.17g "
        "ORDER BY id", ia, dx, op, dy));
    expectParity(db, util::format(
        "SELECT id FROM T WHERE x > %.17g AND s = 'qserv' ORDER BY id", dx));
    expectParity(db, util::format(
        "SELECT id FROM T WHERE a IS NOT NULL AND x < y * 100 AND "
        "x > %.17g ORDER BY id", dx));
    expectParity(db, util::format(
        "SELECT COUNT(*) FROM T WHERE z IS NULL AND a < %lld", ia));
    expectParity(db, util::format(
        "SELECT COUNT(*) FROM T WHERE z > %.17g", dx));
  }
}

TEST_F(VectorEval, EmptyAndAllNullTables) {
  Database db("edges");
  Schema schema({{"id", ColumnType::kInt}, {"x", ColumnType::kDouble}});
  ASSERT_TRUE(
      db.registerTable(std::make_shared<Table>("T", schema)).isOk());
  EXPECT_EQ(idsWhere(db, "x < 5"), Ids{});
  EXPECT_EQ(idsWhere(db, "x IS NULL"), Ids{});
  setVectorizedFilterEnabled(true);
  ExecStats stats;
  auto r = db.execute("SELECT COUNT(*) FROM T WHERE x < 5", &stats);
  ASSERT_TRUE(r.isOk());
  EXPECT_EQ((*r)->cell(0, 0).asInt(), 0);
  // An empty table is never "pruned": there is nothing to skip.
  EXPECT_EQ(stats.zoneMapPrunes, 0u);

  auto allNull = std::make_shared<Table>("N", schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        allNull->appendRow(std::vector<Value>{Value(std::int64_t{i}), Value::null()}).isOk());
  }
  ASSERT_TRUE(db.registerTable(allNull).isOk());
  expectParity(db, "SELECT COUNT(*) FROM N WHERE x < 5");
  expectParity(db, "SELECT id FROM N WHERE x IS NULL ORDER BY id");
  expectParity(db, "SELECT COUNT(*) FROM N WHERE x IS NOT NULL");
}

TEST_F(VectorEval, ZoneMapPruneReportsZeroRowsScanned) {
  auto db = goldenDb();  // id in [0,5], a in [10,30], x in [-1,5]
  setVectorizedFilterEnabled(true);
  struct Case {
    const char* sql;
    bool prunes;
  };
  const Case cases[] = {
      {"SELECT COUNT(*) FROM T WHERE id = 999", true},
      {"SELECT id FROM T WHERE a > 100", true},
      {"SELECT COUNT(*) FROM T WHERE x BETWEEN 50.5 AND 60", true},
      {"SELECT COUNT(*) FROM T WHERE a IN (99, 101)", true},
      {"SELECT COUNT(*) FROM T WHERE id >= 0", false},
      {"SELECT COUNT(*) FROM T WHERE x < 100", false},
  };
  for (const Case& c : cases) {
    ExecStats stats;
    auto r = db->execute(c.sql, &stats);
    ASSERT_TRUE(r.isOk()) << c.sql;
    if (c.prunes) {
      EXPECT_EQ(stats.zoneMapPrunes, 1u) << c.sql;
      EXPECT_EQ(stats.rowsScanned, 0u) << c.sql;
      EXPECT_EQ(stats.zoneMapRowsSkipped, 6u) << c.sql;
    } else {
      EXPECT_EQ(stats.zoneMapPrunes, 0u) << c.sql;
      EXPECT_EQ(stats.rowsScanned, 6u) << c.sql;
    }
    expectParity(*db, c.sql);
  }
}

TEST_F(VectorEval, VectorStatsAndResidualFallback) {
  auto db = goldenDb();
  setVectorizedFilterEnabled(true);
  ExecStats stats;
  auto r = db->execute(
      "SELECT id FROM T WHERE x >= 2 AND s != 'cc' ORDER BY id", &stats);
  ASSERT_TRUE(r.isOk());
  EXPECT_EQ((*r)->numRows(), 2u);  // ids 1 and 4 (id 2 killed by residual)
  EXPECT_EQ(stats.vectorizedScans, 1u);
  EXPECT_EQ(stats.vectorRowsIn, 6u);
  EXPECT_EQ(stats.vectorRowsOut, 3u);   // x >= 2 keeps ids 1, 2, 4
  EXPECT_EQ(stats.fallbackRows, 3u);    // residual re-checks the survivors
  EXPECT_EQ(stats.rowsScanned, 6u);     // cost-model accounting is unchanged

  ExecStats pure;
  auto r2 = db->execute("SELECT id FROM T WHERE x >= 2 ORDER BY id", &pure);
  ASSERT_TRUE(r2.isOk());
  EXPECT_EQ(pure.vectorizedScans, 1u);
  EXPECT_EQ(pure.fallbackRows, 0u);  // fully kernelized, no residuals

  setVectorizedFilterEnabled(false);
  ExecStats off;
  ASSERT_TRUE(db->execute("SELECT id FROM T WHERE x >= 2", &off).isOk());
  EXPECT_EQ(off.vectorizedScans, 0u);
  EXPECT_EQ(off.rowsScanned, 6u);
}

TEST_F(VectorEval, CountStarPushdownMatchesAndYieldsToIndexes) {
  Database db("count");
  Schema schema({{"id", ColumnType::kInt}, {"x", ColumnType::kDouble}});
  auto t = std::make_shared<Table>("T", schema);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t->appendRow(std::vector<Value>{Value(std::int64_t{i}),
                              Value(static_cast<double>(i) / 10.0)}).isOk());
  }
  ASSERT_TRUE(db.registerTable(t).isOk());
  setVectorizedFilterEnabled(true);
  ExecStats stats;
  auto r = db.execute("SELECT COUNT(*) FROM T WHERE x < 2.05", &stats);
  ASSERT_TRUE(r.isOk());
  EXPECT_EQ((*r)->cell(0, 0).asInt(), 21);
  EXPECT_EQ(stats.vectorizedScans, 1u);
  EXPECT_EQ(stats.rowsScanned, 100u);
  expectParity(db, "SELECT COUNT(*) FROM T WHERE x < 2.05");
  expectParity(db, "SELECT COUNT(*) FROM T WHERE id BETWEEN 10 AND 19");

  // With an index on the filtered column, the index probe must win (the
  // pushdown would otherwise bypass indexLookups accounting).
  ASSERT_TRUE(db.createIndex("T", "id").isOk());
  ExecStats idx;
  auto ri = db.execute("SELECT COUNT(*) FROM T WHERE id BETWEEN 10 AND 19",
                       &idx);
  ASSERT_TRUE(ri.isOk());
  EXPECT_EQ((*ri)->cell(0, 0).asInt(), 10);
  EXPECT_EQ(idx.indexLookups, 1u);
  EXPECT_EQ(idx.vectorizedScans, 0u);
}

TEST_F(VectorEval, CompileShapesAndResiduals) {
  auto db = goldenDb();
  TablePtr t = db->findTable("T");
  std::vector<ScopeTable> scope{{"T", t.get()}};
  auto whereOf = [](const char* sql) {
    auto stmt = parseStatement(sql);
    EXPECT_TRUE(stmt.isOk()) << sql;
    return std::move(std::get<SelectStmt>(*stmt).where);
  };
  struct Case {
    const char* where;
    bool kernel;  // compiles to a kernel (vs residual)
  };
  const Case cases[] = {
      {"SELECT * FROM T WHERE a < 5", true},
      {"SELECT * FROM T WHERE 5 > a", true},  // flipped operand order
      {"SELECT * FROM T WHERE x BETWEEN 1 AND 2", true},
      {"SELECT * FROM T WHERE a IN (1, 2, 3)", true},
      {"SELECT * FROM T WHERE x IS NOT NULL", true},
      {"SELECT * FROM T WHERE a < 1 + 2", true},  // constant-folded rhs
      {"SELECT * FROM T WHERE s = 'aa'", false},      // string column
      {"SELECT * FROM T WHERE a < x", false},         // cross-column
      {"SELECT * FROM T WHERE a + 1 < 5", false},     // arithmetic on column
      {"SELECT * FROM T WHERE a < 5 OR x < 1", false},  // disjunction
  };
  for (const Case& c : cases) {
    auto where = whereOf(c.where);
    ASSERT_TRUE(where != nullptr) << c.where;
    const Expr* pred = where.get();
    auto sf = compileScanFilter({&pred, 1}, scope, 0, db->functions());
    ASSERT_TRUE(sf.isOk()) << c.where;
    EXPECT_EQ(sf->hasKernels(), c.kernel) << c.where;
    EXPECT_EQ(sf->residuals().size(), c.kernel ? 0u : 1u) << c.where;
    if (c.kernel) {
      EXPECT_EQ(sf->kernelColumns().size(), 1u) << c.where;
    }
  }
  // An empty table never prunes.
  Table empty("E", t->schema());
  auto where = whereOf("SELECT * FROM T WHERE a > 100");
  const Expr* pred = where.get();
  auto sf = compileScanFilter({&pred, 1}, scope, 0, db->functions());
  ASSERT_TRUE(sf.isOk());
  EXPECT_TRUE(sf->prunes(*t));
  EXPECT_FALSE(sf->prunes(empty));
}

TEST_F(VectorEval, AppendRowsIsAllOrNothing) {
  Schema schema({{"id", ColumnType::kInt}, {"x", ColumnType::kDouble}});
  Table t("T", schema);
  std::vector<std::vector<Value>> good;
  good.push_back({Value(std::int64_t{1}), Value(1.5)});
  good.push_back({Value(std::int64_t{2}), Value::null()});
  good.push_back({Value(std::int64_t{3}), Value(std::int64_t{7})});  // widens
  ASSERT_TRUE(t.appendRows(good).isOk());
  EXPECT_EQ(t.numRows(), 3u);
  EXPECT_EQ(t.cell(2, 1), Value(7.0));

  // A bad row in the middle rejects the whole batch: nothing is appended.
  std::vector<std::vector<Value>> bad;
  bad.push_back({Value(std::int64_t{4}), Value(4.0)});
  bad.push_back({Value(std::string("oops")), Value(5.0)});
  bad.push_back({Value(std::int64_t{6}), Value(6.0)});
  EXPECT_FALSE(t.appendRows(bad).isOk());
  EXPECT_EQ(t.numRows(), 3u);
  std::vector<std::vector<Value>> shortRow;
  shortRow.push_back({Value(std::int64_t{9})});
  EXPECT_FALSE(t.appendRows(shortRow).isOk());
  EXPECT_EQ(t.numRows(), 3u);

  // Zone maps reflect only the accepted rows.
  const ZoneMap& id = t.zoneMap(0);
  EXPECT_TRUE(id.hasValue);
  EXPECT_EQ(id.intMin, 1);
  EXPECT_EQ(id.intMax, 3);
  const ZoneMap& x = t.zoneMap(1);
  EXPECT_EQ(x.nullCount, 1u);
  EXPECT_EQ(x.dblMin, 1.5);
  EXPECT_EQ(x.dblMax, 7.0);
}

TEST_F(VectorEval, AppendFromWidensAndMergesZones) {
  Schema intSchema({{"id", ColumnType::kInt}, {"v", ColumnType::kInt}});
  Schema dblSchema({{"id", ColumnType::kInt}, {"v", ColumnType::kDouble}});
  Table src("S", intSchema);
  ASSERT_TRUE(src.appendRow(std::vector<Value>{Value(std::int64_t{1}),
                             Value(std::int64_t{100})}).isOk());
  ASSERT_TRUE(src.appendRow(std::vector<Value>{Value(std::int64_t{2}), Value::null()}).isOk());

  Table dst("D", dblSchema);
  ASSERT_TRUE(dst.appendRow(std::vector<Value>{Value(std::int64_t{0}), Value(0.5)}).isOk());
  ASSERT_TRUE(dst.appendFrom(src).isOk());  // INT source widens into DOUBLE
  EXPECT_EQ(dst.numRows(), 3u);
  EXPECT_EQ(dst.cell(1, 1), Value(100.0));
  EXPECT_TRUE(dst.isNull(2, 1));
  const ZoneMap& z = dst.zoneMap(1);
  EXPECT_EQ(z.dblMin, 0.5);
  EXPECT_EQ(z.dblMax, 100.0);
  EXPECT_EQ(z.nullCount, 1u);

  // Incompatible types fail (and leave the destination untouched) unless
  // the source column is entirely NULL.
  Schema strSchema({{"id", ColumnType::kInt}, {"v", ColumnType::kString}});
  Table strSrc("SS", strSchema);
  ASSERT_TRUE(strSrc.appendRow(std::vector<Value>{Value(std::int64_t{9}),
                                Value(std::string("nope"))}).isOk());
  EXPECT_FALSE(dst.appendFrom(strSrc).isOk());
  EXPECT_EQ(dst.numRows(), 3u);

  Table nullSrc("NS", strSchema);
  ASSERT_TRUE(nullSrc.appendRow(std::vector<Value>{Value(std::int64_t{7}),
                                 Value::null()}).isOk());
  EXPECT_TRUE(dst.appendFrom(nullSrc).isOk());
  EXPECT_EQ(dst.numRows(), 4u);
  EXPECT_TRUE(dst.isNull(3, 1));
  EXPECT_EQ(dst.zoneMap(1).nullCount, 2u);
}

TEST_F(VectorEval, RenameTableCarriesIndexes) {
  Database db("rename");
  Schema schema({{"id", ColumnType::kInt}});
  auto t = std::make_shared<Table>("old", schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t->appendRow(std::vector<Value>{Value(std::int64_t{i})}).isOk());
  }
  ASSERT_TRUE(db.registerTable(t).isOk());
  ASSERT_TRUE(db.createIndex("old", "id").isOk());
  EXPECT_FALSE(db.renameTable("missing", "other").isOk());
  ASSERT_TRUE(db.renameTable("old", "fresh").isOk());
  EXPECT_EQ(db.findTable("old"), nullptr);
  ASSERT_NE(db.findTable("fresh"), nullptr);
  EXPECT_EQ(db.findTable("fresh")->name(), "fresh");
  ExecStats stats;
  auto r = db.execute("SELECT * FROM fresh WHERE id = 3", &stats);
  ASSERT_TRUE(r.isOk());
  EXPECT_EQ((*r)->numRows(), 1u);
  EXPECT_EQ(stats.indexLookups, 1u);  // the index followed the rename
  // Renaming onto an existing name fails.
  auto other = std::make_shared<Table>("taken", schema);
  ASSERT_TRUE(db.registerTable(other).isOk());
  EXPECT_FALSE(db.renameTable("fresh", "taken").isOk());
}

// ------------------------------------------------- columnar aggregation

/// Aggregation fuzz table. g: INT group key, 1/8 NULL; every row of group
/// 7 has NULL a and x (an all-NULL group). a: INT with NULLs and values
/// next to INT64_MAX/MIN, so sums wrap. x: DOUBLE with NULLs, NaN, -0.0,
/// 0.0 and +-inf. s: STRING.
TablePtr aggTable(const std::string& name, std::size_t rows, util::Rng& rng) {
  Schema schema({{"id", ColumnType::kInt},
                 {"g", ColumnType::kInt},
                 {"a", ColumnType::kInt},
                 {"x", ColumnType::kDouble},
                 {"s", ColumnType::kString}});
  auto t = std::make_shared<Table>(name, schema);
  const char* words[] = {"lsst", "qserv", "czar"};
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<Value>> batch;
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<Value> row(5);
    row[0] = Value(static_cast<std::int64_t>(i));
    if (rng.below(8) != 0) row[1] = Value(rng.range(0, 9));
    const bool allNull = !row[1].isNull() && row[1].asInt() == 7;
    if (!allNull && rng.below(10) != 0) {
      switch (rng.below(20)) {
        case 0:
          row[2] = Value(std::numeric_limits<std::int64_t>::max() -
                         rng.range(0, 5));
          break;
        case 1:
          row[2] = Value(std::numeric_limits<std::int64_t>::min() +
                         rng.range(0, 5));
          break;
        default:
          row[2] = Value(rng.range(-1000, 1000));
      }
    }
    if (!allNull && rng.below(10) != 0) {
      switch (rng.below(50)) {
        case 0: row[3] = Value(std::numeric_limits<double>::quiet_NaN()); break;
        case 1: row[3] = Value(-0.0); break;
        case 2: row[3] = Value(0.0); break;
        case 3: row[3] = Value(rng.below(2) ? inf : -inf); break;
        default: row[3] = Value(rng.uniform(-100.0, 100.0));
      }
    }
    row[4] = Value(std::string(words[rng.below(3)]));
    batch.push_back(std::move(row));
  }
  EXPECT_TRUE(t->appendRows(batch).isOk());
  return t;
}

TEST_F(VectorEval, ColumnarAggregateGoldens) {
  Database db("agg_golden");
  Schema schema({{"g", ColumnType::kInt},
                 {"a", ColumnType::kInt},
                 {"x", ColumnType::kDouble}});
  auto t = std::make_shared<Table>("T", schema);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  // g arrives as 5, NULL, 3, 9; x ties -0.0/0.0 in group 5 and has a
  // leading NaN in group 3; group 9's a sum wraps past INT64_MAX.
  const std::vector<std::vector<Value>> rows = {
      {Value(std::int64_t{5}), Value(std::int64_t{1}), Value(-0.0)},
      {Value(), Value(std::int64_t{2}), Value(1.0)},
      {Value(std::int64_t{3}), Value(), Value(nan)},
      {Value(std::int64_t{5}), Value(std::int64_t{4}), Value(0.0)},
      {Value(), Value(), Value()},
      {Value(std::int64_t{9}), Value(big), Value(0.5)},
      {Value(std::int64_t{3}), Value(std::int64_t{6}), Value(-2.0)},
      {Value(std::int64_t{9}), Value(std::int64_t{1}), Value(0.25)},
  };
  ASSERT_TRUE(t->appendRows(rows).isOk());
  ASSERT_TRUE(db.registerTable(t).isOk());

  ExecStats stats;
  TablePtr r = expectParity(
      db, "SELECT g, COUNT(*), SUM(a), MIN(x), MAX(x), SUM(x) FROM T GROUP BY g",
      &stats);
  ASSERT_TRUE(r);
  EXPECT_EQ(stats.columnarAggregates, 1u);
  EXPECT_EQ(stats.columnarAggRows, rows.size());
  ASSERT_EQ(r->numRows(), 4u);
  // First-seen group order, the NULL key as its own group.
  EXPECT_EQ(r->cell(0, 0), Value(std::int64_t{5}));
  EXPECT_TRUE(r->cell(1, 0).isNull());
  EXPECT_EQ(r->cell(2, 0), Value(std::int64_t{3}));
  EXPECT_EQ(r->cell(3, 0), Value(std::int64_t{9}));
  EXPECT_EQ(r->cell(1, 1), Value(std::int64_t{2}));
  // Ties keep the first value: group 5's MIN and MAX are both -0.0.
  EXPECT_TRUE(std::signbit(r->cell(0, 3).asDouble()));
  EXPECT_TRUE(std::signbit(r->cell(0, 4).asDouble()));
  // A leading NaN is never replaced; group 3's MIN and MAX stay NaN.
  EXPECT_TRUE(std::isnan(r->cell(2, 3).asDouble()));
  EXPECT_TRUE(std::isnan(r->cell(2, 4).asDouble()));
  // The INT sum wraps modulo 2^64.
  EXPECT_EQ(r->cell(3, 2),
            Value(std::numeric_limits<std::int64_t>::min()));
  // SUM starts from +0.0, so -0.0 + 0.0 sums to +0.0.
  EXPECT_FALSE(std::signbit(r->cell(0, 5).asDouble()));

  // A NaN after the first value neither replaces nor is replaced.
  TablePtr late = expectParity(
      db, "SELECT MIN(x), MAX(x) FROM T WHERE g = 3 OR g = 9");
  ASSERT_TRUE(late);
  EXPECT_TRUE(std::isnan(late->cell(0, 0).asDouble()));

  // Expression arguments take the per-row path and are not columnar.
  ExecStats exprStats;
  expectParity(db, "SELECT g, SUM(a + 1) FROM T GROUP BY g", &exprStats);
  EXPECT_EQ(exprStats.columnarAggregates, 0u);
  setVectorizedFilterEnabled(false);
  ExecStats offStats;
  ASSERT_TRUE(db.execute("SELECT g, COUNT(*) FROM T GROUP BY g", &offStats)
                  .isOk());
  EXPECT_EQ(offStats.columnarAggregates, 0u);
}

TEST_F(VectorEval, ColumnarAggregateRandomizedParity) {
  util::Rng rng(20261017);
  Database db("agg_fuzz");
  for (std::size_t rows : {std::size_t{0}, std::size_t{1}, std::size_t{64},
                           std::size_t{5000}}) {
    SCOPED_TRACE(rows);
    for (const char* name : {"T", "U"}) {
      (void)db.dropTable(name, /*ifExists=*/true);
      ASSERT_TRUE(db.registerTable(aggTable(name, rows, rng)).isOk());
    }
    const std::string all =
        "COUNT(*), COUNT(a), COUNT(x), SUM(a), SUM(x), AVG(a), AVG(x), "
        "MIN(a), MAX(a), MIN(x), MAX(x)";
    for (int trial = 0; trial < 6; ++trial) {
      const long long cut = rng.range(0, static_cast<std::int64_t>(rows));
      const long long minCount = rng.range(0, 40);
      // Global aggregates: all rows, a kernel-filtered selection, an empty
      // (zone-pruned) selection, a residual filter, an all-NULL group.
      for (const std::string& where :
           {std::string(), util::format(" WHERE id < %lld", cut),
            std::string(" WHERE id > 100000000"),
            std::string(" WHERE s = 'qserv'"), std::string(" WHERE g = 7")}) {
        expectParity(db, "SELECT " + all + " FROM T" + where);
        expectParity(db, "SELECT g, " + all + " FROM T" + where +
                                  " GROUP BY g");
      }
      expectParity(db, util::format(
          "SELECT g, COUNT(*) AS n, SUM(x) AS sx FROM T GROUP BY g "
          "HAVING COUNT(*) > %lld", minCount));
      expectParity(db,
                        "SELECT DISTINCT MAX(a) > 0 AS pos FROM T GROUP BY g");
      expectParity(db, util::format(
          "SELECT g, SUM(x) AS sx, MIN(a) AS ma FROM T WHERE id >= %lld "
          "GROUP BY g ORDER BY ma DESC LIMIT 4", cut));
      // Shapes that keep the per-row path: expression arguments, STRING
      // arguments, DOUBLE and multi-column keys, aggregate arithmetic.
      expectParity(db,
                        "SELECT g, SUM(a + 1), MIN(x * 2), MAX(s), COUNT(s) "
                        "FROM T GROUP BY g");
      expectParity(db, util::format(
          "SELECT x, COUNT(*), SUM(a) FROM T WHERE id < %lld GROUP BY x",
          cut));
      expectParity(db,
                        "SELECT g, a % 3, COUNT(*), MAX(x) FROM T "
                        "GROUP BY g, a % 3");
      expectParity(db, "SELECT g, SUM(a) * 2, AVG(x) + MIN(x) FROM T "
                            "GROUP BY g");
      // Join inputs: typed loops read the joined table's selection.
      expectParity(db, util::format(
          "SELECT T.g, COUNT(*), SUM(U.a), MIN(U.x), MAX(T.x) FROM T, U "
          "WHERE T.id = U.id AND U.id < %lld GROUP BY T.g", cut));
      expectParity(db,
                        "SELECT U.g, COUNT(U.x), AVG(T.a) FROM T, U "
                        "WHERE T.id = U.id GROUP BY U.g");
    }
  }
}

TEST_F(VectorEval, ColumnarFinalAggregateOverMergedPartials) {
  // The czar's shape: per-chunk partial aggregates merged into one table,
  // then re-aggregated. The whole pipeline must match bit for bit.
  auto finalResult = [](bool columnar) -> TablePtr {
    setVectorizedFilterEnabled(columnar);
    util::Rng rng(777);
    Database db("czar");
    TablePtr merged;
    for (int chunk = 0; chunk < 6; ++chunk) {
      std::string name = util::format("Object_%d", chunk);
      EXPECT_TRUE(
          db.registerTable(aggTable(name, 50 + 40 * chunk, rng)).isOk());
      auto part = db.execute(
          "SELECT g, COUNT(*) AS c, COUNT(x) AS cx, SUM(a) AS sa, "
          "SUM(x) AS sx, MIN(x) AS mn, MAX(a) AS mx FROM " + name +
          " GROUP BY g");
      EXPECT_TRUE(part.isOk()) << part.status().toString();
      if (!part.isOk()) return nullptr;
      if (!merged) {
        merged = std::make_shared<Table>("merge", (*part)->schema());
      }
      EXPECT_TRUE(merged->appendFrom(**part).isOk());
    }
    EXPECT_TRUE(db.registerTable(merged).isOk());
    auto r = db.execute(
        "SELECT g, SUM(c), SUM(cx), SUM(sa), SUM(sx), MIN(mn), MAX(mx) "
        "FROM merge GROUP BY g ORDER BY g");
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    setVectorizedFilterEnabled(true);
    return r.isOk() ? *r : nullptr;
  };
  TablePtr on = finalResult(true);
  TablePtr off = finalResult(false);
  ASSERT_TRUE(on && off);
  EXPECT_GT(on->numRows(), 1u);
  expectSameTable(*on, *off, "final aggregate");
}

}  // namespace
}  // namespace qserv::sql
