#include "sql/expr_eval.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "sql/parser.h"

namespace qserv::sql {
namespace {

/// Evaluate a constant expression through parse + bind + eval.
Value evalConst(std::string_view sql) {
  auto expr = parseExpression(sql);
  EXPECT_TRUE(expr.isOk()) << expr.status().toString() << " for: " << sql;
  auto v = evalConstExpr(**expr, FunctionRegistry::builtins());
  EXPECT_TRUE(v.isOk()) << v.status().toString() << " for: " << sql;
  return std::move(v).value();
}

TEST(ExprEval, Arithmetic) {
  EXPECT_EQ(evalConst("1 + 2").asInt(), 3);
  EXPECT_EQ(evalConst("7 - 10").asInt(), -3);
  EXPECT_EQ(evalConst("6 * 7").asInt(), 42);
  EXPECT_DOUBLE_EQ(evalConst("1 + 2.5").asDouble(), 3.5);
  EXPECT_DOUBLE_EQ(evalConst("7 / 2").asDouble(), 3.5);  // / is always real
  EXPECT_EQ(evalConst("7 % 3").asInt(), 1);
  EXPECT_DOUBLE_EQ(evalConst("7.5 % 2").asDouble(), 1.5);
}

TEST(ExprEval, IntegerOverflowWraps) {
  // Two's-complement wraparound, never undefined behaviour (the UBSan
  // build of this suite checks).
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(evalConst("9223372036854775807 + 1").asInt(), min);
  EXPECT_EQ(evalConst("-9223372036854775807 - 2").asInt(), max);
  EXPECT_EQ(evalConst("9223372036854775807 * 2").asInt(), -2);
  EXPECT_EQ(evalConst("-(-9223372036854775807 - 1)").asInt(), min);
  EXPECT_EQ(evalConst("(-9223372036854775807 - 1) % -1").asInt(), 0);
}

TEST(ExprEval, DivisionByZeroIsNull) {
  EXPECT_TRUE(evalConst("1 / 0").isNull());
  EXPECT_TRUE(evalConst("1 % 0").isNull());
  EXPECT_TRUE(evalConst("1.0 / 0.0").isNull());
}

TEST(ExprEval, NullPropagation) {
  EXPECT_TRUE(evalConst("NULL + 1").isNull());
  EXPECT_TRUE(evalConst("NULL = NULL").isNull());
  EXPECT_TRUE(evalConst("1 < NULL").isNull());
  EXPECT_TRUE(evalConst("-(NULL)").isNull());
}

TEST(ExprEval, ThreeValuedLogic) {
  // FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
  EXPECT_EQ(evalConst("0 AND NULL").asInt(), 0);
  EXPECT_TRUE(evalConst("1 AND NULL").isNull());
  // TRUE OR NULL = TRUE; FALSE OR NULL = NULL.
  EXPECT_EQ(evalConst("1 OR NULL").asInt(), 1);
  EXPECT_TRUE(evalConst("0 OR NULL").isNull());
  // NOT NULL = NULL.
  EXPECT_TRUE(evalConst("NOT NULL").isNull());
  EXPECT_EQ(evalConst("NOT 0").asInt(), 1);
  EXPECT_EQ(evalConst("NOT 3").asInt(), 0);
}

TEST(ExprEval, Comparisons) {
  EXPECT_EQ(evalConst("1 < 2").asInt(), 1);
  EXPECT_EQ(evalConst("2 <= 2").asInt(), 1);
  EXPECT_EQ(evalConst("3 != 3").asInt(), 0);
  EXPECT_EQ(evalConst("2 = 2.0").asInt(), 1);
  EXPECT_EQ(evalConst("'abc' < 'abd'").asInt(), 1);
}

TEST(ExprEval, Between) {
  EXPECT_EQ(evalConst("2 BETWEEN 1 AND 3").asInt(), 1);
  EXPECT_EQ(evalConst("1 BETWEEN 1 AND 3").asInt(), 1);  // inclusive
  EXPECT_EQ(evalConst("0 BETWEEN 1 AND 3").asInt(), 0);
  EXPECT_EQ(evalConst("0 NOT BETWEEN 1 AND 3").asInt(), 1);
  EXPECT_TRUE(evalConst("NULL BETWEEN 1 AND 3").isNull());
}

TEST(ExprEval, In) {
  EXPECT_EQ(evalConst("2 IN (1, 2, 3)").asInt(), 1);
  EXPECT_EQ(evalConst("5 IN (1, 2, 3)").asInt(), 0);
  EXPECT_EQ(evalConst("5 NOT IN (1, 2, 3)").asInt(), 1);
  EXPECT_TRUE(evalConst("NULL IN (1, 2)").isNull());
  // No match but a NULL in the list -> NULL (SQL semantics).
  EXPECT_TRUE(evalConst("5 IN (1, NULL)").isNull());
  EXPECT_EQ(evalConst("1 IN (1, NULL)").asInt(), 1);
}

TEST(ExprEval, IsNull) {
  EXPECT_EQ(evalConst("NULL IS NULL").asInt(), 1);
  EXPECT_EQ(evalConst("1 IS NULL").asInt(), 0);
  EXPECT_EQ(evalConst("1 IS NOT NULL").asInt(), 1);
}

TEST(ExprEval, MathFunctions) {
  EXPECT_DOUBLE_EQ(evalConst("abs(-2.5)").asDouble(), 2.5);
  EXPECT_DOUBLE_EQ(evalConst("sqrt(16)").asDouble(), 4.0);
  EXPECT_DOUBLE_EQ(evalConst("log10(1000)").asDouble(), 3.0);
  EXPECT_DOUBLE_EQ(evalConst("pow(2, 10)").asDouble(), 1024.0);
  EXPECT_DOUBLE_EQ(evalConst("floor(2.7)").asDouble(), 2.0);
  EXPECT_DOUBLE_EQ(evalConst("ceil(2.1)").asDouble(), 3.0);
  EXPECT_EQ(evalConst("greatest(1, 5, 3)").asInt(), 5);
  EXPECT_EQ(evalConst("least(1, 5, 3)").asInt(), 1);
}

TEST(ExprEval, DomainErrorsYieldNull) {
  EXPECT_TRUE(evalConst("sqrt(-1)").isNull());
  EXPECT_TRUE(evalConst("log10(0)").isNull());
  EXPECT_TRUE(evalConst("log10(-5)").isNull());
}

TEST(ExprEval, FluxToAbMag) {
  // m = -2.5 log10(f) - 48.6. A flux of 10^(-((20)+48.6)/2.5) has mag 20.
  double f = std::pow(10.0, -(20.0 + 48.6) / 2.5);
  auto expr = parseExpression("fluxToAbMag(x)");
  ASSERT_TRUE(expr.isOk());
  // Constant-fold through a literal instead: build the SQL directly.
  Value v = evalConst("fluxToAbMag(" + Value(f).toSqlLiteral() + ")");
  EXPECT_NEAR(v.asDouble(), 20.0, 1e-9);
  EXPECT_TRUE(evalConst("fluxToAbMag(0)").isNull());
  EXPECT_TRUE(evalConst("fluxToAbMag(-1)").isNull());
  EXPECT_TRUE(evalConst("fluxToAbMag(NULL)").isNull());
}

TEST(ExprEval, QservAngSep) {
  EXPECT_NEAR(evalConst("qserv_angSep(10, 0, 25, 0)").asDouble(), 15.0, 1e-9);
  EXPECT_NEAR(evalConst("qserv_angSep(0, -5, 0, 5)").asDouble(), 10.0, 1e-9);
  EXPECT_TRUE(evalConst("qserv_angSep(0, 0, NULL, 0)").isNull());
  // scisql alias.
  EXPECT_NEAR(evalConst("scisql_angSep(10, 0, 25, 0)").asDouble(), 15.0, 1e-9);
}

TEST(ExprEval, QservPtInSphericalBox) {
  EXPECT_EQ(evalConst("qserv_ptInSphericalBox(5, 5, 0, 0, 10, 10)").asInt(), 1);
  EXPECT_EQ(evalConst("qserv_ptInSphericalBox(15, 5, 0, 0, 10, 10)").asInt(), 0);
  // Wrapping box (PT1.1 patch shape).
  EXPECT_EQ(evalConst("qserv_ptInSphericalBox(359, 0, 358, -7, 5, 7)").asInt(), 1);
  EXPECT_EQ(evalConst("qserv_ptInSphericalBox(180, 0, 358, -7, 5, 7)").asInt(), 0);
}

TEST(ExprEval, AreaspecBoxIsNotAWorkerFunction) {
  // qserv_areaspec_box must be rewritten by the frontend; binding it on a
  // worker fails loudly.
  auto expr = parseExpression("qserv_areaspec_box(0, 0, 10, 10)");
  ASSERT_TRUE(expr.isOk());
  auto v = evalConstExpr(**expr, FunctionRegistry::builtins());
  EXPECT_FALSE(v.isOk());
  EXPECT_EQ(v.status().code(), util::ErrorCode::kNotFound);
}

TEST(ExprEval, UnknownFunctionAndArity) {
  auto e1 = parseExpression("nosuchfn(1)");
  ASSERT_TRUE(e1.isOk());
  EXPECT_FALSE(evalConstExpr(**e1, FunctionRegistry::builtins()).isOk());
  auto e2 = parseExpression("sqrt(1, 2)");
  ASSERT_TRUE(e2.isOk());
  EXPECT_FALSE(evalConstExpr(**e2, FunctionRegistry::builtins()).isOk());
}

TEST(ExprEval, ColumnBindingAgainstTable) {
  Schema schema({{"id", ColumnType::kInt}, {"ra", ColumnType::kDouble}});
  Table t("t", schema);
  ASSERT_TRUE(t.appendRow(std::vector<Value>{Value(7), Value(1.5)}).isOk());
  ASSERT_TRUE(t.appendRow(std::vector<Value>{Value(8), Value::null()}).isOk());

  ScopeTable scope[] = {{"t", &t}};
  auto expr = parseExpression("ra * 2 + id");
  ASSERT_TRUE(expr.isOk());
  auto compiled = bindExpr(**expr, scope, FunctionRegistry::builtins());
  ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();

  const Table* tables[] = {&t};
  std::size_t rows[] = {0};
  EvalCtx ctx{tables, rows, {}};
  EXPECT_DOUBLE_EQ((*compiled)->eval(ctx).asDouble(), 10.0);
  rows[0] = 1;
  EXPECT_TRUE((*compiled)->eval(ctx).isNull());  // NULL ra propagates
}

TEST(ExprEval, UnknownAndAmbiguousColumns) {
  Schema schema({{"x", ColumnType::kInt}});
  Table a("a", schema), b("b", schema);
  ScopeTable scope[] = {{"a", &a}, {"b", &b}};

  auto unknown = parseExpression("nothere");
  ASSERT_TRUE(unknown.isOk());
  EXPECT_EQ(bindExpr(**unknown, scope, FunctionRegistry::builtins())
                .status().code(),
            util::ErrorCode::kNotFound);

  auto ambiguous = parseExpression("x + 1");
  ASSERT_TRUE(ambiguous.isOk());
  EXPECT_EQ(bindExpr(**ambiguous, scope, FunctionRegistry::builtins())
                .status().code(),
            util::ErrorCode::kInvalidArgument);

  auto qualified = parseExpression("a.x + b.x");
  ASSERT_TRUE(qualified.isOk());
  EXPECT_TRUE(bindExpr(**qualified, scope, FunctionRegistry::builtins()).isOk());
}

TEST(ExprEval, AggregateRejectedOutsideExecutor) {
  auto e = parseExpression("SUM(x)");
  ASSERT_TRUE(e.isOk());
  EXPECT_FALSE(evalConstExpr(**e, FunctionRegistry::builtins()).isOk());
}

TEST(ExprEval, DoubleNegation) {
  EXPECT_EQ(evalConst("- -5").asInt(), 5);
  EXPECT_DOUBLE_EQ(evalConst("-(-2.5)").asDouble(), 2.5);
}

}  // namespace
}  // namespace qserv::sql
