#include "qserv/explain.h"

#include <set>

#include "sql/vector_eval.h"
#include "util/strings.h"

namespace qserv::core {

namespace {

using sql::BinaryExpr;
using sql::BinOp;
using sql::ColumnRef;
using sql::Expr;
using sql::ExprKind;
using sql::FuncCall;

/// Flatten the AND tree of \p e into conjuncts.
void splitConjuncts(const Expr& e, std::vector<const Expr*>& out) {
  if (e.kind() == ExprKind::kBinary) {
    const auto* b = static_cast<const BinaryExpr*>(&e);
    if (b->op == BinOp::kAnd) {
      splitConjuncts(*b->lhs, out);
      splitConjuncts(*b->rhs, out);
      return;
    }
  }
  out.push_back(&e);
}

/// Collect the qualifiers of every column reference under \p e (lowercased;
/// unqualified references collect as "").
void collectQualifiers(const Expr& e, std::set<std::string>& out) {
  switch (e.kind()) {
    case ExprKind::kColumnRef:
      out.insert(util::toLower(static_cast<const ColumnRef&>(e).qualifier));
      return;
    case ExprKind::kUnary:
      collectQualifiers(*static_cast<const sql::UnaryExpr&>(e).operand, out);
      return;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      collectQualifiers(*b.lhs, out);
      collectQualifiers(*b.rhs, out);
      return;
    }
    case ExprKind::kFuncCall:
      for (const auto& a : static_cast<const FuncCall&>(e).args) {
        collectQualifiers(*a, out);
      }
      return;
    case ExprKind::kBetween: {
      const auto& b = static_cast<const sql::BetweenExpr&>(e);
      collectQualifiers(*b.expr, out);
      collectQualifiers(*b.lo, out);
      collectQualifiers(*b.hi, out);
      return;
    }
    case ExprKind::kIn: {
      const auto& in = static_cast<const sql::InExpr&>(e);
      collectQualifiers(*in.expr, out);
      for (const auto& item : in.list) collectQualifiers(*item, out);
      return;
    }
    case ExprKind::kIsNull:
      collectQualifiers(*static_cast<const sql::IsNullExpr&>(e).expr, out);
      return;
    default:
      return;  // literal / star / slot: no columns
  }
}

/// True when every column under \p e is qualified and all qualifiers equal
/// \p binding (lowercase) — i.e. the side references exactly one table.
bool referencesOnly(const Expr& e, const std::string& binding) {
  std::set<std::string> quals;
  collectQualifiers(e, quals);
  return quals.size() == 1 && *quals.begin() == binding;
}

bool referencesAnyColumn(const Expr& e) {
  std::set<std::string> quals;
  collectQualifiers(e, quals);
  return !quals.empty();
}

/// Numeric literal, possibly negated (the constant shapes the scan-filter
/// kernels accept without falling back to the scalar binder).
bool isNumericConst(const Expr& e) {
  if (e.kind() == ExprKind::kLiteral) {
    const auto& v = static_cast<const sql::LiteralExpr&>(e).value;
    return v.type() == sql::ValueType::kInt ||
           v.type() == sql::ValueType::kDouble;
  }
  if (e.kind() == ExprKind::kUnary) {
    const auto& u = static_cast<const sql::UnaryExpr&>(e);
    return u.op == sql::UnOp::kNeg && isNumericConst(*u.operand);
  }
  return false;
}

bool isComparisonOp(BinOp op) {
  return op == BinOp::kEq || op == BinOp::kNe || op == BinOp::kLt ||
         op == BinOp::kLe || op == BinOp::kGt || op == BinOp::kGe;
}

/// Scan-filter kernel shapes (sql/vector_eval.h): col cmp const,
/// col BETWEEN consts, col IN (consts), col IS [NOT] NULL. Returns the
/// column name when the conjunct compiles to a kernel, nullopt otherwise.
std::optional<std::string> kernelColumn(const Expr& e) {
  auto columnOf = [](const Expr& side) -> const ColumnRef* {
    return side.kind() == ExprKind::kColumnRef
               ? static_cast<const ColumnRef*>(&side)
               : nullptr;
  };
  switch (e.kind()) {
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      if (!isComparisonOp(b.op)) return std::nullopt;
      if (const auto* c = columnOf(*b.lhs); c && isNumericConst(*b.rhs)) {
        return c->column;
      }
      if (const auto* c = columnOf(*b.rhs); c && isNumericConst(*b.lhs)) {
        return c->column;
      }
      return std::nullopt;
    }
    case ExprKind::kBetween: {
      const auto& b = static_cast<const sql::BetweenExpr&>(e);
      const auto* c = columnOf(*b.expr);
      if (c && isNumericConst(*b.lo) && isNumericConst(*b.hi)) {
        return c->column;
      }
      return std::nullopt;
    }
    case ExprKind::kIn: {
      const auto& in = static_cast<const sql::InExpr&>(e);
      const auto* c = columnOf(*in.expr);
      if (!c) return std::nullopt;
      for (const auto& item : in.list) {
        if (!isNumericConst(*item)) return std::nullopt;
      }
      return c->column;
    }
    case ExprKind::kIsNull: {
      const auto* c = columnOf(*static_cast<const sql::IsNullExpr&>(e).expr);
      if (c) return c->column;
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

/// IS NULL kernels consult only the null count; range pruning needs a
/// cmp/between/in kernel.
bool isRangePrunable(const Expr& e) {
  return e.kind() == ExprKind::kBinary || e.kind() == ExprKind::kBetween ||
         e.kind() == ExprKind::kIn;
}

bool isAngSepCall(const Expr& e) {
  if (e.kind() != ExprKind::kFuncCall) return false;
  const auto& f = static_cast<const FuncCall&>(e);
  return util::iequals(f.name, "qserv_angSep") ||
         util::iequals(f.name, "scisql_angSep");
}

/// angSep(...) < r in either orientation (sql::matchSpatialJoin's shape).
bool isSpatialJoinConjunct(const Expr& e) {
  if (e.kind() != ExprKind::kBinary) return false;
  const auto& b = static_cast<const BinaryExpr&>(e);
  if ((b.op == BinOp::kLt || b.op == BinOp::kLe) && isAngSepCall(*b.lhs)) {
    return true;
  }
  if ((b.op == BinOp::kGt || b.op == BinOp::kGe) && isAngSepCall(*b.rhs)) {
    return true;
  }
  return false;
}

std::string classifyPruning(const AnalyzedQuery& analyzed,
                            std::span<const std::int32_t> chunks) {
  if (!analyzed.touchesPartitioned()) {
    return "none (frontend-only: no partitioned table)";
  }
  if (!analyzed.restrictedObjectIds.empty()) {
    return util::format("secondary-index (%zu objectIds -> %zu chunks)",
                        analyzed.restrictedObjectIds.size(), chunks.size());
  }
  if (analyzed.areaRestriction) {
    return util::format(
        "spatial cover (%s restriction -> %zu chunks)",
        analyzed.areaRestrictionIsImplicit ? "implicit predicate"
                                           : "qserv_areaspec_box",
        chunks.size());
  }
  return util::format("full sky (%zu chunks)", chunks.size());
}

std::string classifyJoin(const AnalyzedQuery& analyzed) {
  if (analyzed.from.size() < 2) return "none (single table)";
  std::vector<const Expr*> conjuncts;
  if (analyzed.stmt.where) splitConjuncts(*analyzed.stmt.where, conjuncts);

  // Mirror the executor's stage test order: equi key first, then the
  // zone-based spatial join, then the nested-loop fallback.
  for (std::size_t t = 1; t < analyzed.from.size(); ++t) {
    const std::string binding =
        util::toLower(analyzed.from[t].ref.bindingName());
    for (const Expr* c : conjuncts) {
      if (c->kind() != ExprKind::kBinary) continue;
      const auto* b = static_cast<const BinaryExpr*>(c);
      if (b->op != BinOp::kEq) continue;
      bool lhsIsT = referencesOnly(*b->lhs, binding);
      bool rhsIsT = referencesOnly(*b->rhs, binding);
      if ((lhsIsT && !rhsIsT && referencesAnyColumn(*b->rhs)) ||
          (rhsIsT && !lhsIsT && referencesAnyColumn(*b->lhs))) {
        return util::format("hash (equi key %s)", c->toSql().c_str());
      }
    }
  }
  for (const Expr* c : conjuncts) {
    if (!isSpatialJoinConjunct(*c)) continue;
    std::set<std::string> quals;
    collectQualifiers(*c, quals);
    if (quals.size() < 2) continue;  // single-table: a plain filter
    if (analyzed.isNearNeighbor) {
      return "zone (near-neighbor self-join over subchunk + overlap tables)";
    }
    return util::format("zone (%s)", c->toSql().c_str());
  }
  return "nested loop (no equi or spatial join key)";
}

void classifyFilter(const AnalyzedQuery& analyzed, ExplainPlan& plan) {
  if (!analyzed.stmt.where) {
    plan.filter = "none (no WHERE clause)";
    plan.zoneMap = "not eligible (no kernel conjuncts)";
    return;
  }
  std::vector<const Expr*> conjuncts;
  splitConjuncts(*analyzed.stmt.where, conjuncts);
  std::size_t kernels = 0, residuals = 0;
  std::set<std::string> prunableColumns;
  for (const Expr* c : conjuncts) {
    std::set<std::string> quals;
    collectQualifiers(*c, quals);
    if (quals.size() > 1) continue;  // join conjunct, not a scan filter
    if (auto col = kernelColumn(*c)) {
      ++kernels;
      if (isRangePrunable(*c)) prunableColumns.insert(*col);
    } else {
      ++residuals;
    }
  }
  std::string state =
      sql::vectorizedFilterEnabled() ? "vectorized" : "vectorization off";
  if (kernels == 0 && residuals == 0) {
    plan.filter = "none (join conjuncts only)";
  } else if (kernels == 0) {
    plan.filter = util::format(
        "scalar fallback (%zu conjuncts, none kernel-shaped)", residuals);
  } else {
    plan.filter = util::format(
        "%s (%zu kernel conjuncts, %zu scalar residuals)", state.c_str(),
        kernels, residuals);
  }
  if (prunableColumns.empty()) {
    plan.zoneMap = "not eligible (no range-prunable kernel conjunct)";
  } else {
    std::vector<std::string> cols(prunableColumns.begin(),
                                  prunableColumns.end());
    plan.zoneMap =
        util::format("eligible (%s)", util::join(cols, ", ").c_str());
  }
}

}  // namespace

ExplainPlan buildExplainPlan(const AnalyzedQuery& analyzed,
                             std::span<const std::int32_t> chunks,
                             const RewriteResult* rewrite,
                             std::string dispatchDesc) {
  ExplainPlan plan;
  plan.dispatch = std::move(dispatchDesc);
  plan.statement = analyzed.stmt.toSql();
  plan.pruning = classifyPruning(analyzed, chunks);
  plan.chunkCount = static_cast<std::int64_t>(chunks.size());
  if (rewrite && !rewrite->chunkQueries.empty()) {
    plan.chunkTemplate = rewrite->chunkTemplate.describe();
  }
  plan.joinStrategy = classifyJoin(analyzed);
  classifyFilter(analyzed, plan);
  QueryClass cls = deriveQueryClass(analyzed, chunks.size());
  plan.scheduler =
      cls == QueryClass::kInteractive
          ? "interactive (priority lane, bypasses scan groups)"
          : "scan (shared-scan lane: same-chunk passes, memory budget)";
  if (!analyzed.touchesPartitioned()) {
    plan.merge = "none (executes on the frontend metadata DB)";
  } else if (rewrite) {
    plan.merge = util::format(
        "%s: %s", rewrite->merge.hasAggregation ? "aggregate merge"
                                                : "union merge",
        rewrite->merge.finalSelectSql.c_str());
  }
  return plan;
}

sql::TablePtr ExplainPlan::toTable() const {
  sql::Schema schema({{"property", sql::ColumnType::kString},
                      {"value", sql::ColumnType::kString}});
  auto table = std::make_shared<sql::Table>("explain", schema);
  auto add = [&](const std::string& property, const std::string& value) {
    sql::Value row[] = {property, value};
    (void)table->appendRow(row);
  };
  add("statement", statement);
  add("pruning", pruning);
  add("chunks", util::format("%lld", static_cast<long long>(chunkCount)));
  add("chunk template", chunkTemplate);
  add("join strategy", joinStrategy);
  add("filter", filter);
  add("zone map", zoneMap);
  add("merge", merge);
  if (!dispatch.empty()) add("dispatch", dispatch);
  add("scheduler", scheduler);
  return table;
}

}  // namespace qserv::core
