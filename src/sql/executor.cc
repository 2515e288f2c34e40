#include "sql/executor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <unordered_map>

#include "sql/expr_eval.h"
#include "sql/spatial_join.h"
#include "sql/vector_eval.h"
#include "util/strings.h"

namespace qserv::sql {

namespace {

using util::Result;
using util::Status;

// ------------------------------------------------------------- aggregates

enum class AggKind { kCountStar, kCount, kSum, kAvg, kMin, kMax };

struct AggSpec {
  AggKind kind;
  ExprPtr arg;  // null for COUNT(*)
};

/// Replace aggregate FuncCall nodes in \p expr with SlotRefExpr nodes,
/// appending their specs to \p aggs. Fails on nested aggregates.
Result<ExprPtr> extractAggregates(ExprPtr expr, std::vector<AggSpec>& aggs,
                                  bool insideAggregate = false) {
  switch (expr->kind()) {
    case ExprKind::kFuncCall: {
      auto* f = static_cast<FuncCall*>(expr.get());
      if (f->isAggregate()) {
        if (insideAggregate) {
          return Status::invalidArgument("nested aggregate functions");
        }
        if (f->args.size() != 1) {
          return Status::invalidArgument(
              util::format("%s() takes exactly one argument", f->name.c_str()));
        }
        AggSpec spec;
        bool star = f->args[0]->kind() == ExprKind::kStar;
        if (util::iequals(f->name, "COUNT")) {
          spec.kind = star ? AggKind::kCountStar : AggKind::kCount;
        } else if (star) {
          return Status::invalidArgument(
              util::format("%s(*) is not valid", f->name.c_str()));
        } else if (util::iequals(f->name, "SUM")) {
          spec.kind = AggKind::kSum;
        } else if (util::iequals(f->name, "AVG")) {
          spec.kind = AggKind::kAvg;
        } else if (util::iequals(f->name, "MIN")) {
          spec.kind = AggKind::kMin;
        } else {
          spec.kind = AggKind::kMax;
        }
        if (!star) {
          QSERV_ASSIGN_OR_RETURN(
              spec.arg,
              extractAggregates(std::move(f->args[0]), aggs, true));
          // A column must appear somewhere inside an aggregate arg; a pure
          // nested aggregate was already rejected above.
        }
        aggs.push_back(std::move(spec));
        return ExprPtr(std::make_unique<SlotRefExpr>(aggs.size() - 1));
      }
      for (auto& a : f->args) {
        QSERV_ASSIGN_OR_RETURN(a,
                               extractAggregates(std::move(a), aggs,
                                                 insideAggregate));
      }
      return expr;
    }
    case ExprKind::kUnary: {
      auto* u = static_cast<UnaryExpr*>(expr.get());
      QSERV_ASSIGN_OR_RETURN(
          u->operand, extractAggregates(std::move(u->operand), aggs,
                                        insideAggregate));
      return expr;
    }
    case ExprKind::kBinary: {
      auto* b = static_cast<BinaryExpr*>(expr.get());
      QSERV_ASSIGN_OR_RETURN(
          b->lhs, extractAggregates(std::move(b->lhs), aggs, insideAggregate));
      QSERV_ASSIGN_OR_RETURN(
          b->rhs, extractAggregates(std::move(b->rhs), aggs, insideAggregate));
      return expr;
    }
    case ExprKind::kBetween: {
      auto* b = static_cast<BetweenExpr*>(expr.get());
      QSERV_ASSIGN_OR_RETURN(
          b->expr, extractAggregates(std::move(b->expr), aggs, insideAggregate));
      QSERV_ASSIGN_OR_RETURN(
          b->lo, extractAggregates(std::move(b->lo), aggs, insideAggregate));
      QSERV_ASSIGN_OR_RETURN(
          b->hi, extractAggregates(std::move(b->hi), aggs, insideAggregate));
      return expr;
    }
    case ExprKind::kIn: {
      auto* i = static_cast<InExpr*>(expr.get());
      QSERV_ASSIGN_OR_RETURN(
          i->expr, extractAggregates(std::move(i->expr), aggs, insideAggregate));
      for (auto& item : i->list) {
        QSERV_ASSIGN_OR_RETURN(
            item, extractAggregates(std::move(item), aggs, insideAggregate));
      }
      return expr;
    }
    case ExprKind::kIsNull: {
      auto* n = static_cast<IsNullExpr*>(expr.get());
      QSERV_ASSIGN_OR_RETURN(
          n->expr, extractAggregates(std::move(n->expr), aggs, insideAggregate));
      return expr;
    }
    default:
      return expr;
  }
}

bool containsAggregate(const Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCall&>(expr);
      if (f.isAggregate()) return true;
      for (const auto& a : f.args) {
        if (containsAggregate(*a)) return true;
      }
      return false;
    }
    case ExprKind::kUnary:
      return containsAggregate(*static_cast<const UnaryExpr&>(expr).operand);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return containsAggregate(*b.lhs) || containsAggregate(*b.rhs);
    }
    case ExprKind::kBetween: {
      const auto& b = static_cast<const BetweenExpr&>(expr);
      return containsAggregate(*b.expr) || containsAggregate(*b.lo) ||
             containsAggregate(*b.hi);
    }
    case ExprKind::kIn: {
      const auto& i = static_cast<const InExpr&>(expr);
      if (containsAggregate(*i.expr)) return true;
      for (const auto& e : i.list) {
        if (containsAggregate(*e)) return true;
      }
      return false;
    }
    case ExprKind::kIsNull:
      return containsAggregate(*static_cast<const IsNullExpr&>(expr).expr);
    default:
      return false;
  }
}

/// Running accumulator for one aggregate over one group. The integer sum
/// wraps modulo 2^64 on overflow (two's complement, like the hardware add):
/// a signed int64 overflow would be undefined behaviour.
struct AggAccumulator {
  std::int64_t count = 0;
  std::uint64_t intSum = 0;
  double doubleSum = 0.0;
  bool sawDouble = false;
  Value extreme;  // MIN/MAX

  std::int64_t intTotal() const { return static_cast<std::int64_t>(intSum); }

  /// Fold in one argument value. COUNT(*) has no argument; the executor
  /// counts its input rows directly.
  void accumulate(AggKind kind, const Value& v) {
    switch (kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        if (!v.isNull()) ++count;
        return;
      case AggKind::kSum:
      case AggKind::kAvg:
        if (v.isNull() || !v.isNumeric()) return;
        ++count;
        if (v.isInt() && !sawDouble) {
          intSum += static_cast<std::uint64_t>(v.asInt());
        } else {
          if (!sawDouble) {
            doubleSum = static_cast<double>(intTotal());
            sawDouble = true;
          }
          doubleSum += v.toDouble();
        }
        return;
      case AggKind::kMin:
        if (v.isNull()) return;
        if (extreme.isNull() || v.compare(extreme) < 0) extreme = v;
        return;
      case AggKind::kMax:
        if (v.isNull()) return;
        if (extreme.isNull() || v.compare(extreme) > 0) extreme = v;
        return;
    }
  }

  Value finalize(AggKind kind) const {
    switch (kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        return Value(count);
      case AggKind::kSum:
        if (count == 0) return Value::null();
        return sawDouble ? Value(doubleSum) : Value(intTotal());
      case AggKind::kAvg: {
        if (count == 0) return Value::null();
        double s = sawDouble ? doubleSum : static_cast<double>(intTotal());
        return Value(s / static_cast<double>(count));
      }
      case AggKind::kMin:
      case AggKind::kMax:
        return extreme;
    }
    return Value::null();
  }
};

/// Column-at-a-time accumulation of one aggregate whose argument is a plain
/// INT (T = int64_t) or DOUBLE (T = double) column: \p rows holds the
/// column's table row for each input and \p groupOf each input's group.
/// The result is bit-identical to feeding AggAccumulator::accumulate the
/// column's cells in input order: sums run in input order, and MIN/MAX
/// replace only on a strict `<` / `>`, so the first of tied values (-0.0 vs
/// 0.0) wins and a NaN neither replaces nor is replaced — Value::compare's
/// order.
template <typename T>
void accumulateColumn(AggKind kind, const std::vector<T>& data,
                      const std::vector<std::uint8_t>& nulls,
                      const std::vector<std::size_t>& rows,
                      const std::vector<std::uint32_t>& groupOf,
                      std::vector<AggAccumulator>& accs) {
  const std::size_t n = rows.size();
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      for (std::size_t i = 0; i < n; ++i) {
        if (!nulls[rows[i]]) ++accs[groupOf[i]].count;
      }
      return;
    case AggKind::kSum:
    case AggKind::kAvg:
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = rows[i];
        if (nulls[r]) continue;
        AggAccumulator& acc = accs[groupOf[i]];
        ++acc.count;
        if constexpr (std::is_same_v<T, std::int64_t>) {
          acc.intSum += static_cast<std::uint64_t>(data[r]);
        } else {
          acc.sawDouble = true;
          acc.doubleSum += data[r];
        }
      }
      return;
    case AggKind::kMin:
    case AggKind::kMax: {
      const bool isMin = kind == AggKind::kMin;
      std::vector<T> extreme(accs.size());
      std::vector<std::uint8_t> seen(accs.size(), 0);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = rows[i];
        if (nulls[r]) continue;
        const std::uint32_t g = groupOf[i];
        const T x = data[r];
        if (!seen[g] || (isMin ? x < extreme[g] : x > extreme[g])) {
          extreme[g] = x;
          seen[g] = 1;
        }
      }
      for (std::size_t g = 0; g < accs.size(); ++g) {
        if (seen[g]) accs[g].extreme = Value(extreme[g]);
      }
      return;
    }
  }
}

/// Open-addressing map from a non-NULL INT group-key value to its group id,
/// for GROUP BY on one INT column (chunkId, subChunkId, ...): no boxed
/// GroupKey per row.
class IntGroupMap {
 public:
  /// The group of \p key; an unseen key gets \p next and sets \p inserted.
  std::uint32_t findOrInsert(std::int64_t key, std::uint32_t next,
                             bool& inserted) {
    if ((size_ + 1) * 2 > keys_.size()) grow();
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t slot = hashOf(key) & mask;; slot = (slot + 1) & mask) {
      if (ids_[slot] == kEmpty) {
        keys_[slot] = key;
        ids_[slot] = next;
        ++size_;
        inserted = true;
        return next;
      }
      if (keys_[slot] == key) {
        inserted = false;
        return ids_[slot];
      }
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  static std::size_t hashOf(std::int64_t key) {
    std::uint64_t h = static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }

  void grow() {
    std::vector<std::int64_t> keys = std::move(keys_);
    std::vector<std::uint32_t> ids = std::move(ids_);
    keys_.assign(std::max<std::size_t>(16, keys.size() * 2), 0);
    ids_.assign(keys_.size(), kEmpty);
    size_ = 0;
    bool inserted = false;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (ids[i] != kEmpty) findOrInsert(keys[i], ids[i], inserted);
    }
  }

  std::vector<std::int64_t> keys_;
  std::vector<std::uint32_t> ids_;
  std::size_t size_ = 0;
};

// ------------------------------------------------------------- where split

/// Flatten an AND tree into conjuncts (borrowed pointers into the tree).
void flattenConjuncts(const Expr* expr, std::vector<const Expr*>& out) {
  if (expr->kind() == ExprKind::kBinary) {
    const auto* b = static_cast<const BinaryExpr*>(expr);
    if (b->op == BinOp::kAnd) {
      flattenConjuncts(b->lhs.get(), out);
      flattenConjuncts(b->rhs.get(), out);
      return;
    }
  }
  out.push_back(expr);
}

struct Conjunct {
  const Expr* expr = nullptr;
  std::vector<int> tables;  // referenced scope-table indices, ascending
  int maxTable = -1;        // highest referenced index (-1: constant)
};

struct EquiJoin {
  const Expr* lhs = nullptr;  // references tables < rhsTable only
  const Expr* rhs = nullptr;  // references rhsTable only
  int rhsTable = -1;
};

// --------------------------------------------------------------- group key

struct GroupKey {
  std::vector<Value> values;

  bool operator==(const GroupKey& o) const {
    if (values.size() != o.values.size()) return false;
    for (std::size_t i = 0; i < values.size(); ++i) {
      bool an = values[i].isNull(), bn = o.values[i].isNull();
      if (an != bn) return false;
      if (!an && values[i].compare(o.values[i]) != 0) return false;
    }
    return true;
  }
};

struct GroupKeyHash {
  std::size_t operator()(const GroupKey& k) const {
    std::size_t h = 1469598103934665603ULL;
    for (const auto& v : k.values) {
      h ^= v.hash();
      h *= 1099511628211ULL;
    }
    return h;
  }
};

struct ValueKeyHash {
  std::size_t operator()(const GroupKey& k) const { return GroupKeyHash{}(k); }
};

/// Replace every ColumnRef in a clone of \p expr with NULL — used to
/// evaluate select items over an empty group (global aggregates on empty
/// input behave like MySQL: COUNT=0, other columns NULL).
ExprPtr cloneWithColumnsAsNull(const Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef:
      return std::make_unique<LiteralExpr>(Value::null());
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      return std::make_unique<UnaryExpr>(u.op, cloneWithColumnsAsNull(*u.operand));
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return std::make_unique<BinaryExpr>(b.op, cloneWithColumnsAsNull(*b.lhs),
                                          cloneWithColumnsAsNull(*b.rhs));
    }
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCall&>(expr);
      std::vector<ExprPtr> args;
      args.reserve(f.args.size());
      for (const auto& a : f.args) args.push_back(cloneWithColumnsAsNull(*a));
      return std::make_unique<FuncCall>(f.name, std::move(args));
    }
    case ExprKind::kBetween: {
      const auto& b = static_cast<const BetweenExpr&>(expr);
      return std::make_unique<BetweenExpr>(
          cloneWithColumnsAsNull(*b.expr), cloneWithColumnsAsNull(*b.lo),
          cloneWithColumnsAsNull(*b.hi), b.negated);
    }
    case ExprKind::kIn: {
      const auto& i = static_cast<const InExpr&>(expr);
      std::vector<ExprPtr> list;
      list.reserve(i.list.size());
      for (const auto& e : i.list) list.push_back(cloneWithColumnsAsNull(*e));
      return std::make_unique<InExpr>(cloneWithColumnsAsNull(*i.expr),
                                      std::move(list), i.negated);
    }
    case ExprKind::kIsNull: {
      const auto& n = static_cast<const IsNullExpr&>(expr);
      return std::make_unique<IsNullExpr>(cloneWithColumnsAsNull(*n.expr),
                                          n.negated);
    }
    default:
      return expr.clone();
  }
}

// --------------------------------------------------------------- executor

class SelectExec {
 public:
  SelectExec(Database& db, const SelectStmt& sel,
             std::span<const TableRef> from, ExecStats& stats)
      : db_(db), sel_(sel), from_(from), stats_(stats),
        registry_(db.functions()) {}

  /// Static output type of \p expr, or nullopt when undeterminable.
  /// Keeps empty result sets carrying correct column types — essential for
  /// dump/replay (an empty chunk result must not demote BIGINT columns).
  std::optional<ColumnType> inferType(const Expr& expr) const {
    switch (expr.kind()) {
      case ExprKind::kLiteral: {
        const auto& v = static_cast<const LiteralExpr&>(expr).value;
        switch (v.type()) {
          case ValueType::kInt: return ColumnType::kInt;
          case ValueType::kDouble: return ColumnType::kDouble;
          case ValueType::kString: return ColumnType::kString;
          case ValueType::kNull: return std::nullopt;
        }
        return std::nullopt;
      }
      case ExprKind::kColumnRef: {
        auto slot = resolveColumn(static_cast<const ColumnRef&>(expr), scope_);
        if (!slot.isOk()) return std::nullopt;
        return scope_[slot->tableIdx].table->schema().column(slot->columnIdx)
            .type;
      }
      case ExprKind::kSlotRef: {
        std::size_t k = static_cast<const SlotRefExpr&>(expr).slot;
        if (k >= aggs_.size()) return std::nullopt;
        switch (aggs_[k].kind) {
          case AggKind::kCountStar:
          case AggKind::kCount:
            return ColumnType::kInt;
          case AggKind::kAvg:
            return ColumnType::kDouble;
          case AggKind::kSum:
          case AggKind::kMin:
          case AggKind::kMax:
            return aggs_[k].arg ? inferType(*aggs_[k].arg) : std::nullopt;
        }
        return std::nullopt;
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(expr);
        if (u.op == UnOp::kNot) return ColumnType::kInt;
        return inferType(*u.operand);
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(expr);
        switch (b.op) {
          case BinOp::kEq: case BinOp::kNe: case BinOp::kLt: case BinOp::kLe:
          case BinOp::kGt: case BinOp::kGe: case BinOp::kAnd: case BinOp::kOr:
            return ColumnType::kInt;
          case BinOp::kDiv:
            return ColumnType::kDouble;
          case BinOp::kAdd: case BinOp::kSub: case BinOp::kMul:
          case BinOp::kMod: {
            auto l = inferType(*b.lhs);
            auto r = inferType(*b.rhs);
            if (l == ColumnType::kInt && r == ColumnType::kInt) {
              return ColumnType::kInt;
            }
            if (l && r) return ColumnType::kDouble;
            return std::nullopt;
          }
        }
        return std::nullopt;
      }
      case ExprKind::kBetween:
      case ExprKind::kIn:
      case ExprKind::kIsNull:
        return ColumnType::kInt;
      case ExprKind::kFuncCall:
        // Scalar functions are numeric; all builtins return doubles (the
        // boolean-ish qserv_ptInSphericalBox yields 0/1 ints, which a
        // DOUBLE column accepts).
        return ColumnType::kDouble;
      default:
        return std::nullopt;
    }
  }

  Result<TablePtr> run() {
    QSERV_RETURN_IF_ERROR(resolveFrom());
    QSERV_RETURN_IF_ERROR(expandItems());
    QSERV_RETURN_IF_ERROR(planWhere());
    // MyISAM-style shortcut: unrestricted COUNT(*) on one table answers
    // from row-count metadata without a scan (paper relies on this for the
    // cheap full-sky HV1 count; see DESIGN.md).
    if (isAggregateQuery_ && scope_.size() == 1 && !sel_.where &&
        sel_.groupBy.empty() && aggs_.size() == 1 &&
        aggs_[0].kind == AggKind::kCountStar && items_.size() == 1 &&
        items_[0].expr->kind() == ExprKind::kSlotRef) {
      resultRows_.push_back(
          {Value(static_cast<std::int64_t>(tablesRaw_[0]->numRows()))});
      QSERV_RETURN_IF_ERROR(orderAndLimit());
      return buildResultTable();
    }
    // Filtered COUNT(*) over one table with a fully kernelizable WHERE:
    // count survivors inside the kernels, without materializing the
    // selection vector (the scan-heavy paper queries are mostly of this
    // shape).
    if (isAggregateQuery_ && scope_.size() == 1 && sel_.where &&
        sel_.groupBy.empty() && aggs_.size() == 1 &&
        aggs_[0].kind == AggKind::kCountStar && items_.size() == 1 &&
        items_[0].expr->kind() == ExprKind::kSlotRef &&
        vectorizedFilterEnabled()) {
      QSERV_ASSIGN_OR_RETURN(bool done, tryCountPushdown());
      if (done) {
        QSERV_RETURN_IF_ERROR(orderAndLimit());
        return buildResultTable();
      }
    }
    QSERV_RETURN_IF_ERROR(enumerateInputs());
    QSERV_RETURN_IF_ERROR(isAggregateQuery_ ? consumeAggregate()
                                            : consumeProjection());
    QSERV_RETURN_IF_ERROR(orderAndLimit());
    return buildResultTable();
  }

 private:
  Status resolveFrom() {
    for (const TableRef& ref : from_) {
      std::string key =
          ref.database.empty() ? ref.table : ref.database + "." + ref.table;
      // The table and its indexes come from one publish, so an index probe
      // only ever yields rows of the table this statement reads.
      TableSnapshot snap = db_.snapshot(key);
      if (!snap.table && !ref.database.empty()) snap = db_.snapshot(ref.table);
      if (!snap.table) {
        return Status::notFound(
            util::format("unknown table %s", key.c_str()));
      }
      tableKeys_.push_back(key);
      scope_.push_back(ScopeTable{ref.bindingName(), snap.table.get()});
      tablesRaw_.push_back(snap.table.get());
      pins_.push_back(std::move(snap));
    }
    return Status::ok();
  }

  Status expandItems() {
    for (const SelectItem& item : sel_.items) {
      if (item.expr->kind() == ExprKind::kStar) {
        const auto& star = static_cast<const StarExpr&>(*item.expr);
        if (!item.alias.empty()) {
          return Status::invalidArgument("'*' cannot be aliased");
        }
        bool matched = false;
        for (const auto& st : scope_) {
          if (!star.qualifier.empty() &&
              !util::iequals(star.qualifier, st.bindingName)) {
            continue;
          }
          matched = true;
          for (const auto& col : st.table->schema().columns()) {
            SelectItem expanded;
            expanded.expr = std::make_unique<ColumnRef>(
                scope_.size() > 1 ? st.bindingName : "", col.name);
            expanded.alias = col.name;
            items_.push_back(std::move(expanded));
          }
        }
        if (!matched) {
          return Status::notFound(util::format(
              "'%s.*' does not match any table", star.qualifier.c_str()));
        }
        continue;
      }
      items_.push_back(item.clone());
    }
    if (items_.empty()) {
      return Status::invalidArgument("empty select list");
    }

    // Output column names.
    for (const auto& item : items_) {
      outputNames_.push_back(item.alias.empty() ? item.expr->toSql()
                                                : item.alias);
    }

    // Aggregate extraction.
    bool anyAgg = false;
    for (const auto& item : items_) {
      if (containsAggregate(*item.expr)) anyAgg = true;
    }
    isAggregateQuery_ = anyAgg || !sel_.groupBy.empty();
    if (sel_.having && !isAggregateQuery_) {
      return Status::invalidArgument("HAVING requires GROUP BY");
    }
    if (isAggregateQuery_) {
      for (auto& item : items_) {
        QSERV_ASSIGN_OR_RETURN(item.expr,
                               extractAggregates(std::move(item.expr), aggs_));
      }
      // HAVING may reference aggregates; its calls share the same slot list
      // so they accumulate alongside the select items'.
      if (sel_.having) {
        QSERV_ASSIGN_OR_RETURN(
            havingExpr_, extractAggregates(sel_.having->clone(), aggs_));
      }
      // Compile aggregate args and group-by keys.
      for (const auto& spec : aggs_) {
        if (spec.arg) {
          QSERV_ASSIGN_OR_RETURN(auto compiled,
                                 bindExpr(*spec.arg, scope_, registry_));
          aggArgCompiled_.push_back(std::move(compiled));
        } else {
          aggArgCompiled_.push_back(nullptr);
        }
      }
      for (const auto& g : sel_.groupBy) {
        if (containsAggregate(*g)) {
          return Status::invalidArgument("aggregate in GROUP BY");
        }
        QSERV_ASSIGN_OR_RETURN(auto compiled,
                               bindExpr(*g, scope_, registry_));
        groupKeyCompiled_.push_back(std::move(compiled));
      }
    }
    // Compile item expressions (slot refs resolve through EvalCtx.extra).
    for (const auto& item : items_) {
      QSERV_ASSIGN_OR_RETURN(auto compiled,
                             bindExpr(*item.expr, scope_, registry_));
      itemCompiled_.push_back(std::move(compiled));
      declaredTypes_.push_back(inferType(*item.expr));
    }
    if (havingExpr_) {
      QSERV_ASSIGN_OR_RETURN(havingCompiled_,
                             bindExpr(*havingExpr_, scope_, registry_));
    }
    return Status::ok();
  }

  Status planWhere() {
    if (sel_.where && containsAggregate(*sel_.where)) {
      return Status::invalidArgument("aggregates are not allowed in WHERE");
    }
    if (!sel_.where) return Status::ok();
    std::vector<const Expr*> flat;
    flattenConjuncts(sel_.where.get(), flat);
    for (const Expr* e : flat) {
      Conjunct c;
      c.expr = e;
      std::vector<bool> used(scope_.size(), false);
      QSERV_RETURN_IF_ERROR(collectReferencedTables(*e, scope_, used));
      for (std::size_t t = 0; t < used.size(); ++t) {
        if (used[t]) {
          c.tables.push_back(static_cast<int>(t));
          c.maxTable = static_cast<int>(t);
        }
      }
      conjuncts_.push_back(std::move(c));
    }
    return Status::ok();
  }

  /// COUNT(*) pushdown attempt: true when the result row was produced.
  /// Applies only when every conjunct is a single-table kernel shape and no
  /// ordered index could serve one of the kernel columns (an index probe
  /// reads fewer rows than even a vectorized scan).
  Result<bool> tryCountPushdown() {
    std::vector<const Expr*> mine;
    for (const auto& c : conjuncts_) {
      if (c.tables.size() != 1 || c.tables[0] != 0) return false;
      mine.push_back(c.expr);
    }
    if (mine.empty()) return false;
    QSERV_ASSIGN_OR_RETURN(
        ScanFilter sf, compileScanFilter(mine, scope_, 0, registry_));
    if (!sf.hasKernels() || !sf.residuals().empty()) return false;
    const Table& table = *tablesRaw_[0];
    for (std::size_t col : sf.kernelColumns()) {
      if (pins_[0].index(table.schema().column(col).name)) {
        return false;
      }
    }
    std::int64_t count = 0;
    if (sf.prunes(table)) {
      ++stats_.zoneMapPrunes;
      stats_.zoneMapRowsSkipped += table.numRows();
    } else {
      stats_.rowsScanned += table.numRows();
      stats_.rowsScannedByTable[tableKeys_[0]] += table.numRows();
      ++stats_.vectorizedScans;
      stats_.vectorRowsIn += table.numRows();
      count = static_cast<std::int64_t>(sf.count(table));
      stats_.vectorRowsOut += static_cast<std::uint64_t>(count);
    }
    resultRows_.push_back({Value(count)});
    return true;
  }

  /// Candidate row list for table \p t: applies its single-table conjuncts,
  /// using an ordered index for equality / IN / BETWEEN when available.
  Result<std::vector<std::size_t>> candidateRows(std::size_t t) {
    const Table& table = *tablesRaw_[t];
    // Gather this table's single-table conjuncts.
    std::vector<const Expr*> mine;
    for (const auto& c : conjuncts_) {
      if (c.tables.size() == 1 && c.tables[0] == static_cast<int>(t)) {
        mine.push_back(c.expr);
      }
    }

    // Vectorized pre-pass: compile the kernelizable conjuncts. A zone-map
    // contradiction (predicate range outside the column's [min,max], or a
    // NULL test the null counts rule out) skips the scan — and the index
    // probe — without touching a row.
    std::optional<ScanFilter> scanFilter;
    if (vectorizedFilterEnabled()) {
      QSERV_ASSIGN_OR_RETURN(ScanFilter sf,
                             compileScanFilter(mine, scope_, t, registry_));
      if (sf.hasKernels() && sf.prunes(table)) {
        ++stats_.zoneMapPrunes;
        stats_.zoneMapRowsSkipped += table.numRows();
        return std::vector<std::size_t>{};
      }
      scanFilter = std::move(sf);
    }

    // Try an index probe: col = const | col IN (consts) | col BETWEEN.
    std::vector<std::size_t> rows;
    bool indexed = false;
    std::size_t indexConjunct = 0;
    for (std::size_t ci = 0; ci < mine.size() && !indexed; ++ci) {
      const Expr* e = mine[ci];
      const ColumnRef* col = nullptr;
      std::vector<Value> eqKeys;
      Value lo, hi;
      bool isRange = false;
      if (e->kind() == ExprKind::kBinary) {
        const auto* b = static_cast<const BinaryExpr*>(e);
        if (b->op == BinOp::kEq) {
          const Expr *cr = nullptr, *lit = nullptr;
          if (b->lhs->kind() == ExprKind::kColumnRef && isConstExpr(*b->rhs)) {
            cr = b->lhs.get();
            lit = b->rhs.get();
          } else if (b->rhs->kind() == ExprKind::kColumnRef &&
                     isConstExpr(*b->lhs)) {
            cr = b->rhs.get();
            lit = b->lhs.get();
          }
          if (cr != nullptr) {
            QSERV_ASSIGN_OR_RETURN(Value v, evalConstExpr(*lit, registry_));
            col = static_cast<const ColumnRef*>(cr);
            eqKeys.push_back(std::move(v));
          }
        }
      } else if (e->kind() == ExprKind::kIn) {
        const auto* in = static_cast<const InExpr*>(e);
        if (!in->negated && in->expr->kind() == ExprKind::kColumnRef) {
          bool allConst = true;
          for (const auto& item : in->list) {
            if (!isConstExpr(*item)) allConst = false;
          }
          if (allConst) {
            col = static_cast<const ColumnRef*>(in->expr.get());
            for (const auto& item : in->list) {
              QSERV_ASSIGN_OR_RETURN(Value v, evalConstExpr(*item, registry_));
              eqKeys.push_back(std::move(v));
            }
          }
        }
      } else if (e->kind() == ExprKind::kBetween) {
        const auto* bt = static_cast<const BetweenExpr*>(e);
        if (!bt->negated && bt->expr->kind() == ExprKind::kColumnRef &&
            isConstExpr(*bt->lo) && isConstExpr(*bt->hi)) {
          col = static_cast<const ColumnRef*>(bt->expr.get());
          QSERV_ASSIGN_OR_RETURN(lo, evalConstExpr(*bt->lo, registry_));
          QSERV_ASSIGN_OR_RETURN(hi, evalConstExpr(*bt->hi, registry_));
          isRange = true;
        }
      }
      if (col == nullptr) continue;
      // The column must belong to this table.
      auto slot = resolveColumn(*col, scope_);
      if (!slot.isOk() || slot.value().tableIdx != t) continue;
      auto index = pins_[t].index(col->column);
      if (!index) continue;
      if (isRange) {
        rows = index->lookupRange(lo, hi);
      } else {
        for (const auto& k : eqKeys) {
          auto hits = index->lookup(k);
          rows.insert(rows.end(), hits.begin(), hits.end());
        }
        std::sort(rows.begin(), rows.end());
        rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
      }
      indexed = true;
      indexConjunct = ci;
      ++stats_.indexLookups;
    }

    std::vector<std::size_t> out;
    std::vector<std::size_t> rowCursor(scope_.size(), 0);
    EvalCtx ctx{tablesRaw_, rowCursor, {}};
    std::vector<CompiledExprPtr> filters;
    auto keep = [&](std::size_t r) {
      rowCursor[t] = r;
      for (const auto& f : filters) {
        if (!f->eval(ctx).isTrue()) return false;
      }
      return true;
    };
    if (indexed) {
      // Index-probed rows are point reads, not part of a sequential scan;
      // they are charged through indexLookups in the cost model and are
      // deliberately absent from rowsScannedByTable (which feeds
      // density-scaled scan-bandwidth accounting). The probe already
      // applied its conjunct; the rest run row-at-a-time (probes return
      // few rows, not worth vectorizing).
      for (std::size_t ci = 0; ci < mine.size(); ++ci) {
        if (ci == indexConjunct) continue;
        QSERV_ASSIGN_OR_RETURN(auto compiled,
                               bindExpr(*mine[ci], scope_, registry_));
        filters.push_back(std::move(compiled));
      }
      stats_.rowsScanned += rows.size();
      for (std::size_t r : rows) {
        if (keep(r)) out.push_back(r);
      }
      return out;
    }

    stats_.rowsScanned += table.numRows();
    stats_.rowsScannedByTable[tableKeys_[t]] += table.numRows();
    if (scanFilter && scanFilter->hasKernels()) {
      // Batch path: kernels compact a selection vector over the typed
      // columns; conjuncts outside the kernel shapes run per surviving row
      // through the scalar path (identical semantics, see vector_eval.h).
      ++stats_.vectorizedScans;
      stats_.vectorRowsIn += table.numRows();
      std::vector<std::size_t> survivors;
      scanFilter->run(table, survivors);
      stats_.vectorRowsOut += survivors.size();
      if (scanFilter->residuals().empty()) return survivors;
      for (std::size_t ci : scanFilter->residuals()) {
        QSERV_ASSIGN_OR_RETURN(auto compiled,
                               bindExpr(*mine[ci], scope_, registry_));
        filters.push_back(std::move(compiled));
      }
      stats_.fallbackRows += survivors.size();
      for (std::size_t r : survivors) {
        if (keep(r)) out.push_back(r);
      }
      return out;
    }

    // Row-at-a-time scan (vectorization disabled or nothing kernelized).
    for (const Expr* e : mine) {
      QSERV_ASSIGN_OR_RETURN(auto compiled, bindExpr(*e, scope_, registry_));
      filters.push_back(std::move(compiled));
    }
    out.reserve(table.numRows());
    for (std::size_t r = 0; r < table.numRows(); ++r) {
      if (keep(r)) out.push_back(r);
    }
    return out;
  }

  /// Fill rows_/numInputs_ with the FROM clause's rows that pass WHERE.
  Status enumerateInputs() {
    const std::size_t k = scope_.size();
    rows_.assign(k, {});
    // Constant conjuncts (no column references) are bound — surfacing
    // unknown-function errors, e.g. an unrewritten qserv_areaspec_box — and
    // evaluated once; a non-true constant predicate empties the result.
    for (const auto& c : conjuncts_) {
      if (!c.tables.empty()) continue;
      QSERV_ASSIGN_OR_RETURN(auto compiled,
                             bindExpr(*c.expr, scope_, registry_));
      EvalCtx ctx{{}, {}, {}};
      if (!compiled->eval(ctx).isTrue()) return Status::ok();
    }
    if (k == 0) {
      // SELECT without FROM: one input, unless WHERE rejects it.
      if (sel_.where) {
        QSERV_ASSIGN_OR_RETURN(auto w,
                               bindExpr(*sel_.where, scope_, registry_));
        EvalCtx ctx{{}, {}, {}};
        if (!w->eval(ctx).isTrue()) return Status::ok();
      }
      numInputs_ = 1;
      return Status::ok();
    }

    // Stage 0: a single-table query's inputs are this selection vector.
    QSERV_ASSIGN_OR_RETURN(rows_[0], candidateRows(0));
    numInputs_ = rows_[0].size();

    // Join stage t extends the inputs (over tables < t) with table t.
    for (std::size_t t = 1; t < k && numInputs_ > 0; ++t) {
      QSERV_ASSIGN_OR_RETURN(auto rows, candidateRows(t));

      // Find equi-join conjuncts usable at this stage: expr(lhs over
      // tables < t) = expr(rhs over exactly {t}).
      std::vector<std::pair<const Expr*, const Expr*>> joinKeys;
      for (const auto& c : conjuncts_) {
        if (c.expr->kind() != ExprKind::kBinary) continue;
        const auto* b = static_cast<const BinaryExpr*>(c.expr);
        if (b->op != BinOp::kEq) continue;
        if (c.maxTable != static_cast<int>(t) || c.tables.size() < 2) continue;
        auto sideTables = [&](const Expr& e) -> Result<std::vector<int>> {
          std::vector<bool> used(scope_.size(), false);
          QSERV_RETURN_IF_ERROR(collectReferencedTables(e, scope_, used));
          std::vector<int> out;
          for (std::size_t i = 0; i < used.size(); ++i) {
            if (used[i]) out.push_back(static_cast<int>(i));
          }
          return out;
        };
        QSERV_ASSIGN_OR_RETURN(auto lhsTables, sideTables(*b->lhs));
        QSERV_ASSIGN_OR_RETURN(auto rhsTables, sideTables(*b->rhs));
        auto onlyT = [&](const std::vector<int>& v) {
          return v.size() == 1 && v[0] == static_cast<int>(t);
        };
        auto allBelowT = [&](const std::vector<int>& v) {
          return !v.empty() && v.back() < static_cast<int>(t);
        };
        if (onlyT(rhsTables) && allBelowT(lhsTables)) {
          joinKeys.emplace_back(b->lhs.get(), b->rhs.get());
        } else if (onlyT(lhsTables) && allBelowT(rhsTables)) {
          joinKeys.emplace_back(b->rhs.get(), b->lhs.get());
        }
      }

      // Zone-based spatial join: when no equi key hashes this stage, look
      // for a near-neighbor conjunct (qserv_angSep/scisql_angSep < r)
      // before falling back to the nested loop (see sql/spatial_join.h).
      std::optional<SpatialJoinSpec> spatial;
      if (joinKeys.empty() && spatialJoinEnabled()) {
        for (const auto& c : conjuncts_) {
          if (c.maxTable != static_cast<int>(t) || c.tables.size() < 2) {
            continue;
          }
          QSERV_ASSIGN_OR_RETURN(
              auto m, matchSpatialJoin(*c.expr, scope_, t, registry_));
          if (m) {
            spatial = std::move(m);
            break;
          }
        }
      }

      // Residual conjuncts fully bound at this stage (excluding per-table
      // conjuncts, already applied; equi keys, already used; and the
      // spatial conjunct, applied exactly during the probe).
      std::vector<CompiledExprPtr> residual;
      for (const auto& c : conjuncts_) {
        if (c.maxTable != static_cast<int>(t) || c.tables.size() < 2) continue;
        if (spatial && c.expr == spatial->conjunct) continue;
        bool usedAsJoinKey = false;
        for (auto& [probe, build] : joinKeys) {
          if (c.expr->kind() == ExprKind::kBinary) {
            const auto* b = static_cast<const BinaryExpr*>(c.expr);
            if ((b->lhs.get() == probe && b->rhs.get() == build) ||
                (b->rhs.get() == probe && b->lhs.get() == build)) {
              usedAsJoinKey = true;
            }
          }
        }
        if (usedAsJoinKey) continue;
        QSERV_ASSIGN_OR_RETURN(auto compiled,
                               bindExpr(*c.expr, scope_, registry_));
        residual.push_back(std::move(compiled));
      }

      std::vector<std::vector<std::size_t>> next(t + 1);
      std::vector<std::size_t> rowCursor(k, 0);
      EvalCtx ctx{tablesRaw_, rowCursor, {}};
      // Residuals stream per pair: emit() completes the cursor (the caller
      // has set rowCursor[0..t-1] from input i), runs the filters, and
      // appends the extended input only when every one passes — peak
      // memory is O(surviving pairs), never the O(n^2) cross product.
      auto setInputCursor = [&](std::size_t i) {
        for (std::size_t s = 0; s < t; ++s) rowCursor[s] = rows_[s][i];
      };
      auto emit = [&](std::size_t i, std::size_t r) {
        rowCursor[t] = r;
        for (const auto& f : residual) {
          if (!f->eval(ctx).isTrue()) return;
        }
        for (std::size_t s = 0; s < t; ++s) next[s].push_back(rows_[s][i]);
        next[t].push_back(r);
      };

      if (!joinKeys.empty()) {
        // Hash join: build on table t's candidates.
        std::vector<CompiledExprPtr> buildKeys, probeKeys;
        for (auto& [probe, build] : joinKeys) {
          QSERV_ASSIGN_OR_RETURN(auto bk, bindExpr(*build, scope_, registry_));
          QSERV_ASSIGN_OR_RETURN(auto pk, bindExpr(*probe, scope_, registry_));
          buildKeys.push_back(std::move(bk));
          probeKeys.push_back(std::move(pk));
        }
        std::unordered_map<GroupKey, std::vector<std::size_t>, ValueKeyHash>
            hash;
        for (std::size_t r : rows) {
          rowCursor[t] = r;
          GroupKey key;
          bool hasNull = false;
          for (const auto& bk : buildKeys) {
            Value v = bk->eval(ctx);
            if (v.isNull()) hasNull = true;
            key.values.push_back(std::move(v));
          }
          if (hasNull) continue;  // NULL never joins
          hash[std::move(key)].push_back(r);
        }
        for (std::size_t i = 0; i < numInputs_; ++i) {
          setInputCursor(i);
          GroupKey key;
          bool hasNull = false;
          for (const auto& pk : probeKeys) {
            Value v = pk->eval(ctx);
            if (v.isNull()) hasNull = true;
            key.values.push_back(std::move(v));
          }
          if (hasNull) continue;
          auto it = hash.find(key);
          if (it == hash.end()) continue;
          for (std::size_t r : it->second) {
            ++stats_.joinMatches;
            emit(i, r);
          }
        }
      } else if (spatial) {
        // Zone join: dec-banded index over table t's candidates, probed
        // with an RA window per outer tuple; the exact angSep comparison
        // runs on every candidate so results match the nested loop
        // bit-for-bit (candidates are re-sorted by row id so even the
        // emission order is identical).
        ++stats_.spatialJoins;
        QSERV_ASSIGN_OR_RETURN(
            ZoneIndex zindex,
            ZoneIndex::build(*spatial, scope_, t, tablesRaw_, rows,
                             registry_));
        stats_.zoneJoinZonesBuilt += zindex.numZones();
        QSERV_ASSIGN_OR_RETURN(auto outerRa,
                               bindExpr(*spatial->outerRa, scope_, registry_));
        QSERV_ASSIGN_OR_RETURN(
            auto outerDec, bindExpr(*spatial->outerDec, scope_, registry_));
        const std::uint64_t totalPairs =
            static_cast<std::uint64_t>(numInputs_) * rows.size();
        std::uint64_t candidates = 0;
        std::vector<std::uint32_t> hits;
        for (std::size_t i = 0; i < numInputs_; ++i) {
          setInputCursor(i);
          Value raV = outerRa->eval(ctx);
          Value decV = outerDec->eval(ctx);
          // NULL/non-numeric/non-finite outer coordinates never join.
          if (!raV.isNumeric() || !decV.isNumeric()) continue;
          double ra = raV.toDouble();
          double dec = decV.toDouble();
          if (!std::isfinite(ra) || !std::isfinite(dec)) continue;
          hits.clear();
          zindex.probe(ra, dec, hits, stats_.zoneJoinZonesProbed);
          candidates += hits.size();
          std::sort(hits.begin(), hits.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      return zindex.entry(a).row < zindex.entry(b).row;
                    });
          for (std::uint32_t h : hits) {
            const ZoneIndex::Entry& e = zindex.entry(h);
            if (!spatial->matches(ra, dec, e.raOrig, e.dec)) continue;
            emit(i, e.row);
          }
        }
        // The cost model charges pairs actually examined; the pruned
        // remainder of the cross product is the zone algorithm's win.
        stats_.pairsEvaluated += candidates;
        stats_.zoneJoinCandidates += candidates;
        stats_.zoneJoinPairsPruned += totalPairs - candidates;
      } else {
        // Streamed nested loop.
        stats_.pairsEvaluated += numInputs_ * rows.size();
        for (std::size_t i = 0; i < numInputs_; ++i) {
          setInputCursor(i);
          for (std::size_t r : rows) emit(i, r);
        }
      }
      for (std::size_t s = 0; s <= t; ++s) rows_[s] = std::move(next[s]);
      numInputs_ = rows_[t].size();
    }
    return Status::ok();
  }

  /// Point \p cursor at input \p i's row in every scope table.
  void setCursor(std::size_t i, std::vector<std::size_t>& cursor) const {
    for (std::size_t t = 0; t < rows_.size(); ++t) cursor[t] = rows_[t][i];
  }

  ColumnType columnType(const ColumnSlot& slot) const {
    return tablesRaw_[slot.tableIdx]->schema().column(slot.columnIdx).type;
  }

  /// The column behind \p expr when it is a plain reference to an INT or
  /// DOUBLE column: the argument shape the typed aggregate loops read.
  std::optional<ColumnSlot> numericColumn(const Expr& expr) const {
    if (expr.kind() != ExprKind::kColumnRef) return std::nullopt;
    auto slot = resolveColumn(static_cast<const ColumnRef&>(expr), scope_);
    if (!slot.isOk()) return std::nullopt;
    ColumnType type = columnType(*slot);
    if (type != ColumnType::kInt && type != ColumnType::kDouble) {
      return std::nullopt;
    }
    return *slot;
  }

  Status consumeProjection() {
    std::vector<std::size_t> rowCursor(scope_.size(), 0);
    EvalCtx ctx{tablesRaw_, rowCursor, {}};
    bool canShortCircuit = sel_.limit && sel_.orderBy.empty();
    for (std::size_t i = 0; i < numInputs_; ++i) {
      if (canShortCircuit &&
          static_cast<std::int64_t>(resultRows_.size()) >= *sel_.limit) {
        break;
      }
      setCursor(i, rowCursor);
      std::vector<Value> row;
      row.reserve(itemCompiled_.size());
      for (const auto& item : itemCompiled_) row.push_back(item->eval(ctx));
      resultRows_.push_back(std::move(row));
    }
    return Status::ok();
  }

  /// Step 1 of aggregation: the group of every input (\p groupOf) and the
  /// first input of each group, in first-seen order (\p firstInput: the
  /// group's representative row). With \p typed set, a GROUP BY on one INT
  /// column reads the column directly; other keys are evaluated into a
  /// boxed GroupKey per input. Returns whether the typed path ran.
  bool assignGroups(bool typed, std::vector<std::uint32_t>& groupOf,
                    std::vector<std::size_t>& firstInput) {
    groupOf.assign(numInputs_, 0);
    if (sel_.groupBy.empty()) {
      if (numInputs_ > 0) firstInput.push_back(0);
      return true;
    }
    std::optional<ColumnSlot> key;
    if (typed && sel_.groupBy.size() == 1) {
      key = numericColumn(*sel_.groupBy[0]);
    }
    if (key && columnType(*key) == ColumnType::kInt) {
      const Table& table = *tablesRaw_[key->tableIdx];
      const auto& data = table.intColumn(key->columnIdx);
      const auto& nulls = table.nullMask(key->columnIdx);
      const auto& rows = rows_[key->tableIdx];
      IntGroupMap groups;
      std::optional<std::uint32_t> nullGroup;
      for (std::size_t i = 0; i < numInputs_; ++i) {
        const std::size_t r = rows[i];
        const auto next = static_cast<std::uint32_t>(firstInput.size());
        bool inserted = false;
        if (nulls[r]) {
          inserted = !nullGroup;
          if (inserted) nullGroup = next;
          groupOf[i] = *nullGroup;
        } else {
          groupOf[i] = groups.findOrInsert(data[r], next, inserted);
        }
        if (inserted) firstInput.push_back(i);
      }
      return true;
    }
    std::unordered_map<GroupKey, std::uint32_t, GroupKeyHash> groups;
    std::vector<std::size_t> rowCursor(scope_.size(), 0);
    EvalCtx ctx{tablesRaw_, rowCursor, {}};
    for (std::size_t i = 0; i < numInputs_; ++i) {
      setCursor(i, rowCursor);
      GroupKey key;
      key.values.reserve(groupKeyCompiled_.size());
      for (const auto& g : groupKeyCompiled_) {
        key.values.push_back(g->eval(ctx));
      }
      auto [it, inserted] = groups.try_emplace(
          std::move(key), static_cast<std::uint32_t>(firstInput.size()));
      if (inserted) firstInput.push_back(i);
      groupOf[i] = it->second;
    }
    return false;
  }

  /// Aggregate the inputs in two steps: group ids once per input, then
  /// each aggregate over all inputs. A COUNT(*) counts inputs; an argument
  /// that is a plain INT/DOUBLE column runs a typed loop over the column
  /// storage (accumulateColumn); any other argument is evaluated per input
  /// through its compiled expression. The typed paths ride the
  /// vectorized-scan switch, so turning it off gives the boxed baseline.
  Status consumeAggregate() {
    const bool typed = vectorizedFilterEnabled();
    std::vector<std::uint32_t> groupOf;
    std::vector<std::size_t> firstInput;
    bool columnar = assignGroups(typed, groupOf, firstInput) && typed;

    std::vector<std::vector<AggAccumulator>> accs(
        aggs_.size(), std::vector<AggAccumulator>(firstInput.size()));
    std::vector<std::size_t> rowCursor(scope_.size(), 0);
    EvalCtx ctx{tablesRaw_, rowCursor, {}};
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      const AggKind kind = aggs_[a].kind;
      std::vector<AggAccumulator>& acc = accs[a];
      std::optional<ColumnSlot> col;
      if (typed && aggs_[a].arg) col = numericColumn(*aggs_[a].arg);
      if (!aggs_[a].arg) {
        for (std::size_t i = 0; i < numInputs_; ++i) ++acc[groupOf[i]].count;
      } else if (col) {
        const Table& table = *tablesRaw_[col->tableIdx];
        const auto& nulls = table.nullMask(col->columnIdx);
        const auto& rows = rows_[col->tableIdx];
        if (columnType(*col) == ColumnType::kInt) {
          accumulateColumn(kind, table.intColumn(col->columnIdx), nulls, rows,
                           groupOf, acc);
        } else {
          accumulateColumn(kind, table.doubleColumn(col->columnIdx), nulls,
                           rows, groupOf, acc);
        }
      } else {
        columnar = false;
        for (std::size_t i = 0; i < numInputs_; ++i) {
          setCursor(i, rowCursor);
          acc[groupOf[i]].accumulate(kind, aggArgCompiled_[a]->eval(ctx));
        }
      }
    }
    if (columnar) {
      ++stats_.columnarAggregates;
      stats_.columnarAggRows += numInputs_;
    }

    if (firstInput.empty() && sel_.groupBy.empty()) {
      // Global aggregate over empty input: one row; COUNT()=0, others NULL.
      std::vector<Value> aggValues;
      AggAccumulator empty;
      for (const auto& spec : aggs_) {
        aggValues.push_back(empty.finalize(spec.kind));
      }
      std::vector<Value> row;
      for (const auto& item : items_) {
        ExprPtr nulled = cloneWithColumnsAsNull(*item.expr);
        QSERV_ASSIGN_OR_RETURN(auto compiled,
                               bindExpr(*nulled, {}, registry_));
        EvalCtx ectx{{}, {}, aggValues};
        row.push_back(compiled->eval(ectx));
      }
      resultRows_.push_back(std::move(row));
      return Status::ok();
    }

    for (std::size_t g = 0; g < firstInput.size(); ++g) {
      std::vector<Value> aggValues;
      aggValues.reserve(aggs_.size());
      for (std::size_t a = 0; a < aggs_.size(); ++a) {
        aggValues.push_back(accs[a][g].finalize(aggs_[a].kind));
      }
      setCursor(firstInput[g], rowCursor);
      EvalCtx gctx{tablesRaw_, rowCursor, aggValues};
      if (havingCompiled_ && !havingCompiled_->eval(gctx).isTrue()) continue;
      std::vector<Value> row;
      row.reserve(itemCompiled_.size());
      for (const auto& item : itemCompiled_) row.push_back(item->eval(gctx));
      resultRows_.push_back(std::move(row));
    }
    return Status::ok();
  }

  Status orderAndLimit() {
    if (sel_.distinct) {
      // Deduplicate rows (sqlEquals semantics via the group-key hash),
      // keeping first occurrences.
      std::unordered_map<GroupKey, bool, GroupKeyHash> seen;
      std::vector<std::vector<Value>> unique;
      unique.reserve(resultRows_.size());
      for (auto& row : resultRows_) {
        GroupKey key;
        key.values = row;
        if (seen.emplace(std::move(key), true).second) {
          unique.push_back(std::move(row));
        }
      }
      resultRows_ = std::move(unique);
    }
    if (!sel_.orderBy.empty()) {
      // Resolve each ORDER BY expression to an output column: by alias, by
      // output name, or by serialized expression text.
      std::vector<std::pair<std::size_t, bool>> keys;  // (column, desc)
      for (const auto& ob : sel_.orderBy) {
        std::string want = ob.expr->toSql();
        std::optional<std::size_t> found;
        for (std::size_t i = 0; i < outputNames_.size(); ++i) {
          if (util::iequals(outputNames_[i], want) ||
              util::iequals(items_[i].alias, want)) {
            found = i;
            break;
          }
        }
        if (!found) {
          return Status::unimplemented(util::format(
              "ORDER BY expression %s must appear in the select list",
              want.c_str()));
        }
        keys.emplace_back(*found, ob.descending);
      }
      std::stable_sort(resultRows_.begin(), resultRows_.end(),
                       [&](const auto& a, const auto& b) {
                         for (auto [col, desc] : keys) {
                           int c = a[col].compare(b[col]);
                           if (c != 0) return desc ? c > 0 : c < 0;
                         }
                         return false;
                       });
    }
    if (sel_.limit &&
        static_cast<std::int64_t>(resultRows_.size()) > *sel_.limit) {
      resultRows_.resize(static_cast<std::size_t>(*sel_.limit));
    }
    return Status::ok();
  }

  Result<TablePtr> buildResultTable() {
    // Column types come from static inference where possible (so empty
    // results keep correct declared types across dump/replay); actual
    // values can only widen INT to DOUBLE. A column mixing strings with
    // numerics is an error; a fully undeterminable all-NULL column defaults
    // to DOUBLE.
    Schema schema;
    const std::size_t ncols = outputNames_.size();
    for (std::size_t c = 0; c < ncols; ++c) {
      bool hasInt = false, hasDouble = false, hasString = false;
      for (const auto& row : resultRows_) {
        switch (row[c].type()) {
          case ValueType::kInt: hasInt = true; break;
          case ValueType::kDouble: hasDouble = true; break;
          case ValueType::kString: hasString = true; break;
          case ValueType::kNull: break;
        }
      }
      if (hasString && (hasInt || hasDouble)) {
        return Status::internal(util::format(
            "column %s mixes string and numeric values",
            outputNames_[c].c_str()));
      }
      std::optional<ColumnType> declared =
          c < declaredTypes_.size() ? declaredTypes_[c] : std::nullopt;
      ColumnType t;
      if (declared) {
        t = *declared;
        if (t == ColumnType::kInt && hasDouble) t = ColumnType::kDouble;
        if (t != ColumnType::kString && hasString) t = ColumnType::kString;
      } else {
        t = hasString ? ColumnType::kString
            : hasDouble ? ColumnType::kDouble
            : hasInt    ? ColumnType::kInt
                        : ColumnType::kDouble;
      }
      schema.addColumn(ColumnDef{outputNames_[c], t});
    }
    auto table = std::make_shared<Table>("result", std::move(schema));
    for (const auto& row : resultRows_) {
      QSERV_RETURN_IF_ERROR(table->appendRow(row));
    }
    stats_.rowsOutput += resultRows_.size();
    return table;
  }

  Database& db_;
  const SelectStmt& sel_;
  std::span<const TableRef> from_;  ///< sel_.from, or the tables bound to it
  ExecStats& stats_;
  const FunctionRegistry& registry_;

  std::vector<std::string> tableKeys_;
  std::vector<TableSnapshot> pins_;  ///< FROM tables with their indexes
  std::vector<ScopeTable> scope_;
  std::vector<const Table*> tablesRaw_;

  std::vector<SelectItem> items_;
  std::vector<std::string> outputNames_;
  std::vector<CompiledExprPtr> itemCompiled_;
  std::vector<std::optional<ColumnType>> declaredTypes_;

  bool isAggregateQuery_ = false;
  std::vector<AggSpec> aggs_;
  std::vector<CompiledExprPtr> aggArgCompiled_;
  std::vector<CompiledExprPtr> groupKeyCompiled_;
  ExprPtr havingExpr_;  // aggregate calls replaced with slot refs
  CompiledExprPtr havingCompiled_;

  std::vector<Conjunct> conjuncts_;
  // The FROM clause's rows that pass WHERE, stored column-wise: input i
  // joins row rows_[t][i] of every scope table t. A single-table query's
  // rows_[0] is the selection vector candidateRows(0) returned; a SELECT
  // without FROM has one input and no tables.
  std::vector<std::vector<std::size_t>> rows_;
  std::size_t numInputs_ = 0;
  std::vector<std::vector<Value>> resultRows_;
};

Result<TablePtr> emptyResult() {
  return std::make_shared<Table>("result", Schema{});
}

}  // namespace

Result<TablePtr> executeSelect(Database& db, const SelectStmt& sel,
                               ExecStats& stats) {
  return executeSelect(db, sel, sel.from, stats);
}

Result<TablePtr> executeSelect(Database& db, const SelectStmt& sel,
                               std::span<const TableRef> from,
                               ExecStats& stats) {
  if (from.size() != sel.from.size()) {
    return Status::invalidArgument(util::format(
        "%zu FROM tables bound to a statement with %zu", from.size(),
        sel.from.size()));
  }
  ++stats.statements;
  SelectExec exec(db, sel, from, stats);
  return exec.run();
}

Result<TablePtr> executeStatement(Database& db, const Statement& stmt,
                                  ExecStats& stats) {
  if (const auto* sel = std::get_if<SelectStmt>(&stmt)) {
    return executeSelect(db, *sel, stats);
  }
  ++stats.statements;
  if (const auto* create = std::get_if<CreateTableStmt>(&stmt)) {
    if (db.hasTable(create->table)) {
      if (create->ifNotExists) return emptyResult();
      return Status::alreadyExists(
          util::format("table %s already exists", create->table.c_str()));
    }
    if (create->asSelect) {
      ExecStats inner;
      QSERV_ASSIGN_OR_RETURN(TablePtr result,
                             executeSelect(db, *create->asSelect, inner));
      stats.add(inner);
      stats.rowsInserted += result->numRows();
      auto table = std::make_shared<Table>(create->table, result->schema());
      QSERV_RETURN_IF_ERROR(table->appendFrom(*result));
      QSERV_RETURN_IF_ERROR(db.registerTable(std::move(table)));
      return emptyResult();
    }
    if (create->schema.numColumns() == 0) {
      return Status::invalidArgument("CREATE TABLE with no columns");
    }
    QSERV_RETURN_IF_ERROR(db.registerTable(
        std::make_shared<Table>(create->table, create->schema)));
    return emptyResult();
  }
  if (const auto* insert = std::get_if<InsertStmt>(&stmt)) {
    TablePtr table = db.findTable(insert->table);
    if (!table) {
      return Status::notFound(
          util::format("unknown table %s", insert->table.c_str()));
    }
    if (insert->select) {
      ExecStats inner;
      QSERV_ASSIGN_OR_RETURN(TablePtr result,
                             executeSelect(db, *insert->select, inner));
      stats.add(inner);
      if (result->numColumns() != table->numColumns()) {
        return Status::invalidArgument(util::format(
            "INSERT ... SELECT: %zu columns into %zu-column table",
            result->numColumns(), table->numColumns()));
      }
      QSERV_RETURN_IF_ERROR(table->appendFrom(*result));
      stats.rowsInserted += result->numRows();
    } else {
      // Bulk append: one validate+reserve pass over the whole VALUES list
      // (this is the dump-replay hot path, see sql/dump.cc).
      QSERV_RETURN_IF_ERROR(table->appendRows(insert->rows));
      stats.rowsInserted += insert->rows.size();
    }
    db.refreshIndexes(insert->table);
    return emptyResult();
  }
  if (const auto* drop = std::get_if<DropTableStmt>(&stmt)) {
    QSERV_RETURN_IF_ERROR(db.dropTable(drop->table, drop->ifExists));
    return emptyResult();
  }
  if (std::get_if<ExplainStmt>(&stmt)) {
    // Plan introspection is a frontend concern; chunk executors only ever
    // receive rewritten SELECTs.
    return Status::invalidArgument(
        "EXPLAIN is handled by the frontend, not the chunk executor");
  }
  return Status::internal("unhandled statement type");
}

}  // namespace qserv::sql
