#include "sql/expr_eval.h"

#include <cmath>
#include <cstdint>

#include "util/strings.h"

namespace qserv::sql {

namespace {

using util::Result;
using util::Status;

// Three-valued truth.
enum class Truth { kFalse, kTrue, kNull };

Truth truthOf(const Value& v) {
  if (v.isNull()) return Truth::kNull;
  return v.isTrue() ? Truth::kTrue : Truth::kFalse;
}

// INT arithmetic wraps modulo 2^64 (two's complement, like the hardware
// instruction): computed in uint64_t, because signed overflow is undefined.
std::uint64_t asUint(const Value& v) {
  return static_cast<std::uint64_t>(v.asInt());
}
std::int64_t wrapInt(std::uint64_t v) { return static_cast<std::int64_t>(v); }

class ConstNode final : public CompiledExpr {
 public:
  explicit ConstNode(Value v) : value_(std::move(v)) {}
  Value eval(const EvalCtx&) const override { return value_; }

 private:
  Value value_;
};

class ColumnNode final : public CompiledExpr {
 public:
  ColumnNode(std::size_t tableIdx, std::size_t colIdx)
      : tableIdx_(tableIdx), colIdx_(colIdx) {}
  Value eval(const EvalCtx& ctx) const override {
    return ctx.tables[tableIdx_]->cell(ctx.rows[tableIdx_], colIdx_);
  }

 private:
  std::size_t tableIdx_;
  std::size_t colIdx_;
};

class UnaryNode final : public CompiledExpr {
 public:
  UnaryNode(UnOp op, CompiledExprPtr operand)
      : op_(op), operand_(std::move(operand)) {}
  Value eval(const EvalCtx& ctx) const override {
    Value v = operand_->eval(ctx);
    if (op_ == UnOp::kNot) {
      Truth t = truthOf(v);
      if (t == Truth::kNull) return Value::null();
      return Value::boolean(t == Truth::kFalse);
    }
    // Negation.
    if (v.isNull()) return Value::null();
    if (v.isInt()) return Value(wrapInt(0 - asUint(v)));
    if (v.isDouble()) return Value(-v.asDouble());
    return Value::null();  // -'string' has no meaning here
  }

 private:
  UnOp op_;
  CompiledExprPtr operand_;
};

class BinaryNode final : public CompiledExpr {
 public:
  BinaryNode(BinOp op, CompiledExprPtr lhs, CompiledExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Value eval(const EvalCtx& ctx) const override {
    // Short-circuiting logical operators with 3VL.
    if (op_ == BinOp::kAnd) {
      Truth a = truthOf(lhs_->eval(ctx));
      if (a == Truth::kFalse) return Value::boolean(false);
      Truth b = truthOf(rhs_->eval(ctx));
      if (b == Truth::kFalse) return Value::boolean(false);
      if (a == Truth::kNull || b == Truth::kNull) return Value::null();
      return Value::boolean(true);
    }
    if (op_ == BinOp::kOr) {
      Truth a = truthOf(lhs_->eval(ctx));
      if (a == Truth::kTrue) return Value::boolean(true);
      Truth b = truthOf(rhs_->eval(ctx));
      if (b == Truth::kTrue) return Value::boolean(true);
      if (a == Truth::kNull || b == Truth::kNull) return Value::null();
      return Value::boolean(false);
    }

    Value a = lhs_->eval(ctx);
    Value b = rhs_->eval(ctx);
    if (a.isNull() || b.isNull()) return Value::null();

    switch (op_) {
      case BinOp::kEq: return Value::boolean(a.compare(b) == 0);
      case BinOp::kNe: return Value::boolean(a.compare(b) != 0);
      case BinOp::kLt: return Value::boolean(a.compare(b) < 0);
      case BinOp::kLe: return Value::boolean(a.compare(b) <= 0);
      case BinOp::kGt: return Value::boolean(a.compare(b) > 0);
      case BinOp::kGe: return Value::boolean(a.compare(b) >= 0);
      default: break;
    }

    // Arithmetic: strings do not participate.
    if (!a.isNumeric() || !b.isNumeric()) return Value::null();
    bool bothInt = a.isInt() && b.isInt();
    switch (op_) {
      case BinOp::kAdd:
        if (bothInt) return Value(wrapInt(asUint(a) + asUint(b)));
        return Value(a.toDouble() + b.toDouble());
      case BinOp::kSub:
        if (bothInt) return Value(wrapInt(asUint(a) - asUint(b)));
        return Value(a.toDouble() - b.toDouble());
      case BinOp::kMul:
        if (bothInt) return Value(wrapInt(asUint(a) * asUint(b)));
        return Value(a.toDouble() * b.toDouble());
      case BinOp::kDiv: {
        double d = b.toDouble();
        if (d == 0.0) return Value::null();
        return Value(a.toDouble() / d);
      }
      case BinOp::kMod: {
        if (bothInt) {
          if (b.asInt() == 0) return Value::null();
          // INT64_MIN % -1 overflows in C++; the remainder is 0.
          if (b.asInt() == -1) return Value(std::int64_t{0});
          return Value(a.asInt() % b.asInt());
        }
        double d = b.toDouble();
        if (d == 0.0) return Value::null();
        return Value(std::fmod(a.toDouble(), d));
      }
      default:
        return Value::null();
    }
  }

 private:
  BinOp op_;
  CompiledExprPtr lhs_;
  CompiledExprPtr rhs_;
};

class FuncNode final : public CompiledExpr {
 public:
  FuncNode(const FunctionDef* def, std::vector<CompiledExprPtr> args)
      : def_(def), args_(std::move(args)) {}
  Value eval(const EvalCtx& ctx) const override {
    std::vector<Value> vals;
    vals.reserve(args_.size());
    for (const auto& a : args_) vals.push_back(a->eval(ctx));
    return def_->fn(vals);
  }

 private:
  const FunctionDef* def_;
  std::vector<CompiledExprPtr> args_;
};

class BetweenNode final : public CompiledExpr {
 public:
  BetweenNode(CompiledExprPtr e, CompiledExprPtr lo, CompiledExprPtr hi,
              bool negated)
      : e_(std::move(e)), lo_(std::move(lo)), hi_(std::move(hi)),
        negated_(negated) {}
  Value eval(const EvalCtx& ctx) const override {
    Value v = e_->eval(ctx);
    Value lo = lo_->eval(ctx);
    Value hi = hi_->eval(ctx);
    if (v.isNull() || lo.isNull() || hi.isNull()) return Value::null();
    bool in = v.compare(lo) >= 0 && v.compare(hi) <= 0;
    return Value::boolean(negated_ ? !in : in);
  }

 private:
  CompiledExprPtr e_, lo_, hi_;
  bool negated_;
};

class InNode final : public CompiledExpr {
 public:
  InNode(CompiledExprPtr e, std::vector<CompiledExprPtr> list, bool negated)
      : e_(std::move(e)), list_(std::move(list)), negated_(negated) {}
  Value eval(const EvalCtx& ctx) const override {
    Value v = e_->eval(ctx);
    if (v.isNull()) return Value::null();
    bool sawNull = false;
    for (const auto& item : list_) {
      Value x = item->eval(ctx);
      if (x.isNull()) {
        sawNull = true;
        continue;
      }
      if (v.compare(x) == 0) {
        return Value::boolean(!negated_);
      }
    }
    if (sawNull) return Value::null();
    return Value::boolean(negated_);
  }

 private:
  CompiledExprPtr e_;
  std::vector<CompiledExprPtr> list_;
  bool negated_;
};

class IsNullNode final : public CompiledExpr {
 public:
  IsNullNode(CompiledExprPtr e, bool negated)
      : e_(std::move(e)), negated_(negated) {}
  Value eval(const EvalCtx& ctx) const override {
    bool isNull = e_->eval(ctx).isNull();
    return Value::boolean(negated_ ? !isNull : isNull);
  }

 private:
  CompiledExprPtr e_;
  bool negated_;
};

class SlotRefNode final : public CompiledExpr {
 public:
  explicit SlotRefNode(std::size_t slot) : slot_(slot) {}
  Value eval(const EvalCtx& ctx) const override {
    return slot_ < ctx.extra.size() ? ctx.extra[slot_] : Value::null();
  }

 private:
  std::size_t slot_;
};

class Binder {
 public:
  Binder(std::span<const ScopeTable> scope, const FunctionRegistry& registry)
      : scope_(scope), registry_(registry) {}

  Result<CompiledExprPtr> bind(const Expr& expr) {
    switch (expr.kind()) {
      case ExprKind::kLiteral: {
        const auto& e = static_cast<const LiteralExpr&>(expr);
        return CompiledExprPtr(std::make_unique<ConstNode>(e.value));
      }
      case ExprKind::kColumnRef: {
        const auto& e = static_cast<const ColumnRef&>(expr);
        QSERV_ASSIGN_OR_RETURN(ColumnSlot slot, resolveColumn(e, scope_));
        return CompiledExprPtr(
            std::make_unique<ColumnNode>(slot.tableIdx, slot.columnIdx));
      }
      case ExprKind::kStar:
        return Status::invalidArgument(
            "'*' is only valid in a select list or COUNT(*)");
      case ExprKind::kUnary: {
        const auto& e = static_cast<const UnaryExpr&>(expr);
        QSERV_ASSIGN_OR_RETURN(auto operand, bind(*e.operand));
        return CompiledExprPtr(
            std::make_unique<UnaryNode>(e.op, std::move(operand)));
      }
      case ExprKind::kBinary: {
        const auto& e = static_cast<const BinaryExpr&>(expr);
        QSERV_ASSIGN_OR_RETURN(auto lhs, bind(*e.lhs));
        QSERV_ASSIGN_OR_RETURN(auto rhs, bind(*e.rhs));
        return CompiledExprPtr(std::make_unique<BinaryNode>(
            e.op, std::move(lhs), std::move(rhs)));
      }
      case ExprKind::kFuncCall: {
        const auto& e = static_cast<const FuncCall&>(expr);
        if (e.isAggregate()) {
          return Status::invalidArgument(util::format(
              "aggregate %s() not allowed in this context", e.name.c_str()));
        }
        const FunctionDef* def = registry_.find(e.name);
        if (def == nullptr) {
          return Status::notFound(
              util::format("unknown function %s()", e.name.c_str()));
        }
        if (def->arity >= 0 &&
            def->arity != static_cast<int>(e.args.size())) {
          return Status::invalidArgument(util::format(
              "%s() expects %d arguments, got %zu", e.name.c_str(),
              def->arity, e.args.size()));
        }
        std::vector<CompiledExprPtr> args;
        args.reserve(e.args.size());
        for (const auto& a : e.args) {
          QSERV_ASSIGN_OR_RETURN(auto bound, bind(*a));
          args.push_back(std::move(bound));
        }
        return CompiledExprPtr(
            std::make_unique<FuncNode>(def, std::move(args)));
      }
      case ExprKind::kBetween: {
        const auto& e = static_cast<const BetweenExpr&>(expr);
        QSERV_ASSIGN_OR_RETURN(auto v, bind(*e.expr));
        QSERV_ASSIGN_OR_RETURN(auto lo, bind(*e.lo));
        QSERV_ASSIGN_OR_RETURN(auto hi, bind(*e.hi));
        return CompiledExprPtr(std::make_unique<BetweenNode>(
            std::move(v), std::move(lo), std::move(hi), e.negated));
      }
      case ExprKind::kIn: {
        const auto& e = static_cast<const InExpr&>(expr);
        QSERV_ASSIGN_OR_RETURN(auto v, bind(*e.expr));
        std::vector<CompiledExprPtr> list;
        list.reserve(e.list.size());
        for (const auto& item : e.list) {
          QSERV_ASSIGN_OR_RETURN(auto bound, bind(*item));
          list.push_back(std::move(bound));
        }
        return CompiledExprPtr(std::make_unique<InNode>(
            std::move(v), std::move(list), e.negated));
      }
      case ExprKind::kIsNull: {
        const auto& e = static_cast<const IsNullExpr&>(expr);
        QSERV_ASSIGN_OR_RETURN(auto v, bind(*e.expr));
        return CompiledExprPtr(
            std::make_unique<IsNullNode>(std::move(v), e.negated));
      }
      case ExprKind::kSlotRef: {
        const auto& e = static_cast<const SlotRefExpr&>(expr);
        return CompiledExprPtr(std::make_unique<SlotRefNode>(e.slot));
      }
    }
    return Status::internal("unhandled expression kind");
  }

 private:
  std::span<const ScopeTable> scope_;
  const FunctionRegistry& registry_;
};

}  // namespace

Result<ColumnSlot> resolveColumn(const ColumnRef& ref,
                                 std::span<const ScopeTable> scope) {
  std::optional<ColumnSlot> found;
  for (std::size_t t = 0; t < scope.size(); ++t) {
    if (!ref.qualifier.empty() &&
        !util::iequals(ref.qualifier, scope[t].bindingName)) {
      continue;
    }
    auto col = scope[t].table->schema().indexOf(ref.column);
    if (!col) continue;
    if (found) {
      return Status::invalidArgument(
          util::format("ambiguous column reference %s", ref.toSql().c_str()));
    }
    found = ColumnSlot{t, *col};
  }
  if (!found) {
    return Status::notFound(
        util::format("unknown column %s", ref.toSql().c_str()));
  }
  return *found;
}

Result<CompiledExprPtr> bindExpr(const Expr& expr,
                                 std::span<const ScopeTable> scope,
                                 const FunctionRegistry& registry) {
  Binder b(scope, registry);
  return b.bind(expr);
}

Result<Value> evalConstExpr(const Expr& expr,
                            const FunctionRegistry& registry) {
  QSERV_ASSIGN_OR_RETURN(auto compiled, bindExpr(expr, {}, registry));
  EvalCtx ctx{{}, {}, {}};
  return compiled->eval(ctx);
}

Status collectReferencedTables(const Expr& expr,
                               std::span<const ScopeTable> scope,
                               std::vector<bool>& used) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef: {
      QSERV_ASSIGN_OR_RETURN(
          ColumnSlot slot,
          resolveColumn(static_cast<const ColumnRef&>(expr), scope));
      used[slot.tableIdx] = true;
      return Status::ok();
    }
    case ExprKind::kUnary:
      return collectReferencedTables(
          *static_cast<const UnaryExpr&>(expr).operand, scope, used);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      QSERV_RETURN_IF_ERROR(collectReferencedTables(*b.lhs, scope, used));
      return collectReferencedTables(*b.rhs, scope, used);
    }
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCall&>(expr);
      for (const auto& a : f.args) {
        if (a->kind() == ExprKind::kStar) continue;
        QSERV_RETURN_IF_ERROR(collectReferencedTables(*a, scope, used));
      }
      return Status::ok();
    }
    case ExprKind::kBetween: {
      const auto& b = static_cast<const BetweenExpr&>(expr);
      QSERV_RETURN_IF_ERROR(collectReferencedTables(*b.expr, scope, used));
      QSERV_RETURN_IF_ERROR(collectReferencedTables(*b.lo, scope, used));
      return collectReferencedTables(*b.hi, scope, used);
    }
    case ExprKind::kIn: {
      const auto& i = static_cast<const InExpr&>(expr);
      QSERV_RETURN_IF_ERROR(collectReferencedTables(*i.expr, scope, used));
      for (const auto& e : i.list) {
        QSERV_RETURN_IF_ERROR(collectReferencedTables(*e, scope, used));
      }
      return Status::ok();
    }
    case ExprKind::kIsNull:
      return collectReferencedTables(
          *static_cast<const IsNullExpr&>(expr).expr, scope, used);
    default:
      return Status::ok();
  }
}

bool isConstExpr(const Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef:
    case ExprKind::kStar:
      return false;
    case ExprKind::kUnary:
      return isConstExpr(*static_cast<const UnaryExpr&>(expr).operand);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return isConstExpr(*b.lhs) && isConstExpr(*b.rhs);
    }
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCall&>(expr);
      for (const auto& a : f.args) {
        if (!isConstExpr(*a)) return false;
      }
      return true;
    }
    case ExprKind::kBetween: {
      const auto& b = static_cast<const BetweenExpr&>(expr);
      return isConstExpr(*b.expr) && isConstExpr(*b.lo) && isConstExpr(*b.hi);
    }
    case ExprKind::kIn: {
      const auto& i = static_cast<const InExpr&>(expr);
      if (!isConstExpr(*i.expr)) return false;
      for (const auto& e : i.list) {
        if (!isConstExpr(*e)) return false;
      }
      return true;
    }
    case ExprKind::kIsNull:
      return isConstExpr(*static_cast<const IsNullExpr&>(expr).expr);
    default:
      return true;
  }
}

}  // namespace qserv::sql
