#include "qserv/query_rewriter.h"

#include <algorithm>

#include "util/strings.h"

namespace qserv::core {

namespace {

using sql::BinaryExpr;
using sql::BinOp;
using sql::ColumnRef;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::FuncCall;
using sql::LiteralExpr;
using sql::SelectItem;
using sql::SelectStmt;
using sql::TableRef;
using sql::Value;
using util::Result;
using util::Status;

ExprPtr makeColumn(const std::string& name) {
  return std::make_unique<ColumnRef>("", name);
}

ExprPtr makeAggCall(const char* name, ExprPtr arg) {
  std::vector<ExprPtr> args;
  args.push_back(std::move(arg));
  return std::make_unique<FuncCall>(name, std::move(args));
}

/// Rewrites aggregate calls inside one select-item expression.
/// For each aggregate encountered, appends chunk-side partial items to
/// \p chunkItems and returns the merge-side expression.
class AggregateSplitter {
 public:
  explicit AggregateSplitter(std::vector<SelectItem>& chunkItems)
      : chunkItems_(chunkItems) {}

  Result<ExprPtr> split(const Expr& expr) {
    switch (expr.kind()) {
      case ExprKind::kFuncCall: {
        const auto& f = static_cast<const FuncCall&>(expr);
        if (f.isAggregate()) return splitAggregate(f);
        std::vector<ExprPtr> args;
        for (const auto& a : f.args) {
          QSERV_ASSIGN_OR_RETURN(auto s, split(*a));
          args.push_back(std::move(s));
        }
        return ExprPtr(std::make_unique<FuncCall>(f.name, std::move(args)));
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const sql::UnaryExpr&>(expr);
        QSERV_ASSIGN_OR_RETURN(auto s, split(*u.operand));
        return ExprPtr(std::make_unique<sql::UnaryExpr>(u.op, std::move(s)));
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(expr);
        QSERV_ASSIGN_OR_RETURN(auto l, split(*b.lhs));
        QSERV_ASSIGN_OR_RETURN(auto r, split(*b.rhs));
        return ExprPtr(std::make_unique<BinaryExpr>(b.op, std::move(l),
                                                    std::move(r)));
      }
      case ExprKind::kBetween: {
        const auto& b = static_cast<const sql::BetweenExpr&>(expr);
        QSERV_ASSIGN_OR_RETURN(auto e, split(*b.expr));
        QSERV_ASSIGN_OR_RETURN(auto lo, split(*b.lo));
        QSERV_ASSIGN_OR_RETURN(auto hi, split(*b.hi));
        return ExprPtr(std::make_unique<sql::BetweenExpr>(
            std::move(e), std::move(lo), std::move(hi), b.negated));
      }
      case ExprKind::kIn: {
        const auto& i = static_cast<const sql::InExpr&>(expr);
        QSERV_ASSIGN_OR_RETURN(auto e, split(*i.expr));
        std::vector<ExprPtr> list;
        for (const auto& x : i.list) {
          QSERV_ASSIGN_OR_RETURN(auto s, split(*x));
          list.push_back(std::move(s));
        }
        return ExprPtr(std::make_unique<sql::InExpr>(std::move(e),
                                                     std::move(list),
                                                     i.negated));
      }
      case ExprKind::kIsNull: {
        const auto& n = static_cast<const sql::IsNullExpr&>(expr);
        QSERV_ASSIGN_OR_RETURN(auto e, split(*n.expr));
        return ExprPtr(std::make_unique<sql::IsNullExpr>(std::move(e),
                                                         n.negated));
      }
      default:
        return expr.clone();
    }
  }

 private:
  Result<ExprPtr> splitAggregate(const FuncCall& f) {
    if (f.args.size() != 1) {
      return Status::invalidArgument(
          util::format("%s() takes exactly one argument", f.name.c_str()));
    }
    const Expr& arg = *f.args[0];
    if (arg.kind() != ExprKind::kStar && exprHasAggregate(arg)) {
      return Status::invalidArgument("nested aggregate functions");
    }
    int k = next_++;
    std::string base = util::format("QS%d_", k);
    auto addChunkItem = [&](const char* agg, const std::string& name) {
      SelectItem item;
      item.expr = makeAggCall(agg, f.args[0]->clone());
      item.alias = name;
      chunkItems_.push_back(std::move(item));
    };
    if (util::iequals(f.name, "COUNT")) {
      addChunkItem("COUNT", base + "COUNT");
      return ExprPtr(makeAggCall("SUM", makeColumn(base + "COUNT")));
    }
    if (util::iequals(f.name, "SUM")) {
      addChunkItem("SUM", base + "SUM");
      return ExprPtr(makeAggCall("SUM", makeColumn(base + "SUM")));
    }
    if (util::iequals(f.name, "AVG")) {
      // The paper's worked example: AVG -> SUM + COUNT per chunk, then
      // SUM(`SUM(..)`) / SUM(`COUNT(..)`) at the merge.
      addChunkItem("SUM", base + "SUM");
      addChunkItem("COUNT", base + "COUNT");
      return ExprPtr(std::make_unique<BinaryExpr>(
          BinOp::kDiv, makeAggCall("SUM", makeColumn(base + "SUM")),
          makeAggCall("SUM", makeColumn(base + "COUNT"))));
    }
    if (util::iequals(f.name, "MIN")) {
      addChunkItem("MIN", base + "MIN");
      return ExprPtr(makeAggCall("MIN", makeColumn(base + "MIN")));
    }
    // MAX
    addChunkItem("MAX", base + "MAX");
    return ExprPtr(makeAggCall("MAX", makeColumn(base + "MAX")));
  }

  std::vector<SelectItem>& chunkItems_;
  int next_ = 0;
};

/// Output name of a select item (alias, or serialized expression).
std::string outName(const SelectItem& item) {
  return item.alias.empty() ? item.expr->toSql() : item.alias;
}

}  // namespace

Result<RewriteResult> QueryRewriter::rewrite(
    const AnalyzedQuery& analyzed, std::span<const std::int32_t> chunks,
    const std::string& mergeTableName) const {
  RewriteResult out;
  const SelectStmt& src = analyzed.stmt;

  // -------------------------------------------------------- select lists
  // Build the chunk-side select list and the merge-side select list.
  std::vector<SelectItem> chunkItems;
  std::vector<SelectItem> mergeItems;
  std::vector<std::string> passthroughNames;  // chunk output column names
  out.merge.hasAggregation = analyzed.hasAggregates;

  if (analyzed.hasAggregates && src.distinct) {
    return Status::unimplemented("SELECT DISTINCT with aggregates");
  }
  ExprPtr mergeHaving;
  if (analyzed.hasAggregates) {
    AggregateSplitter splitter(chunkItems);
    for (const auto& item : src.items) {
      if (item.expr->kind() == ExprKind::kStar) {
        return Status::invalidArgument("'*' cannot be mixed with aggregates");
      }
      if (exprHasAggregate(*item.expr)) {
        SelectItem mergeItem;
        QSERV_ASSIGN_OR_RETURN(mergeItem.expr, splitter.split(*item.expr));
        mergeItem.alias = outName(item);
        mergeItems.push_back(std::move(mergeItem));
      } else {
        // Group-key passthrough: ship the value per chunk, re-select at
        // the merge.
        SelectItem chunkItem = item.clone();
        std::string name = outName(item);
        chunkItem.alias = name;
        chunkItems.push_back(std::move(chunkItem));
        passthroughNames.push_back(name);
        SelectItem mergeItem;
        mergeItem.expr = makeColumn(name);
        mergeItem.alias = name;
        mergeItems.push_back(std::move(mergeItem));
      }
    }
    // HAVING filters only complete (merged) groups: chunk queries ship the
    // partials its aggregates need; the merge applies the predicate.
    if (src.having) {
      QSERV_ASSIGN_OR_RETURN(mergeHaving, splitter.split(*src.having));
    }
  } else {
    for (const auto& item : src.items) chunkItems.push_back(item.clone());
  }

  // -------------------------------------------------------- chunk template
  SelectStmt chunkTemplate;
  // Chunk-local dedup shrinks transfers; the merge re-dedups the union.
  chunkTemplate.distinct = src.distinct;
  chunkTemplate.items = std::move(chunkItems);
  chunkTemplate.from = src.from;  // table names substituted per chunk
  if (src.where) chunkTemplate.where = src.where->clone();

  // Explicit area restriction -> worker UDF conjunct on the director table.
  // (Implicit restrictions derived from BETWEEN predicates only prune the
  // chunk cover; their original predicates remain in the WHERE.)
  if (analyzed.areaRestriction && !analyzed.areaRestrictionIsImplicit) {
    const AnalyzedQuery::FromTable* director = nullptr;
    for (const auto& t : analyzed.from) {
      if (t.partitioned != nullptr) {
        director = &t;
        break;
      }
    }
    if (director == nullptr) {
      return Status::invalidArgument(
          "qserv_areaspec_box on a query without partitioned tables");
    }
    const auto& box = *analyzed.areaRestriction;
    std::vector<ExprPtr> args;
    args.push_back(std::make_unique<ColumnRef>(director->ref.bindingName(),
                                               director->partitioned->raColumn));
    args.push_back(std::make_unique<ColumnRef>(
        director->ref.bindingName(), director->partitioned->declColumn));
    for (double v : {box.lonMin(), box.latMin(),
                     box.isFullLon() ? 360.0 : box.lonMax(), box.latMax()}) {
      args.push_back(std::make_unique<LiteralExpr>(Value(v)));
    }
    ExprPtr conjunct = std::make_unique<BinaryExpr>(
        BinOp::kEq,
        std::make_unique<FuncCall>("qserv_ptInSphericalBox", std::move(args)),
        std::make_unique<LiteralExpr>(Value(1)));
    if (chunkTemplate.where) {
      chunkTemplate.where = std::make_unique<BinaryExpr>(
          BinOp::kAnd, std::move(chunkTemplate.where), std::move(conjunct));
    } else {
      chunkTemplate.where = std::move(conjunct);
    }
  }

  // Chunk-side GROUP BY mirrors the user's.
  for (const auto& g : src.groupBy) chunkTemplate.groupBy.push_back(g->clone());
  // Chunk-side top-k when a LIMIT is present on a plain row query (valid
  // with or without ORDER BY; the merge re-sorts / re-limits). Aggregating
  // queries must ship every group, and their ORDER BY may reference
  // merge-side aliases, so they take no chunk-side limit.
  if (src.limit && !analyzed.hasAggregates) {
    chunkTemplate.limit = src.limit;
    for (const auto& ob : src.orderBy) {
      chunkTemplate.orderBy.push_back(ob.clone());
    }
  }

  // Give every partitioned table an explicit alias equal to its original
  // binding name, so qualified column references keep resolving once the
  // worker binds the entry to its chunk table; the entry itself names the
  // catalog's base table and is marked for binding.
  for (std::size_t i = 0; i < chunkTemplate.from.size(); ++i) {
    const PartitionedTable* table = analyzed.from[i].partitioned;
    if (table == nullptr) continue;
    TableRef& ref = chunkTemplate.from[i];
    if (ref.alias.empty()) ref.alias = ref.table;
    ref.table = table->name;
    TableBindingKind kind = TableBindingKind::kChunk;
    if (analyzed.isNearNeighbor) {
      // o1 reads the subchunk, o2 its full-overlap companion (§5.4).
      kind = i == 0 ? TableBindingKind::kSubChunk
                    : TableBindingKind::kFullOverlap;
    }
    out.chunkTemplate.bindings.push_back(
        TableBinding{static_cast<std::uint16_t>(i), kind});
  }
  out.chunkTemplate.sql = chunkTemplate.toSql();
  out.chunkTemplate.aggregate = analyzed.hasAggregates;

  // ------------------------------------------------------------ per chunk
  out.chunkQueries.reserve(chunks.size());
  for (std::int32_t chunkId : chunks) {
    ChunkQuerySpec spec;
    spec.chunkId = chunkId;
    if (analyzed.isNearNeighbor) {
      // Subchunks to visit: all of the chunk's, pruned by the area
      // restriction when present (only o1's subchunk needs to intersect).
      spec.subChunkIds =
          analyzed.areaRestriction
              ? chunker_.subChunksIntersecting(chunkId,
                                               *analyzed.areaRestriction)
              : chunker_.subChunksOf(chunkId);
      if (spec.subChunkIds.empty()) continue;
    }
    out.chunkQueries.push_back(std::move(spec));
  }

  // ------------------------------------------------------------ merge plan
  SelectStmt mergeSelect;
  if (analyzed.hasAggregates) {
    mergeSelect.items = std::move(mergeItems);
    mergeSelect.from.push_back(TableRef{"", mergeTableName, ""});
    // Re-group on the passthrough columns (chunk-level groups collapse into
    // global groups).
    for (const auto& name : passthroughNames) {
      mergeSelect.groupBy.push_back(makeColumn(name));
    }
    if (!src.groupBy.empty() && passthroughNames.empty()) {
      return Status::unimplemented(
          "GROUP BY keys must appear in the select list");
    }
    mergeSelect.having = std::move(mergeHaving);
  } else {
    mergeSelect.distinct = src.distinct;
    SelectItem star;
    star.expr = std::make_unique<sql::StarExpr>();
    mergeSelect.items.push_back(std::move(star));
    mergeSelect.from.push_back(TableRef{"", mergeTableName, ""});
  }
  // ORDER BY: resolve against output column names.
  for (const auto& ob : src.orderBy) {
    std::string want = ob.expr->toSql();
    bool matched = false;
    for (const auto& item : src.items) {
      if (item.expr->kind() == ExprKind::kStar) continue;
      if (util::iequals(want, item.alias) ||
          util::iequals(want, item.expr->toSql())) {
        matched = true;
        break;
      }
    }
    // Plain column names also pass through un-aliased in SELECT *.
    if (!matched && !analyzed.hasAggregates &&
        ob.expr->kind() == ExprKind::kColumnRef) {
      matched = true;
    }
    if (!matched) {
      return Status::unimplemented(util::format(
          "ORDER BY expression %s must appear in the select list",
          want.c_str()));
    }
    sql::OrderByItem item;
    item.expr = ob.expr->kind() == ExprKind::kColumnRef
                    ? std::make_unique<ColumnRef>(
                          "", static_cast<const ColumnRef&>(*ob.expr).column)
                    : makeColumn(want);
    item.descending = ob.descending;
    mergeSelect.orderBy.push_back(std::move(item));
  }
  mergeSelect.limit = src.limit;
  out.merge.finalSelectSql = mergeSelect.toSql();
  out.merge.identity = !analyzed.hasAggregates && !mergeSelect.distinct &&
                       mergeSelect.orderBy.empty() && !mergeSelect.limit;
  return out;
}

}  // namespace qserv::core
