#include "sql/exec_internal.h"

#include "common/thread_pool.h"
#include "sql/vector_kernels.h"

namespace ironsafe::sql::exec {

void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->bin_op == BinOp::kAnd) {
    SplitConjuncts(e->left.get(), out);
    SplitConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

void CollectColumns(const Expr& e, std::set<std::string>* cols,
                    bool* has_subquery) {
  switch (e.kind) {
    case ExprKind::kColumn:
      cols->insert(e.column_name);
      return;
    case ExprKind::kScalarSubquery:
    case ExprKind::kExists:
    case ExprKind::kInSubquery:
      *has_subquery = true;
      if (e.left) CollectColumns(*e.left, cols, has_subquery);
      return;
    default:
      break;
  }
  if (e.left) CollectColumns(*e.left, cols, has_subquery);
  if (e.right) CollectColumns(*e.right, cols, has_subquery);
  for (const auto& a : e.args) CollectColumns(*a, cols, has_subquery);
  for (const auto& [w, t] : e.when_clauses) {
    CollectColumns(*w, cols, has_subquery);
    CollectColumns(*t, cols, has_subquery);
  }
  if (e.else_expr) CollectColumns(*e.else_expr, cols, has_subquery);
}

bool ResolvableBy(const std::set<std::string>& cols, const Schema& schema) {
  // Find() returns -1 when absent; -2 (ambiguous) still counts as present.
  for (const std::string& c : cols) {
    if (schema.Find(c) == -1) return false;
  }
  return true;
}

std::vector<ConjunctInfo> AnalyzeConjuncts(const Expr* where) {
  std::vector<const Expr*> parts;
  SplitConjuncts(where, &parts);
  std::vector<ConjunctInfo> infos;
  for (const Expr* e : parts) {
    ConjunctInfo info;
    info.expr = e;
    CollectColumns(*e, &info.columns, &info.has_subquery);
    infos.push_back(std::move(info));
  }
  return infos;
}

bool HasAggregate(const Expr& e) {
  if (e.kind == ExprKind::kAggregate) return true;
  if (e.left && HasAggregate(*e.left)) return true;
  if (e.right && HasAggregate(*e.right)) return true;
  for (const auto& a : e.args) {
    if (HasAggregate(*a)) return true;
  }
  for (const auto& [w, t] : e.when_clauses) {
    if (HasAggregate(*w) || HasAggregate(*t)) return true;
  }
  if (e.else_expr && HasAggregate(*e.else_expr)) return true;
  return false;  // subquery bodies have their own aggregation contexts
}

void CollectAggregates(const Expr& e,
                       std::map<std::string, const Expr*>* aggs) {
  if (e.kind == ExprKind::kAggregate) {
    aggs->emplace(e.ToString(), &e);
    return;
  }
  if (e.left) CollectAggregates(*e.left, aggs);
  if (e.right) CollectAggregates(*e.right, aggs);
  for (const auto& a : e.args) CollectAggregates(*a, aggs);
  for (const auto& [w, t] : e.when_clauses) {
    CollectAggregates(*w, aggs);
    CollectAggregates(*t, aggs);
  }
  if (e.else_expr) CollectAggregates(*e.else_expr, aggs);
}

ExprPtr RewriteToColumns(const Expr& e, const std::set<std::string>& names) {
  std::string printed = e.ToString();
  if (names.count(printed)) return Expr::MakeColumn(printed);
  ExprPtr c = e.Clone();
  if (c->left) c->left = RewriteToColumns(*e.left, names);
  if (c->right) c->right = RewriteToColumns(*e.right, names);
  for (size_t i = 0; i < c->args.size(); ++i) {
    c->args[i] = RewriteToColumns(*e.args[i], names);
  }
  for (size_t i = 0; i < c->when_clauses.size(); ++i) {
    c->when_clauses[i].first =
        RewriteToColumns(*e.when_clauses[i].first, names);
    c->when_clauses[i].second =
        RewriteToColumns(*e.when_clauses[i].second, names);
  }
  if (c->else_expr) c->else_expr = RewriteToColumns(*e.else_expr, names);
  return c;
}

Type InferType(const Expr& e, const Schema& schema) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal.type();
    case ExprKind::kColumn: {
      int idx = schema.Find(e.column_name);
      return idx >= 0 ? schema.column(idx).type : Type::kNull;
    }
    case ExprKind::kUnary:
      return e.un_op == UnOp::kNot ? Type::kBool : InferType(*e.left, schema);
    case ExprKind::kBinary:
      switch (e.bin_op) {
        case BinOp::kEq: case BinOp::kNe: case BinOp::kLt: case BinOp::kLe:
        case BinOp::kGt: case BinOp::kGe: case BinOp::kAnd: case BinOp::kOr:
          return Type::kBool;
        case BinOp::kConcat:
          return Type::kString;
        case BinOp::kDiv:
          return Type::kDouble;
        default: {
          Type l = InferType(*e.left, schema);
          Type r = InferType(*e.right, schema);
          if (l == Type::kDate || r == Type::kDate) {
            return e.bin_op == BinOp::kSub && l == Type::kDate &&
                           r == Type::kDate
                       ? Type::kInt64
                       : Type::kDate;
          }
          if (l == Type::kDouble || r == Type::kDouble) return Type::kDouble;
          return Type::kInt64;
        }
      }
    case ExprKind::kAggregate:
      switch (e.agg_func) {
        case AggFunc::kCount:
        case AggFunc::kCountStar:
          return Type::kInt64;
        case AggFunc::kAvg:
          return Type::kDouble;
        case AggFunc::kSum: {
          Type t = InferType(*e.args[0], schema);
          return t == Type::kInt64 ? Type::kInt64 : Type::kDouble;
        }
        case AggFunc::kMin:
        case AggFunc::kMax:
          return InferType(*e.args[0], schema);
      }
      return Type::kNull;
    case ExprKind::kFunction: {
      const std::string& f = e.func_name;
      if (f == "year" || f == "month" || f == "day" || f == "length") {
        return Type::kInt64;
      }
      if (f == "date_add") return Type::kDate;
      if (f == "substr" || f == "substring" || f == "upper" || f == "lower") {
        return Type::kString;
      }
      if (f == "round" || f == "abs") return InferType(*e.args[0], schema);
      if (f == "coalesce" && !e.args.empty()) {
        return InferType(*e.args[0], schema);
      }
      return Type::kNull;
    }
    case ExprKind::kCase:
      if (!e.when_clauses.empty()) {
        return InferType(*e.when_clauses[0].second, schema);
      }
      return Type::kNull;
    case ExprKind::kScalarSubquery:
      return Type::kDouble;  // unknown without executing; numeric is common
    default:
      return Type::kBool;  // predicates
  }
}

Bytes KeyOf(const std::vector<Value>& values) {
  Bytes key;
  for (const Value& v : values) {
    // Normalize numerics so INT 3 and DOUBLE 3.0 group/join together.
    if (v.IsNumeric() && v.type() != Type::kDate) {
      vec::AppendKeyF64(&key, v.AsDouble());
    } else {
      v.Serialize(&key);
    }
  }
  return key;
}

Result<QueryResult> ExecuteSelectWithoutFrom(Database* db,
                                             const SelectStmt& stmt,
                                             const EvalScope* outer,
                                             sim::CostModel* cost,
                                             const ExecOptions& opts) {
  ExecSubqueryRunner runner(db, cost, opts);
  Evaluator eval(&runner);
  QueryResult result;
  EvalScope scope{nullptr, nullptr, outer};
  Row row;
  for (const SelectItem& item : stmt.items) {
    ASSIGN_OR_RETURN(Value v, eval.Eval(*item.expr, scope));
    result.schema.AddColumn(Column{
        item.alias.empty() ? item.expr->ToString() : item.alias, v.type()});
    row.push_back(std::move(v));
  }
  result.rows.push_back(std::move(row));
  return result;
}

int PlanWorkers(const Ctx& ctx, uint64_t work, uint64_t min_per_worker) {
  int workers = common::ThreadPool::EffectiveWorkers(ctx.opts.parallelism);
  if (min_per_worker > 0) {
    uint64_t fit = std::max<uint64_t>(1, work / min_per_worker);
    workers = static_cast<int>(
        std::min<uint64_t>(static_cast<uint64_t>(workers), fit));
  }
  return std::max(1, workers);
}

}  // namespace ironsafe::sql::exec
