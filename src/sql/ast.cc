#include "sql/ast.h"

#include <sstream>

namespace ironsafe::sql {

std::string_view BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "<>";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "AND";
    case BinOp::kOr: return "OR";
    case BinOp::kConcat: return "||";
  }
  return "?";
}

std::string_view AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar:
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kSum: return "SUM";
    case AggFunc::kAvg: return "AVG";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
  }
  return "?";
}

ExprPtr Expr::MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::MakeColumn(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumn;
  e->column_name = std::move(name);
  return e;
}

ExprPtr Expr::MakeBinary(BinOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->bin_op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

ExprPtr Expr::MakeUnary(UnOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->un_op = op;
  e->left = std::move(operand);
  return e;
}

ExprPtr Expr::MakeFunction(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunction;
  e->func_name = std::move(name);
  e->args = std::move(args);
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->column_name = column_name;
  e->un_op = un_op;
  e->bin_op = bin_op;
  if (left) e->left = left->Clone();
  if (right) e->right = right->Clone();
  e->func_name = func_name;
  for (const auto& a : args) e->args.push_back(a->Clone());
  e->agg_func = agg_func;
  e->distinct = distinct;
  e->negated = negated;
  for (const auto& [w, t] : when_clauses) {
    e->when_clauses.emplace_back(w->Clone(), t->Clone());
  }
  if (else_expr) e->else_expr = else_expr->Clone();
  if (subquery) e->subquery = subquery->Clone();
  return e;
}

std::string Expr::ToString() const {
  std::ostringstream os;
  switch (kind) {
    case ExprKind::kLiteral:
      os << literal.ToString();
      break;
    case ExprKind::kColumn:
      os << column_name;
      break;
    case ExprKind::kStar:
      os << "*";
      break;
    case ExprKind::kUnary:
      os << (un_op == UnOp::kNeg ? "-" : "NOT ") << "(" << left->ToString()
         << ")";
      break;
    case ExprKind::kBinary:
      os << "(" << left->ToString() << " " << BinOpName(bin_op) << " "
         << right->ToString() << ")";
      break;
    case ExprKind::kFunction: {
      os << func_name << "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i) os << ", ";
        os << args[i]->ToString();
      }
      os << ")";
      break;
    }
    case ExprKind::kAggregate:
      os << AggFuncName(agg_func) << "(";
      if (distinct) os << "DISTINCT ";
      os << (agg_func == AggFunc::kCountStar ? "*" : args[0]->ToString())
         << ")";
      break;
    case ExprKind::kCase: {
      os << "CASE";
      for (const auto& [w, t] : when_clauses) {
        os << " WHEN " << w->ToString() << " THEN " << t->ToString();
      }
      if (else_expr) os << " ELSE " << else_expr->ToString();
      os << " END";
      break;
    }
    case ExprKind::kInList: {
      os << left->ToString() << (negated ? " NOT IN (" : " IN (");
      for (size_t i = 0; i < args.size(); ++i) {
        if (i) os << ", ";
        os << args[i]->ToString();
      }
      os << ")";
      break;
    }
    case ExprKind::kInSubquery:
      os << left->ToString() << (negated ? " NOT IN (" : " IN (")
         << subquery->ToString() << ")";
      break;
    case ExprKind::kExists:
      os << (negated ? "NOT EXISTS (" : "EXISTS (") << subquery->ToString()
         << ")";
      break;
    case ExprKind::kScalarSubquery:
      os << "(" << subquery->ToString() << ")";
      break;
    case ExprKind::kBetween:
      os << left->ToString() << " BETWEEN " << args[0]->ToString() << " AND "
         << args[1]->ToString();
      break;
    case ExprKind::kLike:
      os << left->ToString() << (negated ? " NOT LIKE " : " LIKE ")
         << args[0]->ToString();
      break;
    case ExprKind::kIsNull:
      os << left->ToString() << (negated ? " IS NOT NULL" : " IS NULL");
      break;
  }
  return os.str();
}

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

bool ExprHasSubquery(const Expr* e) {
  if (e == nullptr) return false;
  if (e->subquery) return true;
  if (ExprHasSubquery(e->left.get()) || ExprHasSubquery(e->right.get())) {
    return true;
  }
  for (const auto& a : e->args) {
    if (ExprHasSubquery(a.get())) return true;
  }
  for (const auto& [w, t] : e->when_clauses) {
    if (ExprHasSubquery(w.get()) || ExprHasSubquery(t.get())) return true;
  }
  return ExprHasSubquery(e->else_expr.get());
}

bool SelectHasSubquery(const SelectStmt& stmt) {
  for (const TableRef& ref : stmt.from) {
    if (ref.subquery) return true;
  }
  for (const JoinClause& join : stmt.joins) {
    if (join.table.subquery || ExprHasSubquery(join.on.get())) return true;
  }
  if (ExprHasSubquery(stmt.where.get()) || ExprHasSubquery(stmt.having.get())) {
    return true;
  }
  for (const SelectItem& item : stmt.items) {
    if (ExprHasSubquery(item.expr.get())) return true;
  }
  for (const ExprPtr& g : stmt.group_by) {
    if (ExprHasSubquery(g.get())) return true;
  }
  for (const OrderItem& o : stmt.order_by) {
    if (ExprHasSubquery(o.expr.get())) return true;
  }
  return false;
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

std::vector<const Expr*> ClaimScanFilters(const Schema& schema,
                                          std::vector<ConjunctInfo>* conjuncts) {
  std::vector<const Expr*> filters;
  for (ConjunctInfo& info : *conjuncts) {
    if (info.consumed || info.has_subquery) continue;
    if (!info.columns.empty() && ResolvableBy(info.columns, schema)) {
      filters.push_back(info.expr);
      info.consumed = true;
    }
  }
  return filters;
}

std::vector<const Expr*> UnclaimedConjuncts(
    const std::vector<ConjunctInfo>& conjuncts) {
  std::vector<const Expr*> residual;
  for (const ConjunctInfo& info : conjuncts) {
    if (!info.consumed) residual.push_back(info.expr);
  }
  return residual;
}

TableRef TableRef::Clone() const {
  TableRef ref(table_name, alias);
  if (subquery) ref.subquery = subquery->Clone();
  return ref;
}

std::unique_ptr<SelectStmt> SelectStmt::Clone() const {
  auto s = std::make_unique<SelectStmt>();
  s->distinct = distinct;
  for (const auto& item : items) {
    s->items.push_back(SelectItem{item.expr->Clone(), item.alias});
  }
  for (const auto& t : from) s->from.push_back(t.Clone());
  for (const auto& j : joins) {
    s->joins.push_back(JoinClause{j.table.Clone(), j.on->Clone()});
  }
  if (where) s->where = where->Clone();
  for (const auto& g : group_by) s->group_by.push_back(g->Clone());
  if (having) s->having = having->Clone();
  for (const auto& o : order_by) {
    s->order_by.push_back(OrderItem{o.expr->Clone(), o.desc});
  }
  s->limit = limit;
  return s;
}

std::string SelectStmt::ToString() const {
  std::ostringstream os;
  os << "SELECT ";
  if (distinct) os << "DISTINCT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) os << ", ";
    os << items[i].expr->ToString();
    if (!items[i].alias.empty()) os << " AS " << items[i].alias;
  }
  os << " FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i) os << ", ";
    if (from[i].subquery) {
      os << "(" << from[i].subquery->ToString() << ") " << from[i].alias;
    } else {
      os << from[i].table_name;
      if (!from[i].alias.empty() && from[i].alias != from[i].table_name) {
        os << " " << from[i].alias;
      }
    }
  }
  for (const auto& j : joins) {
    os << " JOIN " << j.table.table_name;
    if (!j.table.alias.empty() && j.table.alias != j.table.table_name) {
      os << " " << j.table.alias;
    }
    os << " ON " << j.on->ToString();
  }
  if (where) os << " WHERE " << where->ToString();
  if (!group_by.empty()) {
    os << " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i) os << ", ";
      os << group_by[i]->ToString();
    }
  }
  if (having) os << " HAVING " << having->ToString();
  if (!order_by.empty()) {
    os << " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i) os << ", ";
      os << order_by[i].expr->ToString();
      if (order_by[i].desc) os << " DESC";
    }
  }
  if (limit >= 0) os << " LIMIT " << limit;
  return os.str();
}

}  // namespace ironsafe::sql
