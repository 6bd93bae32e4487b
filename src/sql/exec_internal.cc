#include "sql/exec_internal.h"

#include "common/thread_pool.h"
#include "sql/vector_eval.h"

namespace ironsafe::sql::exec {

namespace {

void CollectAggregates(const Expr& e,
                       std::map<std::string, const Expr*>* aggs) {
  if (e.kind == ExprKind::kAggregate) {
    aggs->emplace(e.ToString(), &e);
    return;
  }
  ForEachChild(e, [&](const Expr& c) { CollectAggregates(c, aggs); });
}

/// Replaces, in place, every subtree of `*e` whose printed form is in
/// `names` with a column reference of that name (the post-aggregation
/// schema names its columns by printed expression).
void ReplaceWithColumns(ExprPtr* e, const std::set<std::string>& names) {
  std::string printed = (*e)->ToString();
  if (names.count(printed)) {
    *e = Expr::MakeColumn(std::move(printed));
    return;
  }
  ForEachChild(**e, [&](ExprPtr& c) { ReplaceWithColumns(&c, names); });
}

ExprPtr RewriteToColumns(const Expr& e, const std::set<std::string>& names) {
  ExprPtr c = e.Clone();
  ReplaceWithColumns(&c, names);
  return c;
}

/// Best-effort static type inference for output schemas.
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

}  // namespace

Bytes KeyOf(const std::vector<Value>& values) {
  Bytes key;
  for (const Value& v : values) AppendKey(v, &key);
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

Ctx::Ctx(Database* database, sim::CostModel* cost_model,
         const ExecOptions& options, ExecStats* exec_stats,
         const EvalScope* outer_scope)
    : db(database),
      cost(cost_model),
      opts(options),
      stats(exec_stats),
      outer(outer_scope),
      runner(std::make_unique<ExecSubqueryRunner>(database, cost_model,
                                                  options)),
      eval(std::make_unique<Evaluator>(runner.get())),
      traced(options.trace && cost_model != nullptr &&
             obs::CurrentTracer() != nullptr),
      access(options.trace ? obs::CurrentAccessLog() : nullptr) {}

int PlanWorkers(const Ctx& ctx, uint64_t work, uint64_t min_per_worker) {
  int workers = common::ThreadPool::EffectiveWorkers(ctx.opts.parallelism);
  if (min_per_worker > 0) {
    uint64_t fit = std::max<uint64_t>(1, work / min_per_worker);
    workers = static_cast<int>(
        std::min<uint64_t>(static_cast<uint64_t>(workers), fit));
  }
  return std::max(1, workers);
}

sim::SimNanos SliceSimNanos(const Ctx& ctx, const Slice& slice) {
  if (slice.cost.has_value()) return slice.cost->elapsed_ns();
  if (ctx.cost == nullptr) return 0;
  sim::CostModel scratch(ctx.cost->profile());
  scratch.ChargeParallelCycles(ctx.opts.site, slice.cycles,
                               ctx.opts.parallelism);
  return scratch.elapsed_ns();
}

JoinPredicates ClassifyJoinPredicates(const Schema& left,
                                      const Schema& right, const Expr* on,
                                      std::vector<ConjunctInfo>* conjuncts) {
  std::vector<const Expr*> applicable;
  SplitConjuncts(on, &applicable);
  Schema combined = Schema::Concat(left, right);
  for (ConjunctInfo& info : *conjuncts) {
    if (info.consumed || info.has_subquery || info.columns.empty()) continue;
    if (ResolvableBy(info.columns, combined)) {
      applicable.push_back(info.expr);
      info.consumed = true;
    }
  }

  JoinPredicates preds;
  for (const Expr* e : applicable) {
    if (e->kind == ExprKind::kBinary && e->bin_op == BinOp::kEq) {
      std::set<std::string> lcols, rcols;
      bool lsub = false, rsub = false;
      CollectColumns(*e->left, &lcols, &lsub);
      CollectColumns(*e->right, &rcols, &rsub);
      if (!lsub && !rsub && !lcols.empty() && !rcols.empty()) {
        if (ResolvableBy(lcols, left) && ResolvableBy(rcols, right)) {
          preds.keys.push_back(EquiKey{e->left.get(), e->right.get()});
          continue;
        }
        if (ResolvableBy(lcols, right) && ResolvableBy(rcols, left)) {
          preds.keys.push_back(EquiKey{e->right.get(), e->left.get()});
          continue;
        }
      }
    }
    preds.residual.push_back(e);
  }
  return preds;
}

Schema AggPlan::OutputSchema(const Schema& input) const {
  Schema schema;
  for (const Expr* g : group_exprs) {
    schema.AddColumn(Column{g->ToString(), InferType(*g, input)});
  }
  for (size_t i = 0; i < aggs.size(); ++i) {
    schema.AddColumn(Column{agg_names[i], InferType(*aggs[i], input)});
  }
  return schema;
}

Result<AggPlan> PlanAggregation(const SelectStmt& stmt) {
  std::map<std::string, const Expr*> agg_exprs;
  for (const SelectItem& item : stmt.items) {
    CollectAggregates(*item.expr, &agg_exprs);
  }
  if (stmt.having) CollectAggregates(*stmt.having, &agg_exprs);
  for (const OrderItem& o : stmt.order_by) {
    CollectAggregates(*o.expr, &agg_exprs);
  }

  AggPlan plan;
  plan.aggregated = !agg_exprs.empty() || !stmt.group_by.empty();
  if (!plan.aggregated) {
    if (stmt.having) {
      return Status::InvalidArgument("HAVING requires GROUP BY or aggregates");
    }
    for (const SelectItem& item : stmt.items) {
      plan.items.push_back(SelectItem{item.expr->Clone(), item.alias});
    }
    for (const OrderItem& o : stmt.order_by) {
      plan.order_by.push_back(OrderItem{o.expr->Clone(), o.desc});
    }
    return plan;
  }

  std::set<std::string> names;
  for (const auto& g : stmt.group_by) {
    plan.group_exprs.push_back(g.get());
    names.insert(g->ToString());
  }
  for (const auto& [name, e] : agg_exprs) {
    plan.aggs.push_back(e);
    plan.agg_names.push_back(name);
    names.insert(name);
  }
  for (const SelectItem& item : stmt.items) {
    plan.items.push_back(
        SelectItem{RewriteToColumns(*item.expr, names), item.alias});
  }
  if (stmt.having) plan.having = RewriteToColumns(*stmt.having, names);
  for (const OrderItem& o : stmt.order_by) {
    plan.order_by.push_back(OrderItem{RewriteToColumns(*o.expr, names), o.desc});
  }
  return plan;
}

void AggState::Add(const Expr& agg, const Value& v) {
  if (agg.agg_func == AggFunc::kCountStar) {
    ++count;
    return;
  }
  if (v.is_null()) return;
  if (agg.distinct) {
    Bytes ser;
    v.Serialize(&ser);
    distinct.insert(std::string(ser.begin(), ser.end()));
    return;
  }
  switch (agg.agg_func) {
    case AggFunc::kCount:
      ++count;
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      ++count;
      sum += v.AsDouble();
      if (v.type() == Type::kInt64) {
        isum += v.AsInt();
      } else {
        all_int = false;
      }
      break;
    case AggFunc::kMin:
      if (count == 0 || v.Compare(min) < 0) min = v;
      ++count;
      break;
    case AggFunc::kMax:
      if (count == 0 || v.Compare(max) > 0) max = v;
      ++count;
      break;
    default:
      break;
  }
}

Value AggState::Finalize(const Expr& agg) const {
  switch (agg.agg_func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int(agg.distinct ? static_cast<int64_t>(distinct.size())
                                     : static_cast<int64_t>(count));
    case AggFunc::kSum:
      if (count == 0) return Value::Null();
      return all_int ? Value::Int(isum) : Value::Double(sum);
    case AggFunc::kAvg:
      return count == 0
                 ? Value::Null()
                 : Value::Double(sum / static_cast<double>(count));
    case AggFunc::kMin:
      return count == 0 ? Value::Null() : min;
    case AggFunc::kMax:
      return count == 0 ? Value::Null() : max;
  }
  return Value::Null();
}

Row FinalizeGroup(const std::vector<Value>& gvals,
                  const std::vector<const Expr*>& aggs,
                  const std::vector<AggState>& states) {
  Row row = gvals;
  for (size_t i = 0; i < aggs.size(); ++i) {
    row.push_back(states[i].Finalize(*aggs[i]));
  }
  return row;
}

Result<ProjectionPlan> PlanProjection(const std::vector<SelectItem>& items,
                                      const std::vector<OrderItem>& order_by,
                                      const Schema& input) {
  ProjectionPlan plan;
  plan.order_from_input.assign(order_by.size(), false);
  if (items.size() == 1 && items[0].expr->kind == ExprKind::kStar) {
    plan.star_only = true;
    plan.schema = input;
    return plan;
  }
  for (const SelectItem& item : items) {
    if (item.expr->kind == ExprKind::kStar) {
      return Status::InvalidArgument("* must be the only item in a SELECT list");
    }
    std::string name = item.alias;
    if (name.empty()) {
      if (item.expr->kind == ExprKind::kColumn) {
        const std::string& cn = item.expr->column_name;
        size_t dot = cn.rfind('.');
        name = dot == std::string::npos ? cn : cn.substr(dot + 1);
      } else {
        name = item.expr->ToString();
      }
    }
    plan.schema.AddColumn(Column{name, InferType(*item.expr, input)});
  }
  for (size_t k = 0; k < order_by.size(); ++k) {
    std::set<std::string> cols;
    bool sub = false;
    CollectColumns(*order_by[k].expr, &cols, &sub);
    if (!ResolvableBy(cols, plan.schema)) {
      plan.order_from_input[k] = true;
      plan.any_hidden = true;
    }
  }
  return plan;
}

Result<std::vector<Value>> OrderKeys(Ctx* ctx,
                                     const std::vector<OrderItem>& order_by,
                                     const ProjectionPlan& plan,
                                     const Row& row,
                                     const std::vector<Value>& hidden) {
  EvalScope scope{&plan.schema, &row, ctx->outer};
  std::vector<Value> keys;
  keys.reserve(order_by.size());
  size_t hidden_pos = 0;
  for (size_t k = 0; k < order_by.size(); ++k) {
    if (plan.order_from_input[k]) {
      keys.push_back(hidden[hidden_pos++]);
      continue;
    }
    ASSIGN_OR_RETURN(Value v, ctx->eval->Eval(*order_by[k].expr, scope));
    keys.push_back(std::move(v));
  }
  return keys;
}

}  // namespace ironsafe::sql::exec
