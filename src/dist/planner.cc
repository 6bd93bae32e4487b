#include "dist/planner.h"

#include <map>
#include <set>

#include "sql/parser.h"

namespace ironsafe::dist {

namespace {

using sql::BinOp;
using sql::Expr;
using sql::ExprKind;
using sql::PartitionKind;
using sql::SelectStmt;
using sql::TablePartition;

const TablePartition* FindSpec(const std::vector<TablePartition>& scheme,
                               const std::string& table) {
  for (const TablePartition& spec : scheme) {
    if (spec.table == table) return &spec;
  }
  return nullptr;
}

bool IsPartitioned(const std::vector<TablePartition>& scheme,
                   const std::string& table) {
  const TablePartition* spec = FindSpec(scheme, table);
  return spec != nullptr && spec->kind != PartitionKind::kReplicated;
}

std::string Unqualify(const std::string& column) {
  auto dot = column.rfind('.');
  return dot == std::string::npos ? column : column.substr(dot + 1);
}

/// Collects `col = col` conjuncts (the equi-join predicates).
void CollectEqLinks(const Expr* e,
                    std::vector<std::pair<std::string, std::string>>* links) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->bin_op == BinOp::kAnd) {
    CollectEqLinks(e->left.get(), links);
    CollectEqLinks(e->right.get(), links);
    return;
  }
  if (e->kind == ExprKind::kBinary && e->bin_op == BinOp::kEq &&
      e->left != nullptr && e->right != nullptr &&
      e->left->kind == ExprKind::kColumn &&
      e->right->kind == ExprKind::kColumn) {
    links->emplace_back(Unqualify(e->left->column_name),
                        Unqualify(e->right->column_name));
  }
}

bool MergeableAggregate(const Expr& e) {
  if (e.kind != ExprKind::kAggregate || e.distinct) return false;
  switch (e.agg_func) {
    case sql::AggFunc::kCountStar:
    case sql::AggFunc::kCount:
    case sql::AggFunc::kSum:
    case sql::AggFunc::kMin:
    case sql::AggFunc::kMax:
      return true;
    default:
      return false;  // AVG needs a SUM/COUNT rewrite; not worth the float
  }
}

const char* MergeFunction(sql::AggFunc f) {
  switch (f) {
    case sql::AggFunc::kMin:
      return "MIN";
    case sql::AggFunc::kMax:
      return "MAX";
    default:
      return "SUM";  // SUM and COUNT partials both merge by summation
  }
}

/// Attempts the whole-query partial-aggregation plan; returns an empty
/// optional-like plan (fragments empty) when the query is ineligible.
Result<DistPlan> TryPartialAggregation(const SelectStmt& stmt,
                                       const std::vector<TablePartition>& scheme,
                                       const PlannerOptions& options) {
  DistPlan none;
  if (stmt.distinct || stmt.having != nullptr || stmt.limit >= 0) return none;
  if (stmt.from.empty()) return none;

  // Base tables only, and no subquery anywhere in the statement.
  if (sql::SelectHasSubquery(stmt)) return none;
  std::vector<const sql::TableRef*> refs;
  for (const auto& ref : stmt.from) refs.push_back(&ref);
  for (const auto& join : stmt.joins) refs.push_back(&join.table);

  // Every partitioned table must co-locate with the others through
  // equi-join predicates on the partition keys; replicated tables are
  // present everywhere and constrain nothing.
  std::vector<const TablePartition*> partitioned;
  for (const sql::TableRef* ref : refs) {
    const TablePartition* spec = FindSpec(scheme, ref->table_name);
    if (spec != nullptr && spec->kind != PartitionKind::kReplicated) {
      partitioned.push_back(spec);
    }
  }
  if (partitioned.empty()) return none;  // would duplicate per shard
  if (partitioned.size() > 1) {
    std::vector<std::pair<std::string, std::string>> links;
    CollectEqLinks(stmt.where.get(), &links);
    for (const auto& join : stmt.joins) CollectEqLinks(join.on.get(), &links);

    std::set<std::string> connected{partitioned[0]->table};
    bool grew = true;
    while (grew) {
      grew = false;
      for (const TablePartition* spec : partitioned) {
        if (connected.count(spec->table)) continue;
        for (const auto& [a, b] : links) {
          bool key_a = a == spec->key_column;
          bool key_b = b == spec->key_column;
          if (!key_a && !key_b) continue;
          const std::string& other = key_a ? b : a;
          for (const TablePartition* peer : partitioned) {
            if (!connected.count(peer->table)) continue;
            if (other == peer->key_column) {
              connected.insert(spec->table);
              grew = true;
              break;
            }
          }
          if (connected.count(spec->table)) break;
        }
      }
    }
    for (const TablePartition* spec : partitioned) {
      if (!connected.count(spec->table)) return none;
      if (spec->kind != partitioned[0]->kind) return none;
      if (options.co_located &&
          !options.co_located(partitioned[0]->table, spec->table)) {
        return none;
      }
    }
  }

  // Classify the select items: mergeable aggregates vs grouping columns.
  std::vector<bool> is_agg(stmt.items.size(), false);
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const Expr& e = *stmt.items[i].expr;
    if (MergeableAggregate(e)) {
      is_agg[i] = true;
      continue;
    }
    bool grouped = false;
    for (const auto& g : stmt.group_by) {
      if (g->ToString() == e.ToString()) {
        grouped = true;
        break;
      }
    }
    if (!grouped) return none;
  }
  // Every grouping expression must be shipped, or distinct groups would
  // collapse in the host-side re-aggregation.
  for (const auto& g : stmt.group_by) {
    bool shipped = false;
    for (const auto& item : stmt.items) {
      if (item.expr->ToString() == g->ToString()) {
        shipped = true;
        break;
      }
    }
    if (!shipped) return none;
  }
  // ORDER BY must be expressible over the shipped columns.
  std::vector<size_t> order_item(stmt.order_by.size(), 0);
  for (size_t i = 0; i < stmt.order_by.size(); ++i) {
    const std::string repr = stmt.order_by[i].expr->ToString();
    bool found = false;
    for (size_t j = 0; j < stmt.items.size(); ++j) {
      if (stmt.items[j].expr->ToString() == repr ||
          (!stmt.items[j].alias.empty() && stmt.items[j].alias == repr)) {
        order_item[i] = j;
        found = true;
        break;
      }
    }
    if (!found) return none;
  }

  // The per-shard fragment: the whole statement with canonical output
  // names f0..fN and no ORDER BY (ordering happens after the merge).
  auto frag_stmt = stmt.Clone();
  frag_stmt->order_by.clear();
  for (size_t i = 0; i < frag_stmt->items.size(); ++i) {
    frag_stmt->items[i].alias = "f" + std::to_string(i);
  }

  DistPlan plan;
  plan.partial_aggregation = true;
  FragmentPlacement placement;
  placement.fragment.source_table =
      refs.size() == 1 ? refs[0]->table_name : "*";
  placement.fragment.dest_table = "partials_a0";
  placement.fragment.sql = frag_stmt->ToString();
  placement.partitioned = true;  // every group contributes a partial
  plan.fragments.push_back(std::move(placement));

  // The host-side re-aggregation over the union of partials.
  std::string host_sql = "SELECT ";
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (i > 0) host_sql += ", ";
    std::string shipped = "f" + std::to_string(i);
    std::string out_name =
        stmt.items[i].alias.empty() ? shipped : stmt.items[i].alias;
    if (is_agg[i]) {
      host_sql += std::string(MergeFunction(stmt.items[i].expr->agg_func)) +
                  "(" + shipped + ") AS " + out_name;
    } else {
      host_sql += shipped + " AS " + out_name;
    }
  }
  host_sql += " FROM partials_a0";
  bool first_group = true;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (is_agg[i]) continue;
    host_sql += first_group ? " GROUP BY " : ", ";
    host_sql += "f" + std::to_string(i);
    first_group = false;
  }
  for (size_t i = 0; i < stmt.order_by.size(); ++i) {
    host_sql += i == 0 ? " ORDER BY " : ", ";
    size_t j = order_item[i];
    host_sql += stmt.items[j].alias.empty() ? "f" + std::to_string(j)
                                            : stmt.items[j].alias;
    if (stmt.order_by[i].desc) host_sql += " DESC";
  }
  ASSIGN_OR_RETURN(plan.host_query, sql::ParseSelect(host_sql));
  return plan;
}

}  // namespace

Result<DistPlan> PlanQuery(const sql::SelectStmt& stmt,
                           const sql::Database& shard_db,
                           const std::vector<sql::TablePartition>& scheme,
                           const PlannerOptions& options) {
  if (options.partial_aggregation) {
    ASSIGN_OR_RETURN(DistPlan partial,
                     TryPartialAggregation(stmt, scheme, options));
    if (!partial.fragments.empty()) return partial;
  }

  // Default placement: the single-node filter-pushdown split, with each
  // fragment either fanned out across every shard group (partitioned
  // source) or pinned to one round-robin home group (replicated source).
  engine::PartitionOptions part_options;  // no whole-query offload
  ASSIGN_OR_RETURN(engine::PartitionedQuery split,
                   PartitionQuery(stmt, shard_db, part_options));

  DistPlan plan;
  plan.host_query = std::move(split.host_query);
  int replicated_seen = 0;
  for (auto& frag : split.fragments) {
    FragmentPlacement placement;
    placement.partitioned = IsPartitioned(scheme, frag.source_table);
    if (placement.partitioned) {
      placement.merge_key = FindSpec(scheme, frag.source_table)->key_column;
    } else {
      placement.home_group =
          options.shard_count > 0 ? replicated_seen++ % options.shard_count
                                  : 0;
    }
    placement.fragment = std::move(frag);
    plan.fragments.push_back(std::move(placement));
  }
  return plan;
}

}  // namespace ironsafe::dist
