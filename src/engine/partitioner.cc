#include "engine/partitioner.h"

#include <functional>

namespace ironsafe::engine {

namespace {

using sql::BinOp;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::SelectStmt;
using sql::TableRef;

/// Applies `fn` to every subquery SelectStmt reachable from `e`.
void WalkExprSubqueries(Expr* e, const std::function<void(SelectStmt*)>& fn) {
  if (e == nullptr) return;
  if (e->subquery) fn(e->subquery.get());
  sql::ForEachChild(*e, [&](ExprPtr& c) { WalkExprSubqueries(c.get(), fn); });
}

ExprPtr RebuildConjunction(const std::vector<const Expr*>& parts) {
  ExprPtr result;
  for (const Expr* part : parts) {
    if (!result) {
      result = part->Clone();
    } else {
      result = Expr::MakeBinary(BinOp::kAnd, std::move(result), part->Clone());
    }
  }
  return result;
}

class Partitioner {
 public:
  Partitioner(const sql::Database& db) : db_(db) {}

  Status Process(SelectStmt* stmt, PartitionedQuery* out) {
    // Derive pushable filters per base table in this statement.
    std::vector<sql::ConjunctInfo> conjuncts =
        sql::AnalyzeConjuncts(stmt->where.get());

    auto handle_ref = [&](TableRef* ref) -> Status {
      if (ref->subquery) return Process(ref->subquery.get(), out);
      ASSIGN_OR_RETURN(sql::Table * table, db_.GetTable(ref->table_name));
      std::vector<const Expr*> pushed = sql::ClaimScanFilters(
          table->schema().Qualified(ref->alias), &conjuncts);

      PartitionedQuery::StorageFragment frag;
      frag.source_table = ref->table_name;
      frag.dest_table =
          ref->table_name + "_s" + std::to_string(fragment_counter_++);
      std::string sql = "SELECT * FROM " + ref->table_name;
      if (ref->alias != ref->table_name) sql += " " + ref->alias;
      if (!pushed.empty()) {
        ExprPtr filter = RebuildConjunction(pushed);
        sql += " WHERE " + filter->ToString();
      }
      frag.sql = std::move(sql);
      ref->table_name = frag.dest_table;
      out->fragments.push_back(std::move(frag));
      return Status::OK();
    };

    for (TableRef& ref : stmt->from) {
      RETURN_IF_ERROR(handle_ref(&ref));
    }
    for (sql::JoinClause& join : stmt->joins) {
      RETURN_IF_ERROR(handle_ref(&join.table));
    }

    // Remove consumed conjuncts from the host-side WHERE.
    stmt->where = RebuildConjunction(sql::UnclaimedConjuncts(conjuncts));

    // Recurse into subqueries everywhere expressions live.
    Status status = Status::OK();
    auto recurse = [&](SelectStmt* sub) {
      if (status.ok()) {
        Status s = Process(sub, out);
        if (!s.ok()) status = s;
      }
    };
    WalkExprSubqueries(stmt->where.get(), recurse);
    for (auto& item : stmt->items) WalkExprSubqueries(item.expr.get(), recurse);
    for (auto& join : stmt->joins) WalkExprSubqueries(join.on.get(), recurse);
    WalkExprSubqueries(stmt->having.get(), recurse);
    for (auto& g : stmt->group_by) WalkExprSubqueries(g.get(), recurse);
    for (auto& o : stmt->order_by) WalkExprSubqueries(o.expr.get(), recurse);
    return status;
  }

 private:
  const sql::Database& db_;
  int fragment_counter_ = 0;
};

/// A query is wholly offloadable when it reads one base table and has no
/// subqueries anywhere — the storage engine can then run it end-to-end.
bool WhollyOffloadable(const SelectStmt& stmt) {
  if (stmt.from.size() != 1 || !stmt.joins.empty()) return false;
  if (sql::SelectHasSubquery(stmt)) return false;
  for (const auto& item : stmt.items) {
    if (item.expr->kind == ExprKind::kStar) return false;  // nothing to gain
  }
  return true;
}

}  // namespace

Result<PartitionedQuery> PartitionQuery(const sql::SelectStmt& query,
                                        const sql::Database& storage_db,
                                        const PartitionOptions& options) {
  PartitionedQuery out;

  if (options.aggregation_pushdown && WhollyOffloadable(query)) {
    // Ship the final result instead of filtered base rows: the host
    // side degenerates to a scan of the shipped answer.
    PartitionedQuery::StorageFragment frag;
    frag.source_table = query.from[0].table_name;
    frag.dest_table = frag.source_table + "_agg0";
    frag.sql = query.ToString();
    out.fragments.push_back(std::move(frag));
    auto host = std::make_unique<SelectStmt>();
    auto star = std::make_unique<Expr>();
    star->kind = ExprKind::kStar;
    host->items.push_back(sql::SelectItem{std::move(star), ""});
    host->from.push_back(
        TableRef{out.fragments[0].dest_table, out.fragments[0].dest_table});
    out.host_query = std::move(host);
    out.whole_query_offloaded = true;
    return out;
  }

  out.host_query = query.Clone();
  Partitioner partitioner(storage_db);
  RETURN_IF_ERROR(partitioner.Process(out.host_query.get(), &out));
  return out;
}

}  // namespace ironsafe::engine
