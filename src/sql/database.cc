#include "sql/database.h"

#include <algorithm>

#include "sql/parser.h"

namespace ironsafe::sql {

namespace {
std::string Lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

/// Coerces a value stored by INSERT or UPDATE to its column's type: a
/// string or integer into a DATE column, an integer into a DOUBLE column.
Result<Value> CoerceToColumn(Value v, Type want) {
  if (want == Type::kDate && v.type() == Type::kString) {
    ASSIGN_OR_RETURN(int64_t days, ParseDate(v.AsString()));
    return Value::Date(days);
  }
  if (want == Type::kDate && v.type() == Type::kInt64) {
    return Value::Date(v.AsInt());
  }
  if (want == Type::kDouble && v.type() == Type::kInt64) {
    return Value::Double(v.AsDouble());
  }
  return v;
}

QueryResult AffectedResult(uint64_t n) {
  QueryResult r;
  r.schema.AddColumn(Column{"affected", Type::kInt64});
  r.rows.push_back(Row{Value::Int(static_cast<int64_t>(n))});
  return r;
}
}  // namespace

std::unique_ptr<Database> Database::CreateInMemory() {
  return std::unique_ptr<Database>(new Database(nullptr));
}

std::unique_ptr<Database> Database::CreatePaged(PageStore* store) {
  return std::unique_ptr<Database>(new Database(store));
}

Status Database::CreateTable(const std::string& name, Schema schema) {
  return CreateTable(name, BatchedRows{std::move(schema), {}});
}

Status Database::CreateTable(const std::string& name, BatchedRows rows) {
  std::string key = Lower(name);
  if (tables_.count(key)) {
    return Status::AlreadyExists("table exists: " + name);
  }
  if (store_ == nullptr) {
    tables_[key] = std::make_unique<MemoryTable>(key, std::move(rows));
  } else if (rows.units.empty()) {
    tables_[key] =
        std::make_unique<PagedTable>(key, std::move(rows.schema), store_);
  } else {
    return Status::InvalidArgument("paged tables load row by row: " + name);
  }
  return Status::OK();
}

Result<Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(Lower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

Status Database::BulkLoad(const std::string& table,
                          const std::vector<Row>& rows, sim::CostModel* cost) {
  ASSIGN_OR_RETURN(Table * t, GetTable(table));
  t->BeginBulkLoad();
  for (const Row& row : rows) {
    RETURN_IF_ERROR(t->Append(row, cost));
  }
  return t->FinishBulkLoad(cost);
}

Result<QueryResult> Database::Execute(std::string_view sql,
                                      sim::CostModel* cost,
                                      const ExecOptions& opts) {
  ASSIGN_OR_RETURN(Statement stmt, Parse(sql));
  return ExecuteStatement(stmt, cost, opts);
}

Result<QueryResult> Database::ExecuteStatement(const Statement& stmt,
                                               sim::CostModel* cost,
                                               const ExecOptions& opts) {
  Evaluator eval;  // literal evaluation for DML (no subqueries)
  EvalScope empty_scope;

  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return ExecuteSelect(this, *stmt.select, nullptr, cost, opts);

    case Statement::Kind::kCreateTable: {
      RETURN_IF_ERROR(CreateTable(stmt.create_table->table_name,
                                  Schema(stmt.create_table->columns)));
      return AffectedResult(0);
    }

    case Statement::Kind::kInsert: {
      const InsertStmt& ins = *stmt.insert;
      ASSIGN_OR_RETURN(Table * table, GetTable(ins.table_name));
      const Schema& schema = table->schema();

      // Map the provided column list (or the full schema) to positions.
      std::vector<int> positions;
      if (ins.columns.empty()) {
        for (size_t i = 0; i < schema.size(); ++i) {
          positions.push_back(static_cast<int>(i));
        }
      } else {
        for (const std::string& c : ins.columns) {
          int idx = schema.Find(Lower(c));
          if (idx < 0) {
            return Status::InvalidArgument("unknown column in INSERT: " + c);
          }
          positions.push_back(idx);
        }
      }

      uint64_t inserted = 0;
      for (const auto& value_exprs : ins.values) {
        if (value_exprs.size() != positions.size()) {
          return Status::InvalidArgument("INSERT arity mismatch");
        }
        Row row(schema.size(), Value::Null());
        for (size_t i = 0; i < positions.size(); ++i) {
          ASSIGN_OR_RETURN(Value v, eval.Eval(*value_exprs[i], empty_scope));
          ASSIGN_OR_RETURN(row[positions[i]],
                           CoerceToColumn(std::move(v),
                                          schema.column(positions[i]).type));
        }
        RETURN_IF_ERROR(table->Append(row, cost));
        ++inserted;
      }
      RETURN_IF_ERROR(table->FinishBulkLoad(cost));
      return AffectedResult(inserted);
    }

    case Statement::Kind::kDelete: {
      const DeleteStmt& del = *stmt.del;
      ASSIGN_OR_RETURN(Table * table, GetTable(del.table_name));
      Schema schema = table->schema();
      uint64_t affected = 0;
      RETURN_IF_ERROR(table->Rewrite(
          [&](Row* row, bool* modified) -> Result<bool> {
            (void)modified;
            if (!del.where) return false;  // delete all
            EvalScope scope{&schema, row, nullptr};
            ASSIGN_OR_RETURN(bool match, eval.EvalBool(*del.where, scope));
            return !match;
          },
          cost, &affected));
      return AffectedResult(affected);
    }

    case Statement::Kind::kUpdate: {
      const UpdateStmt& upd = *stmt.update;
      ASSIGN_OR_RETURN(Table * table, GetTable(upd.table_name));
      Schema schema = table->schema();
      std::vector<std::pair<int, const Expr*>> sets;
      for (const auto& [col, expr] : upd.assignments) {
        int idx = schema.Find(Lower(col));
        if (idx < 0) {
          return Status::InvalidArgument("unknown column in UPDATE: " + col);
        }
        sets.emplace_back(idx, expr.get());
      }
      uint64_t affected = 0;
      RETURN_IF_ERROR(table->Rewrite(
          [&](Row* row, bool* modified) -> Result<bool> {
            EvalScope scope{&schema, row, nullptr};
            if (upd.where) {
              ASSIGN_OR_RETURN(bool match, eval.EvalBool(*upd.where, scope));
              if (!match) return true;
            }
            // Every SET reads the original row: `SET a = b, b = a` swaps.
            Row updated = *row;
            for (const auto& [idx, expr] : sets) {
              ASSIGN_OR_RETURN(Value v, eval.Eval(*expr, scope));
              ASSIGN_OR_RETURN(updated[idx],
                               CoerceToColumn(std::move(v),
                                              schema.column(idx).type));
            }
            *row = std::move(updated);
            *modified = true;
            return true;
          },
          cost, &affected));
      return AffectedResult(affected);
    }
  }
  return Status::Internal("unhandled statement kind");
}

}  // namespace ironsafe::sql
