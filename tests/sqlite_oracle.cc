#include "sqlite_oracle.h"

#include <sqlite3.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <regex>

#include "sql/parser.h"

namespace ironsafe::sql::oracle {

namespace {

constexpr double kRelTolerance = 1e-9;

/// year(<ISO date text>) -> INTEGER, the one engine function SQLite lacks.
void YearUdf(sqlite3_context* ctx, int /*argc*/, sqlite3_value** argv) {
  if (sqlite3_value_type(argv[0]) == SQLITE_NULL) {
    sqlite3_result_null(ctx);
    return;
  }
  const auto* text = reinterpret_cast<const char*>(sqlite3_value_text(argv[0]));
  sqlite3_result_int64(ctx, std::strtoll(text, nullptr, 10));
}

const char* SqliteType(Type t) {
  switch (t) {
    case Type::kBool:
    case Type::kInt64:
      return "INTEGER";
    case Type::kDouble:
      return "REAL";
    case Type::kString:
    case Type::kDate:
      return "TEXT";
    case Type::kNull:
      break;
  }
  return "";
}

std::string Quoted(const std::string& ident) { return "\"" + ident + "\""; }

/// Engine values in SQLite's value domain: dates as ISO text, booleans
/// as 0/1.
Value Normalize(const Value& v) {
  if (v.type() == Type::kDate) return Value::String(FormatDate(v.AsInt()));
  if (v.type() == Type::kBool) return Value::Int(v.AsBool() ? 1 : 0);
  return v;
}

bool IsNumber(const Value& v) {
  return v.type() == Type::kInt64 || v.type() == Type::kDouble;
}

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (IsNumber(a) && IsNumber(b)) {
    if (a.type() == Type::kInt64 && b.type() == Type::kInt64) {
      return a.AsInt() == b.AsInt();
    }
    double x = a.AsDouble(), y = b.AsDouble();
    return std::fabs(x - y) <= kRelTolerance * std::max(std::fabs(x), std::fabs(y));
  }
  if (a.type() == Type::kString && b.type() == Type::kString) {
    return a.AsString() == b.AsString();
  }
  return false;
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameValue(a[i], b[i])) return false;
  }
  return true;
}

/// A total order for canonical multiset sorting: NULL < numbers < text.
int Rank(const Value& v) {
  if (v.is_null()) return 0;
  return IsNumber(v) ? 1 : 2;
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    int ra = Rank(a[i]), rb = Rank(b[i]);
    if (ra != rb) return ra < rb;
    if (ra == 1 && a[i].AsDouble() != b[i].AsDouble()) {
      return a[i].AsDouble() < b[i].AsDouble();
    }
    if (ra == 2 && a[i].AsString() != b[i].AsString()) {
      return a[i].AsString() < b[i].AsString();
    }
  }
  return a.size() < b.size();
}

std::string RowString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

/// "" if `got` and `want` are equal as multisets.
std::string MultisetDiff(std::vector<Row> got, std::vector<Row> want) {
  std::sort(got.begin(), got.end(), RowLess);
  std::sort(want.begin(), want.end(), RowLess);
  for (size_t i = 0; i < got.size() && i < want.size(); ++i) {
    if (!SameRow(got[i], want[i])) {
      return "engine row " + RowString(got[i]) + " vs sqlite row " +
             RowString(want[i]);
    }
  }
  if (got.size() != want.size()) {
    return "row counts differ: engine " + std::to_string(got.size()) +
           ", sqlite " + std::to_string(want.size());
  }
  return "";
}

/// "" if every row of `got` matches a distinct row of `pool`.
std::string SubsetDiff(const std::vector<Row>& got,
                       const std::vector<Row>& pool) {
  std::vector<bool> used(pool.size(), false);
  for (const Row& row : got) {
    bool found = false;
    for (size_t i = 0; i < pool.size() && !found; ++i) {
      if (!used[i] && SameRow(row, pool[i])) used[i] = found = true;
    }
    if (!found) return "engine row " + RowString(row) + " not in sqlite's result";
  }
  return "";
}

/// Output column an ORDER BY item sorts on, or -1 when it is not an
/// output column (then the order is not checkable from the output).
int OutputColumn(const Expr& e, const Schema& schema) {
  std::string name = e.ToString();
  if (e.kind == ExprKind::kColumn) {
    size_t dot = e.column_name.rfind('.');
    name = dot == std::string::npos ? e.column_name
                                    : e.column_name.substr(dot + 1);
  }
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema.column(i).name == name) return static_cast<int>(i);
  }
  return -1;
}

bool SameKey(const Row& a, const Row& b, const std::vector<int>& keys) {
  for (int k : keys) {
    if (!SameValue(a[static_cast<size_t>(k)], b[static_cast<size_t>(k)])) {
      return false;
    }
  }
  return true;
}

std::string StripLimit(const std::string& sql) {
  static const std::regex kLimit(R"(\s+LIMIT\s+\d+\s*$)", std::regex::icase);
  return std::regex_replace(sql, kLimit, "");
}

}  // namespace

std::string ToSqliteDialect(std::string_view sql) {
  static const std::regex kInterval(
      R"(\bDATE\s+'([^']*)'\s*([+-])\s*INTERVAL\s+'(\d+)'\s+(DAY|MONTH|YEAR))",
      std::regex::icase);
  static const std::regex kDate(R"(\bDATE\s+'([^']*)')", std::regex::icase);
  std::string out =
      std::regex_replace(std::string(sql), kInterval, "date('$1', '$2$3 $4')");
  return std::regex_replace(out, kDate, "'$1'");
}

SqliteOracle::SqliteOracle() {
  if (sqlite3_open(":memory:", &db_) != SQLITE_OK) return;
  sqlite3_create_function_v2(db_, "year", 1,
                             SQLITE_UTF8 | SQLITE_DETERMINISTIC, nullptr,
                             YearUdf, nullptr, nullptr, nullptr);
  sqlite3_exec(db_, "PRAGMA case_sensitive_like = ON", nullptr, nullptr,
               nullptr);
}

SqliteOracle::~SqliteOracle() { sqlite3_close(db_); }

Status SqliteOracle::LoadFrom(const Database& db) {
  auto exec = [&](const std::string& sql) -> Status {
    char* err = nullptr;
    if (sqlite3_exec(db_, sql.c_str(), nullptr, nullptr, &err) != SQLITE_OK) {
      std::string msg = err != nullptr ? err : "unknown error";
      sqlite3_free(err);
      return Status::Internal("sqlite: " + msg + " in: " + sql);
    }
    return Status::OK();
  };
  cache_.clear();
  RETURN_IF_ERROR(exec("BEGIN"));
  for (const std::string& name : db.TableNames()) {
    ASSIGN_OR_RETURN(Table * table, db.GetTable(name));
    const Schema& schema = table->schema();
    std::string create = "CREATE TABLE " + Quoted(name) + " (";
    std::string insert = "INSERT INTO " + Quoted(name) + " VALUES (";
    for (size_t c = 0; c < schema.size(); ++c) {
      create += (c > 0 ? ", " : "") + Quoted(schema.column(c).name) + " " +
                SqliteType(schema.column(c).type);
      insert += c > 0 ? ", ?" : "?";
    }
    RETURN_IF_ERROR(exec(create + ")"));
    ASSIGN_OR_RETURN(std::vector<Row> rows, ReadRows(*table, nullptr));
    sqlite3_stmt* stmt = nullptr;
    if (sqlite3_prepare_v2(db_, (insert + ")").c_str(), -1, &stmt, nullptr) !=
        SQLITE_OK) {
      return Status::Internal(std::string("sqlite: ") + sqlite3_errmsg(db_));
    }
    Status status = Status::OK();
    for (const Row& row : rows) {
      sqlite3_reset(stmt);
      for (size_t c = 0; c < row.size(); ++c) {
        int slot = static_cast<int>(c) + 1;
        Value v = Normalize(row[c]);
        switch (v.type()) {
          case Type::kNull:
            sqlite3_bind_null(stmt, slot);
            break;
          case Type::kInt64:
            sqlite3_bind_int64(stmt, slot, v.AsInt());
            break;
          case Type::kDouble:
            sqlite3_bind_double(stmt, slot, v.AsDouble());
            break;
          default:
            sqlite3_bind_text(stmt, slot, v.AsString().c_str(), -1,
                              SQLITE_TRANSIENT);
            break;
        }
      }
      if (sqlite3_step(stmt) != SQLITE_DONE) {
        status = Status::Internal(std::string("sqlite: ") + sqlite3_errmsg(db_));
        break;
      }
    }
    sqlite3_finalize(stmt);
    RETURN_IF_ERROR(status);
  }
  return exec("COMMIT");
}

Result<std::vector<Row>> SqliteOracle::Query(const std::string& sqlite_sql) {
  auto cached = cache_.find(sqlite_sql);
  if (cached != cache_.end()) return cached->second;
  sqlite3_stmt* stmt = nullptr;
  if (sqlite3_prepare_v2(db_, sqlite_sql.c_str(), -1, &stmt, nullptr) !=
      SQLITE_OK) {
    return Status::InvalidArgument(std::string("sqlite: ") +
                                   sqlite3_errmsg(db_) + " in: " + sqlite_sql);
  }
  std::vector<Row> rows;
  int rc;
  while ((rc = sqlite3_step(stmt)) == SQLITE_ROW) {
    Row row;
    int n = sqlite3_column_count(stmt);
    for (int c = 0; c < n; ++c) {
      switch (sqlite3_column_type(stmt, c)) {
        case SQLITE_NULL:
          row.push_back(Value::Null());
          break;
        case SQLITE_INTEGER:
          row.push_back(Value::Int(sqlite3_column_int64(stmt, c)));
          break;
        case SQLITE_FLOAT:
          row.push_back(Value::Double(sqlite3_column_double(stmt, c)));
          break;
        default:
          row.push_back(Value::String(
              reinterpret_cast<const char*>(sqlite3_column_text(stmt, c))));
          break;
      }
    }
    rows.push_back(std::move(row));
  }
  sqlite3_finalize(stmt);
  if (rc != SQLITE_DONE) {
    return Status::Internal(std::string("sqlite: ") + sqlite3_errmsg(db_));
  }
  cache_.emplace(sqlite_sql, rows);
  return rows;
}

std::string SqliteOracle::Check(const std::string& sql,
                                const std::string& sqlite_sql,
                                const QueryResult& got) {
  auto want = Query(sqlite_sql);
  if (!want.ok()) return want.status().ToString();
  std::vector<Row> rows;
  rows.reserve(got.rows.size());
  for (const Row& r : got.rows) {
    if (r.size() != got.schema.size()) return "ragged engine row";
    Row n;
    for (const Value& v : r) n.push_back(Normalize(v));
    rows.push_back(std::move(n));
  }
  if (!want->empty() && (*want)[0].size() != got.schema.size()) {
    return "column counts differ: engine " + std::to_string(got.schema.size()) +
           ", sqlite " + std::to_string((*want)[0].size());
  }
  if (rows.size() != want->size()) {
    return "row counts differ: engine " + std::to_string(rows.size()) +
           ", sqlite " + std::to_string(want->size());
  }

  auto stmt = ParseSelect(sql);
  if (!stmt.ok()) return stmt.status().ToString();
  std::vector<int> keys;
  for (const OrderItem& o : (*stmt)->order_by) {
    keys.push_back(OutputColumn(*o.expr, got.schema));
  }
  bool ordered = !keys.empty() && std::find(keys.begin(), keys.end(), -1) ==
                                      keys.end();
  // A LIMIT that cut the result may cut a tie group anywhere in it; the
  // engine's share of that group must come from SQLite's full group.
  bool cut = (*stmt)->limit >= 0 &&
             want->size() == static_cast<size_t>((*stmt)->limit);
  std::vector<Row> unlimited;
  if (cut) {
    auto all = Query(StripLimit(sqlite_sql));
    if (!all.ok()) return all.status().ToString();
    unlimited = std::move(*all);
  }
  if (!ordered) return cut ? SubsetDiff(rows, unlimited) : MultisetDiff(rows, *want);

  for (size_t begin = 0; begin < want->size();) {
    const Row& key = (*want)[begin];
    size_t end = begin + 1;
    while (end < want->size() && SameKey((*want)[end], key, keys)) ++end;
    for (size_t i = begin; i < end; ++i) {
      if (!SameKey(rows[i], key, keys)) {
        return "engine row " + std::to_string(i) + " " + RowString(rows[i]) +
               " out of order; sqlite has " + RowString((*want)[i]);
      }
    }
    std::vector<Row> got_group(rows.begin() + static_cast<long>(begin),
                               rows.begin() + static_cast<long>(end));
    std::string diff;
    if (cut && end == want->size()) {
      std::vector<Row> pool;
      for (const Row& r : unlimited) {
        if (SameKey(r, key, keys)) pool.push_back(r);
      }
      diff = SubsetDiff(got_group, pool);
    } else {
      diff = MultisetDiff(got_group,
                          std::vector<Row>(want->begin() + static_cast<long>(begin),
                                           want->begin() + static_cast<long>(end)));
    }
    if (!diff.empty()) return diff;
    begin = end;
  }
  return "";
}

}  // namespace ironsafe::sql::oracle
