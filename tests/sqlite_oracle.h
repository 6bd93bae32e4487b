#ifndef IRONSAFE_TESTS_SQLITE_ORACLE_H_
#define IRONSAFE_TESTS_SQLITE_ORACLE_H_

// SQLite as an independent reference for the SQL engine (test-only; src/
// never links SQLite). Tables are copied into an in-memory SQLite
// database from their stored rows, queries are rewritten into SQLite's
// dialect, and the engine's rows are compared with SQLite's.
//
// Dialect shim (the only rewrites; everything else is passed through):
//   DATE 'x'                     ->  'x'  (dates are ISO text in SQLite)
//   DATE 'x' +/- INTERVAL 'n' U  ->  date('x', '+/-n u')
//   year(d)                      ->  a registered UDF over ISO text
// LIKE is made case-sensitive, as the engine's is. Known semantic
// differences the shim does not cover — `/` is real division here but
// integer division on two SQLite integers, and division by zero is an
// error here but NULL in SQLite — are kept out of the compared queries.

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sql/database.h"

struct sqlite3;

namespace ironsafe::sql::oracle {

/// Rewrites engine SQL into SQLite SQL (see the shim above).
std::string ToSqliteDialect(std::string_view sql);

class SqliteOracle {
 public:
  SqliteOracle();
  ~SqliteOracle();
  SqliteOracle(const SqliteOracle&) = delete;
  SqliteOracle& operator=(const SqliteOracle&) = delete;

  /// Copies every table of `db` (schema and stored rows, decoded through
  /// the engine's own scan path, ReadRows over DecodeMorselBatch) into
  /// SQLite. Dates become ISO text.
  Status LoadFrom(const Database& db);

  /// Runs already-shimmed SQLite SQL; INTEGER/REAL/TEXT/NULL map to
  /// Int/Double/String/Null values. Results are cached per SQL text.
  Result<std::vector<Row>> Query(const std::string& sqlite_sql);

  /// Checks the engine's result for engine-dialect `sql` against
  /// SQLite's result for the same query in its dialect, `sqlite_sql`.
  /// Rows are compared in order where the ORDER BY keys (all output
  /// columns) fully determine it, tie groups as multisets, and the tie
  /// group a LIMIT cuts as a subset of SQLite's unlimited tie group;
  /// without a mappable ORDER BY, the whole result is a multiset. Doubles
  /// match within a relative tolerance of 1e-9. Returns "" on a match,
  /// else a description of the first difference.
  std::string Check(const std::string& sql, const std::string& sqlite_sql,
                    const QueryResult& got);

  /// Check() with `sql` run through ToSqliteDialect.
  std::string Check(const std::string& sql, const QueryResult& got) {
    return Check(sql, ToSqliteDialect(sql), got);
  }

 private:
  sqlite3* db_ = nullptr;
  std::map<std::string, std::vector<Row>> cache_;
};

}  // namespace ironsafe::sql::oracle

#endif  // IRONSAFE_TESTS_SQLITE_ORACLE_H_
