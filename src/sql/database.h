#ifndef IRONSAFE_SQL_DATABASE_H_
#define IRONSAFE_SQL_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sql/executor.h"
#include "sql/page_store.h"
#include "sql/table.h"

namespace ironsafe::sql {

/// A named collection of tables plus the statement-level execution entry
/// point. Two storage modes:
///  - in-memory (host engine intermediates, unit tests), and
///  - paged over a caller-owned PageStore (plain or secure) — the
///    storage-engine database whose pages live on the untrusted medium.
class Database {
 public:
  /// Tables are MemoryTables.
  static std::unique_ptr<Database> CreateInMemory();

  /// Tables are PagedTables over `store` (not owned).
  static std::unique_ptr<Database> CreatePaged(PageStore* store);

  Status CreateTable(const std::string& name, Schema schema);
  /// An in-memory table that holds `rows`' units as they are (a shipped
  /// fragment on the host); a paged database refuses units.
  Status CreateTable(const std::string& name, BatchedRows rows);
  Result<Table*> GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// Parses and executes one statement. For non-SELECT statements the
  /// result has a single "affected" column with the affected-row count.
  Result<QueryResult> Execute(std::string_view sql,
                              sim::CostModel* cost = nullptr,
                              const ExecOptions& opts = {});

  /// Executes an already-parsed statement (the monitor rewrites ASTs).
  Result<QueryResult> ExecuteStatement(const Statement& stmt,
                                       sim::CostModel* cost = nullptr,
                                       const ExecOptions& opts = {});

  /// Bulk-load path used by the TPC-H generator: appends rows directly,
  /// bracketed so secure stores commit their root once.
  Status BulkLoad(const std::string& table, const std::vector<Row>& rows,
                  sim::CostModel* cost = nullptr);

 private:
  explicit Database(PageStore* store) : store_(store) {}

  PageStore* store_;  // null => in-memory tables
  std::unique_ptr<PageStore> owned_store_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace ironsafe::sql

#endif  // IRONSAFE_SQL_DATABASE_H_
