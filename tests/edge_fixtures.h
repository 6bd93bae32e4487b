#ifndef IRONSAFE_TESTS_EDGE_FIXTURES_H_
#define IRONSAFE_TESTS_EDGE_FIXTURES_H_

// Small databases holding the engine's selection-vector and NULL edge
// cases. tests/vector_exec_test.cc pins exact counts on them and
// tests/sql_oracle_test.cc checks every row against SQLite.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sql/database.h"
#include "sql/page_store.h"
#include "storage/block_device.h"

namespace ironsafe::sql::testing_fixtures {

inline void MustExecute(Database* db, const char* sql) {
  auto r = db->Execute(sql);
  ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
}

/// `t (a INTEGER, b VARCHAR)` with no rows.
inline std::unique_ptr<Database> EmptyTable() {
  auto db = Database::CreateInMemory();
  MustExecute(db.get(), "CREATE TABLE t (a INTEGER, b VARCHAR)");
  return db;
}

/// `t` with three rows and `u` with two, joinable on `a`.
inline std::unique_ptr<Database> SmallTables() {
  auto db = EmptyTable();
  MustExecute(db.get(), "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')");
  MustExecute(db.get(), "CREATE TABLE u (a INTEGER, c VARCHAR)");
  MustExecute(db.get(), "INSERT INTO u VALUES (1, 'p'), (2, 'q')");
  return db;
}

/// `n` and `m` with NULLs in every column, including the join key `a`.
inline std::unique_ptr<Database> NullTables() {
  auto db = Database::CreateInMemory();
  MustExecute(db.get(), "CREATE TABLE n (a INTEGER, b VARCHAR, c DOUBLE)");
  MustExecute(db.get(),
              "INSERT INTO n VALUES (1, 'x', 1.5), (NULL, 'x', 2.5), "
              "(3, NULL, NULL), (NULL, NULL, 4.5), (5, 'y', NULL)");
  MustExecute(db.get(), "CREATE TABLE m (a INTEGER, d VARCHAR)");
  MustExecute(db.get(),
              "INSERT INTO m VALUES (1, 'p'), (NULL, 'q'), (5, 'r')");
  return db;
}

/// `big (k INTEGER, grp INTEGER, v DOUBLE)` on a plain page store, large
/// enough that batches straddle page boundaries.
struct PagedBigTable {
  static constexpr int kRows = 5000;

  PagedBigTable() {
    MustExecute(db.get(),
                "CREATE TABLE big (k INTEGER, grp INTEGER, v DOUBLE)");
    std::vector<Row> rows;
    rows.reserve(kRows);
    for (int i = 0; i < kRows; ++i) {
      rows.push_back({Value::Int(i), Value::Int(i % 7),
                      Value::Double(static_cast<double>(i) * 0.5)});
    }
    EXPECT_TRUE(db->BulkLoad("big", rows).ok());
  }

  storage::BlockDevice disk;
  PlainPageStore store{&disk};
  std::unique_ptr<Database> db = Database::CreatePaged(&store);
};

}  // namespace ironsafe::sql::testing_fixtures

#endif  // IRONSAFE_TESTS_EDGE_FIXTURES_H_
