// Selection-vector edge cases of the vectorized engine: empty batches,
// fully-filtered batches, batches straddling page boundaries, NULLs,
// and in-memory batch units shared by concurrent morsel workers.
// Each case pins the counts it can state exactly; tests/sql_oracle_test.cc
// runs the same fixtures against SQLite for the full row sets.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "sql/column_batch.h"
#include "sql/database.h"
#include "sql/parser.h"
#include "edge_fixtures.h"

namespace ironsafe::sql {
namespace {

QueryResult Exec(Database* db, const std::string& sql) {
  auto result = db->Execute(sql);
  EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
  return result.ok() ? std::move(*result) : QueryResult{};
}

TEST(VectorExecEdge, EmptyTableProducesEmptyBatches) {
  auto db = testing_fixtures::EmptyTable();
  EXPECT_EQ(Exec(db.get(), "SELECT * FROM t").rows.size(), 0u);
  EXPECT_EQ(Exec(db.get(), "SELECT a, b FROM t WHERE a > 3").rows.size(),
            0u);
  // Global aggregate over zero rows still yields exactly one row.
  auto agg = Exec(db.get(), "SELECT count(*), sum(a), min(b) FROM t");
  ASSERT_EQ(agg.rows.size(), 1u);
  EXPECT_EQ(agg.rows[0][0].AsInt(), 0);
  // Grouped aggregate over zero rows yields zero groups.
  EXPECT_EQ(Exec(db.get(), "SELECT b, sum(a) FROM t GROUP BY b").rows.size(),
            0u);
}

TEST(VectorExecEdge, AllRowsFilteredOut) {
  auto db = testing_fixtures::SmallTables();
  // The pushed filter empties every batch; downstream operators must
  // handle fully-dead selection vectors.
  EXPECT_EQ(Exec(db.get(), "SELECT * FROM t WHERE a > 100").rows.size(),
            0u);
  auto agg =
      Exec(db.get(), "SELECT count(*), sum(a) FROM t WHERE a > 100");
  ASSERT_EQ(agg.rows.size(), 1u);
  EXPECT_EQ(agg.rows[0][0].AsInt(), 0);
  EXPECT_EQ(
      Exec(db.get(),
              "SELECT b, count(*) FROM t WHERE a > 100 GROUP BY b")
          .rows.size(),
      0u);
  // Join where one side filters to nothing.
  EXPECT_EQ(Exec(db.get(),
                    "SELECT t.b, u.c FROM t, u WHERE t.a = u.a AND t.a > 100")
                .rows.size(),
            0u);
}

TEST(VectorExecEdge, BatchStraddlingPageBoundary) {
  // Paged tables decode one page per morsel unit; with thousands of rows
  // the scan produces many partial batches whose boundaries fall inside
  // and across pages — totals and per-group counts must be unaffected.
  testing_fixtures::PagedBigTable fixture;
  Database* db = fixture.db.get();
  constexpr int kRows = testing_fixtures::PagedBigTable::kRows;
  static_assert(kRows > 2 * static_cast<int>(ColumnBatch::kBatchRows));
  int64_t expect_sum_k = int64_t{kRows} * (kRows - 1) / 2;

  auto all = Exec(db, "SELECT count(*), sum(k) FROM big");
  ASSERT_EQ(all.rows.size(), 1u);
  EXPECT_EQ(all.rows[0][0].AsInt(), kRows);
  EXPECT_EQ(all.rows[0][1].AsInt(), expect_sum_k);

  auto filtered = Exec(
      db, "SELECT count(*) FROM big WHERE k >= 2000 AND k < 2100");
  ASSERT_EQ(filtered.rows.size(), 1u);
  EXPECT_EQ(filtered.rows[0][0].AsInt(), 100);

  auto grouped = Exec(
      db,
      "SELECT grp, count(*), sum(v) FROM big GROUP BY grp ORDER BY grp");
  EXPECT_EQ(grouped.rows.size(), 7u);
}

TEST(VectorExecEdge, NullHandlingParity) {
  auto db = testing_fixtures::NullTables();
  // NULLs never pass comparison filters.
  EXPECT_EQ(Exec(db.get(), "SELECT * FROM n WHERE a > 0").rows.size(), 3u);
  EXPECT_EQ(Exec(db.get(), "SELECT * FROM n WHERE a IS NULL").rows.size(), 2u);
  // Aggregates skip NULL inputs; count(*) does not.
  auto agg = Exec(
      db.get(), "SELECT count(*), count(a), sum(a), avg(c), min(a) FROM n");
  ASSERT_EQ(agg.rows.size(), 1u);
  EXPECT_EQ(agg.rows[0][0].AsInt(), 5);
  EXPECT_EQ(agg.rows[0][1].AsInt(), 3);
  // NULL group keys form one group of their own.
  EXPECT_EQ(Exec(db.get(), "SELECT b, count(*) FROM n GROUP BY b").rows.size(),
            3u);
}

TEST(VectorExecEdge, SharedMemoryUnitsUnderParallelScansAndRescans) {
  // An in-memory table hands its stored batch units to every scan: the
  // morsel workers of one scan and each correlated re-scan all read the
  // same batches. Real worker counts must not change rows or cost, and a
  // later INSERT must not disturb a result already computed.
  auto db = Database::CreateInMemory();
  testing_fixtures::MustExecute(db.get(),
                                "CREATE TABLE t (k INTEGER, g INTEGER)");
  testing_fixtures::MustExecute(db.get(), "CREATE TABLE u (g INTEGER)");
  std::vector<Row> rows;
  for (int k = 0; k < 8 * static_cast<int>(MemoryTable::kRowsPerMorsel);
       ++k) {
    rows.push_back(Row{Value::Int(k), Value::Int(k % 5)});
  }
  ASSERT_TRUE(db->BulkLoad("t", rows).ok());
  testing_fixtures::MustExecute(db.get(),
                                "INSERT INTO u VALUES (0), (2), (4)");
  auto t = db->GetTable("t");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ((*t)->morsel_units(), 8u);

  auto stmt = ParseSelect(
      "SELECT u.g, (SELECT count(*) FROM t WHERE t.g = u.g), "
      "(SELECT sum(k) FROM t WHERE t.k > 100 AND t.g = u.g) FROM u");
  ASSERT_TRUE(stmt.ok());
  ExecOptions opts;
  opts.parallelism = 8;
  std::optional<QueryResult> base;
  std::optional<sim::CostModel> base_cost;
  for (int workers : {1, 4, 16}) {
    common::ThreadPool::set_max_workers(workers);
    sim::CostModel cm;
    auto r = ExecuteSelect(db.get(), **stmt, nullptr, &cm, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 3u);
    if (!base.has_value()) {
      base = std::move(*r);
      base_cost = cm;
      continue;
    }
    for (size_t i = 0; i < r->rows.size(); ++i) {
      for (size_t c = 0; c < r->rows[i].size(); ++c) {
        EXPECT_EQ(r->rows[i][c].Compare(base->rows[i][c]), 0)
            << "workers=" << workers << " row " << i << " col " << c;
      }
    }
    EXPECT_EQ(cm, *base_cost) << "workers=" << workers;
  }
  common::ThreadPool::set_max_workers(0);
  EXPECT_EQ(base->rows[0][1].AsInt(), 8 * 1024 / 5 + 1);

  // A scan result holding the tail batch, then an INSERT into that tail.
  auto scanned = Exec(db.get(), "SELECT k FROM t WHERE k >= 8190");
  ASSERT_EQ(scanned.rows.size(), 2u);
  testing_fixtures::MustExecute(db.get(), "INSERT INTO t VALUES (9000, 0)");
  EXPECT_EQ(scanned.rows.size(), 2u);
  EXPECT_EQ(Exec(db.get(), "SELECT k FROM t WHERE k >= 8190").rows.size(),
            3u);
  EXPECT_EQ((*t)->morsel_units(), 9u);
}

}  // namespace
}  // namespace ironsafe::sql
