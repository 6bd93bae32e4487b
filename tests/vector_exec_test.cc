// Selection-vector edge cases of the vectorized engine: empty batches,
// fully-filtered batches, batches straddling page boundaries, NULLs.
// Each case pins the counts it can state exactly; tests/sql_oracle_test.cc
// runs the same fixtures against SQLite for the full row sets.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sql/column_batch.h"
#include "sql/database.h"
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

}  // namespace
}  // namespace ironsafe::sql
