// Selection-vector edge cases of the vectorized engine: empty batches,
// fully-filtered batches, batches straddling page boundaries, NULLs,
// and in-memory batch units shared by concurrent morsel workers.
// Each case pins the counts it can state exactly; tests/sql_oracle_test.cc
// runs the same fixtures against SQLite for the full row sets. The join
// cases pin the gathered output units cell by cell against units built
// from materialized rows, and the subquery cases pin that a cached
// subquery result is shared, not re-executed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "sql/column_batch.h"
#include "sql/database.h"
#include "sql/exec_internal.h"
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

// ---------------- join gather ----------------

/// `rows` under `schema` qualified by `alias`, cut into batches of
/// `batch_rows`; with `odd_only` just the odd rows of each batch are
/// active, so the join reads through selection vectors.
VecRel MakeRel(const std::string& alias, const Schema& schema,
                     const std::vector<Row>& rows, size_t batch_rows,
                     bool odd_only = false) {
  VecRel rel;
  rel.schema = schema.Qualified(alias);
  for (size_t begin = 0; begin < rows.size(); begin += batch_rows) {
    auto batch = std::make_shared<ColumnBatch>(schema.size());
    SelVec sel;
    for (size_t r = begin; r < std::min(rows.size(), begin + batch_rows);
         ++r) {
      if (!odd_only || (r - begin) % 2 == 1) {
        sel.push_back(static_cast<uint32_t>(batch->rows()));
      }
      batch->AppendRow(rows[r]);
    }
    rel.batches.push_back(VecBatch{std::move(batch), std::move(sel)});
  }
  return rel;
}

std::vector<Row> ActiveRows(const VecRel& rel) {
  std::vector<Row> rows;
  for (const VecBatch& b : rel.batches) {
    for (uint32_t i : b.sel) b.batch->MaterializeRow(i, &rows.emplace_back());
  }
  return rows;
}

/// What a row-at-a-time join builds: every pair passing `on` (unknown
/// drops it), materialized, concatenated and appended with AppendRow to
/// units cut at kBatchRows rows. Pairs run probe-major: left-major when
/// the right input is the build side (or for a nested loop).
std::vector<std::shared_ptr<ColumnBatch>> ReferenceJoin(
    const VecRel& left, const VecRel& right, const Expr* on,
    bool left_major) {
  Schema combined = Schema::Concat(left.schema, right.schema);
  std::vector<Row> lrows = ActiveRows(left);
  std::vector<Row> rrows = ActiveRows(right);
  Evaluator eval(nullptr);
  std::vector<std::shared_ptr<ColumnBatch>> units;
  auto visit = [&](const Row& l, const Row& r) {
    Row joined = l;
    joined.insert(joined.end(), r.begin(), r.end());
    if (on != nullptr) {
      auto ok = eval.EvalBool(*on, EvalScope{&combined, &joined, nullptr});
      ASSERT_TRUE(ok.ok()) << ok.status().ToString();
      if (!*ok) return;
    }
    if (units.empty() || units.back()->rows() == ColumnBatch::kBatchRows) {
      units.push_back(std::make_shared<ColumnBatch>(combined.size()));
    }
    units.back()->AppendRow(joined);
  };
  if (left_major) {
    for (const Row& l : lrows) {
      for (const Row& r : rrows) visit(l, r);
    }
  } else {
    for (const Row& r : rrows) {
      for (const Row& l : lrows) visit(l, r);
    }
  }
  return units;
}

/// Joins `left` and `right` on `on_sql` (empty: a cross join) through the
/// engine and checks every output unit against ReferenceJoin, field by
/// field. Returns the number of joined rows.
size_t ExpectJoinMatchesRows(const VecRel& left,
                             const VecRel& right,
                             const std::string& on_sql, bool left_major) {
  ExprPtr on;
  if (!on_sql.empty()) {
    auto parsed = ParseExpression(on_sql);
    EXPECT_TRUE(parsed.ok()) << on_sql;
    if (!parsed.ok()) return 0;
    on = std::move(*parsed);
  }
  std::vector<std::shared_ptr<ColumnBatch>> want =
      ReferenceJoin(left, right, on.get(), left_major);

  auto db = Database::CreateInMemory();
  sim::CostModel cost;
  exec::Ctx ctx(db.get(), &cost, ExecOptions{}, nullptr, nullptr);
  std::vector<ConjunctInfo> conjuncts;
  auto got = exec::JoinRelationsVec(&ctx, left, right, &conjuncts, on.get());
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  if (!got.ok()) return 0;
  EXPECT_EQ(got->schema.size(), left.schema.size() + right.schema.size());
  EXPECT_EQ(got->batches.size(), want.size()) << on_sql;
  size_t rows = 0;
  for (size_t b = 0; b < std::min(got->batches.size(), want.size()); ++b) {
    const ColumnBatch& g = *got->batches[b].batch;
    const ColumnBatch& w = *want[b];
    SCOPED_TRACE("unit " + std::to_string(b) + " of " + on_sql);
    EXPECT_EQ(got->batches[b].sel.size(), g.rows());
    for (size_t i = 0; i < got->batches[b].sel.size(); ++i) {
      EXPECT_EQ(got->batches[b].sel[i], i);
    }
    EXPECT_EQ(g.rows(), w.rows());
    if (g.rows() != w.rows()) continue;
    rows += g.rows();
    EXPECT_EQ(g.num_cols(), w.num_cols());
    for (size_t c = 0; c < std::min(g.num_cols(), w.num_cols()); ++c) {
      const ColumnBatch::Col& gc = g.col(c);
      const ColumnBatch::Col& wc = w.col(c);
      EXPECT_EQ(gc.tags, wc.tags) << "col " << c;
      EXPECT_EQ(gc.nums, wc.nums) << "col " << c;
      EXPECT_EQ(gc.strs, wc.strs) << "col " << c;
      EXPECT_EQ(gc.has_null, wc.has_null) << "col " << c;
      EXPECT_EQ(gc.has_string, wc.has_string) << "col " << c;
      EXPECT_EQ(gc.uniform(), wc.uniform()) << "col " << c;
    }
    for (size_t r = 0; r < g.rows(); ++r) {
      EXPECT_EQ(g.row_bytes(r), w.row_bytes(r)) << "row " << r;
    }
    EXPECT_EQ(g.total_row_bytes(), w.total_row_bytes());
  }
  return rows;
}

Schema TwoCols(Type payload) {
  return Schema({Column{"k", Type::kInt64}, Column{"v", payload}});
}

double NanWithPayload() {
  uint64_t bits = 0x7ff800000000beefULL;
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

TEST(JoinGather, EdgeCellsMatchMaterializedRows) {
  // Keys: NULLs, INT and DOUBLE mixed in one column, -0.0 against 0.
  // Payloads: NULLs, a NaN with a payload, empty and 3 KiB strings.
  const std::string big(3 * 1024, 'q');
  std::vector<Row> lrows = {
      {Value::Int(1), Value::String("")},
      {Value::Null(), Value::String("null-key")},
      {Value::Double(2.0), Value::String(big)},
      {Value::Int(0), Value::Null()},
      {Value::Int(3), Value::String("three")},
      {Value::Double(1.0), Value::Int(7)},
  };
  std::vector<Row> rrows = {
      {Value::Double(1.0), Value::Double(NanWithPayload())},
      {Value::Int(2), Value::Null()},
      {Value::Double(-0.0), Value::Double(-0.0)},
      {Value::Null(), Value::Double(1.5)},
      {Value::Int(1), Value::Int(9)},
  };
  auto left = MakeRel("l", TwoCols(Type::kString), lrows, 4);
  auto right = MakeRel("r", TwoCols(Type::kDouble), rrows, 2);
  ASSERT_LE(right.ActiveBytes(), left.ActiveBytes());  // right builds
  // l.k = 1 and 1.0 each meet r.k 1.0 and 1; 2.0 meets 2; 0 meets -0.0.
  EXPECT_EQ(ExpectJoinMatchesRows(left, right, "l.k = r.k", true), 6u);
  // Swapped inputs: the smaller (left) side builds, so rows come
  // probe-major over the right input.
  EXPECT_EQ(ExpectJoinMatchesRows(right, left, "r.k = l.k", false), 6u);
}

TEST(JoinGather, EmptyBuildSide) {
  std::vector<Row> lrows = {{Value::Int(1), Value::Int(1)}};
  auto left = MakeRel("l", TwoCols(Type::kInt64), lrows, 4);
  auto right = MakeRel("r", TwoCols(Type::kInt64), {}, 4);
  EXPECT_EQ(ExpectJoinMatchesRows(left, right, "l.k = r.k", true), 0u);
  EXPECT_EQ(ExpectJoinMatchesRows(left, right, "", true), 0u);
  // Every build row NULL-keyed: the table is empty.
  auto nulls = MakeRel("r", TwoCols(Type::kInt64),
                       {{Value::Null(), Value::Int(2)}}, 4);
  EXPECT_EQ(ExpectJoinMatchesRows(left, nulls, "l.k = r.k", true), 0u);
}

TEST(JoinGather, ManyToManyOutputsCutAtBatchRows) {
  // One key with a x b matches: the output straddles kBatchRows exactly
  // at, one below and one above the cut, and across two cuts.
  static_assert(ColumnBatch::kBatchRows == 2048);
  const std::pair<int, int> shapes[] = {
      {89, 23}, {64, 32}, {683, 3}, {241, 17}};
  const size_t want_rows[] = {2047, 2048, 2049, 4097};
  for (size_t s = 0; s < 4; ++s) {
    auto [a, b] = shapes[s];
    std::vector<Row> lrows, rrows;
    for (int i = 0; i < a; ++i) {
      lrows.push_back({Value::Int(5), Value::Int(i)});
      lrows.push_back({Value::Int(6), Value::Int(-i)});  // matches nothing
    }
    for (int i = 0; i < b; ++i) {
      rrows.push_back({Value::Int(5), i % 2 == 0 ? Value::Double(i * 0.5)
                                                  : Value::Int(i)});
    }
    auto left = MakeRel("l", TwoCols(Type::kInt64), lrows, 100);
    auto right = MakeRel("r", TwoCols(Type::kDouble), rrows, 7);
    ASSERT_LE(right.ActiveBytes(), left.ActiveBytes());
    EXPECT_EQ(ExpectJoinMatchesRows(left, right, "l.k = r.k", true),
              want_rows[s]);
  }
}

TEST(JoinGather, ResidualUnknownDropsThePair) {
  std::vector<Row> lrows, rrows;
  for (int i = 0; i < 3000; ++i) {
    lrows.push_back({Value::Int(i % 40),
                     i % 11 == 0 ? Value::Null() : Value::Int(i % 13)});
  }
  for (int i = 0; i < 60; ++i) {
    rrows.push_back({Value::Int(i % 40),
                     i % 7 == 0 ? Value::Null() : Value::Double(i % 9)});
  }
  auto left = MakeRel("l", TwoCols(Type::kInt64), lrows, 512, true);
  auto right = MakeRel("r", TwoCols(Type::kDouble), rrows, 16);
  // The residual is NULL (unknown) wherever either payload is NULL; the
  // candidates exceed kBatchRows, so several candidate batches filter.
  size_t rows = ExpectJoinMatchesRows(left, right,
                                      "l.k = r.k AND l.v < r.v", true);
  EXPECT_GT(rows, 0u);
  // Two residuals, the second evaluated only where the first passed.
  EXPECT_GT(ExpectJoinMatchesRows(left, right,
                                  "l.k = r.k AND l.v < r.v AND r.v <> 3",
                                  true),
            0u);
}

TEST(JoinGather, NestedLoopIsLeftMajor) {
  std::vector<Row> lrows, rrows;
  for (int i = 0; i < 70; ++i) {
    Value name = Value::String("l" + std::to_string(i));
    lrows.push_back({Value::Int(i), i % 5 == 0 ? Value::Null() : name});
  }
  for (int i = 0; i < 61; ++i) {
    rrows.push_back({Value::Double(i * 0.75), Value::Int(i)});
  }
  auto left = MakeRel("l", TwoCols(Type::kString), lrows, 32);
  auto right = MakeRel("r", TwoCols(Type::kInt64), rrows, 20, true);
  // A cross join (70 x 30 rows: across one cut) and a residual-only one.
  EXPECT_EQ(ExpectJoinMatchesRows(left, right, "", true), 70u * 30u);
  EXPECT_GT(ExpectJoinMatchesRows(left, right, "l.k < r.k", true), 0u);
}

// ---------------- shared subquery results ----------------

/// `t (a INTEGER)` holding 1..3 and `u (g INTEGER)` holding 1..5.
std::unique_ptr<Database> SubqueryTables() {
  auto db = Database::CreateInMemory();
  testing_fixtures::MustExecute(db.get(), "CREATE TABLE t (a INTEGER)");
  testing_fixtures::MustExecute(db.get(), "INSERT INTO t VALUES (1), (2), (3)");
  testing_fixtures::MustExecute(db.get(), "CREATE TABLE u (g INTEGER)");
  testing_fixtures::MustExecute(
      db.get(), "INSERT INTO u VALUES (1), (2), (3), (4), (5)");
  return db;
}

TEST(SubquerySharing, UncorrelatedRunsOnceAndIsShared) {
  // Each form evaluates over the outer rows of u; between outer rows a
  // row lands in t. A re-execution would see it; the shared first
  // result does not.
  struct Case {
    const char* expr;
    std::vector<std::string> want;  // per outer row g = 1..5
  };
  const Case cases[] = {
      {"u.g IN (SELECT a FROM t)",
       {"TRUE", "TRUE", "TRUE", "FALSE", "FALSE"}},
      {"EXISTS (SELECT a FROM t WHERE a > 2)",
       {"TRUE", "TRUE", "TRUE", "TRUE", "TRUE"}},
      {"(SELECT max(a) FROM t)", {"3", "3", "3", "3", "3"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.expr);
    auto db = SubqueryTables();
    auto expr = ParseExpression(c.expr);
    ASSERT_TRUE(expr.ok()) << expr.status().ToString();
    const Expr* sub = expr->get();
    ASSERT_NE(sub->subquery, nullptr);
    exec::ExecSubqueryRunner runner(db.get(), nullptr, ExecOptions{});
    Evaluator eval(&runner);
    Schema schema({Column{"u.g", Type::kInt64}});
    std::shared_ptr<const QueryResult> first;
    for (int g = 1; g <= 5; ++g) {
      Row row = {Value::Int(g)};
      EvalScope scope{&schema, &row, nullptr};
      auto v = eval.Eval(**expr, scope);
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      EXPECT_EQ(v->ToString(), c.want[g - 1]) << "g=" << g;
      auto shared = runner.RunSubquery(*sub->subquery, &scope);
      ASSERT_TRUE(shared.ok());
      if (first == nullptr) first = *shared;
      EXPECT_EQ(shared->get(), first.get()) << "g=" << g;
      EXPECT_TRUE(runner.IsCached(*sub->subquery));
      testing_fixtures::MustExecute(db.get(), "INSERT INTO t VALUES (4)");
    }
  }
}

TEST(SubquerySharing, CorrelatedReExecutesPerOuterRow) {
  auto db = SubqueryTables();
  auto expr = ParseExpression("(SELECT count(*) FROM t WHERE t.a >= u.g)");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  exec::ExecSubqueryRunner runner(db.get(), nullptr, ExecOptions{});
  Evaluator eval(&runner);
  Schema schema({Column{"u.g", Type::kInt64}});
  std::shared_ptr<const QueryResult> previous;
  for (int g = 1; g <= 5; ++g) {
    Row row = {Value::Int(g)};
    EvalScope scope{&schema, &row, nullptr};
    auto v = eval.Eval(**expr, scope);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    // t holds 1..3 plus one 9 per earlier outer row.
    EXPECT_EQ(v->AsInt(), std::max(0, 4 - g) + (g - 1)) << "g=" << g;
    auto result = runner.RunSubquery(*(*expr)->subquery, &scope);
    ASSERT_TRUE(result.ok());
    EXPECT_NE(result->get(), previous.get());
    previous = *result;
    EXPECT_FALSE(runner.IsCached(*(*expr)->subquery));
    testing_fixtures::MustExecute(db.get(), "INSERT INTO t VALUES (9)");
  }
}

}  // namespace
}  // namespace ironsafe::sql
