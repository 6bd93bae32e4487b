#include <gtest/gtest.h>

#include <optional>

#include "common/thread_pool.h"
#include "sql/database.h"
#include "sql/eval.h"
#include "sql/parser.h"
#include "storage/block_device.h"

namespace ironsafe::sql {
namespace {

/// Where the fixture's tables live: in memory (column-batch units) or in
/// a heap file over plain pages.
enum class Storage { kMemory, kPaged };

class SqlExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = storage_kind() == Storage::kPaged ? Database::CreatePaged(&store_)
                                       : Database::CreateInMemory();
    Run("CREATE TABLE emp (id INTEGER, name VARCHAR, dept VARCHAR, "
        "salary DOUBLE, hired DATE)");
    Run("INSERT INTO emp VALUES "
        "(1, 'alice', 'eng', 120000.0, '2015-02-01'), "
        "(2, 'bob', 'eng', 95000.0, '2017-06-15'), "
        "(3, 'carol', 'sales', 80000.0, '2016-01-10'), "
        "(4, 'dave', 'sales', 85000.0, '2019-09-30'), "
        "(5, 'erin', 'hr', 70000.0, '2020-11-20')");
    Run("CREATE TABLE dept (dname VARCHAR, budget DOUBLE)");
    Run("INSERT INTO dept VALUES ('eng', 2000000.0), ('sales', 800000.0), "
        "('hr', 300000.0)");
  }

  QueryResult Run(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  Status RunStatus(const std::string& sql) {
    return db_->Execute(sql).status();
  }

  virtual Storage storage_kind() const { return Storage::kMemory; }

  storage::BlockDevice disk_;
  PlainPageStore store_{&disk_};
  std::unique_ptr<Database> db_;
};

/// The DML cases rewrite tables in place (Table::Rewrite), so they run
/// over both storages.
class SqlDmlTest : public SqlExecTest,
                   public ::testing::WithParamInterface<Storage> {
 protected:
  Storage storage_kind() const override { return GetParam(); }
};

std::string StorageName(const ::testing::TestParamInfo<Storage>& info) {
  return info.param == Storage::kPaged ? "Paged" : "Memory";
}

TEST_F(SqlExecTest, SelectStar) {
  auto r = Run("SELECT * FROM emp");
  EXPECT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.schema.size(), 5u);
}

TEST_F(SqlExecTest, WhereFilter) {
  auto r = Run("SELECT name FROM emp WHERE salary > 90000");
  ASSERT_EQ(r.rows.size(), 2u);
}

TEST_F(SqlExecTest, Projection) {
  auto r = Run("SELECT name, salary * 1.1 AS raised FROM emp WHERE id = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.schema.column(1).name, "raised");
  EXPECT_NEAR(r.rows[0][1].AsDouble(), 132000.0, 0.01);
}

TEST_F(SqlExecTest, OrderByAscDesc) {
  auto r = Run("SELECT name FROM emp ORDER BY salary DESC");
  EXPECT_EQ(r.rows[0][0].AsString(), "alice");
  EXPECT_EQ(r.rows.back()[0].AsString(), "erin");

  auto r2 = Run("SELECT name FROM emp ORDER BY name");
  EXPECT_EQ(r2.rows[0][0].AsString(), "alice");
  EXPECT_EQ(r2.rows[4][0].AsString(), "erin");
}

TEST_F(SqlExecTest, MultiKeyOrder) {
  auto r = Run("SELECT dept, name FROM emp ORDER BY dept, salary DESC");
  EXPECT_EQ(r.rows[0][1].AsString(), "alice");   // eng high
  EXPECT_EQ(r.rows[1][1].AsString(), "bob");     // eng low
}

TEST_F(SqlExecTest, Limit) {
  EXPECT_EQ(Run("SELECT * FROM emp LIMIT 2").rows.size(), 2u);
  EXPECT_EQ(Run("SELECT * FROM emp LIMIT 0").rows.size(), 0u);
}

TEST_F(SqlExecTest, Distinct) {
  auto r = Run("SELECT DISTINCT dept FROM emp");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(SqlExecTest, GlobalAggregates) {
  auto r = Run("SELECT count(*), sum(salary), avg(salary), min(name), "
               "max(hired) FROM emp");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
  EXPECT_NEAR(r.rows[0][1].AsDouble(), 450000.0, 0.01);
  EXPECT_NEAR(r.rows[0][2].AsDouble(), 90000.0, 0.01);
  EXPECT_EQ(r.rows[0][3].AsString(), "alice");
  EXPECT_EQ(FormatDate(r.rows[0][4].AsInt()), "2020-11-20");
}

TEST_F(SqlExecTest, AggregateOverEmptyInput) {
  auto r = Run("SELECT count(*), sum(salary) FROM emp WHERE id > 100");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(SqlExecTest, GroupBy) {
  auto r = Run("SELECT dept, count(*) AS n, avg(salary) AS pay FROM emp "
               "GROUP BY dept ORDER BY dept");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsString(), "eng");
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
  EXPECT_NEAR(r.rows[0][2].AsDouble(), 107500.0, 0.01);
}

TEST_F(SqlExecTest, GroupByExpression) {
  auto r = Run("SELECT year(hired) AS y, count(*) AS n FROM emp GROUP BY "
               "year(hired) ORDER BY y");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2015);
}

TEST_F(SqlExecTest, Having) {
  auto r = Run("SELECT dept, count(*) AS n FROM emp GROUP BY dept "
               "HAVING count(*) > 1 ORDER BY dept");
  ASSERT_EQ(r.rows.size(), 2u);  // eng, sales
}

TEST_F(SqlExecTest, CountDistinct) {
  auto r = Run("SELECT count(DISTINCT dept) FROM emp");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
}

TEST_F(SqlExecTest, ExplicitJoin) {
  auto r = Run("SELECT name, budget FROM emp JOIN dept ON dept = dname "
               "WHERE budget > 500000 ORDER BY name");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].AsString(), "alice");
}

TEST_F(SqlExecTest, CommaJoinWithWhereEquiKey) {
  auto r = Run("SELECT e.name FROM emp e, dept d WHERE e.dept = d.dname AND "
               "d.budget < 500000");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "erin");
}

TEST_F(SqlExecTest, CrossProductWithoutPredicate) {
  auto r = Run("SELECT count(*) FROM emp, dept");
  EXPECT_EQ(r.rows[0][0].AsInt(), 15);
}

TEST_F(SqlExecTest, SelfJoinWithAliases) {
  auto r = Run("SELECT a.name, b.name FROM emp a, emp b WHERE a.dept = b.dept "
               "AND a.id < b.id");
  EXPECT_EQ(r.rows.size(), 2u);  // (alice,bob), (carol,dave)
}

TEST_F(SqlExecTest, ScalarSubquery) {
  auto r = Run("SELECT name FROM emp WHERE salary = (SELECT max(salary) FROM emp)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "alice");
}

TEST_F(SqlExecTest, CorrelatedScalarSubquery) {
  // Employees earning above their department average.
  auto r = Run("SELECT name FROM emp e WHERE salary > "
               "(SELECT avg(salary) FROM emp e2 WHERE e2.dept = e.dept) "
               "ORDER BY name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "alice");
  EXPECT_EQ(r.rows[1][0].AsString(), "dave");
}

TEST_F(SqlExecTest, InSubquery) {
  auto r = Run("SELECT name FROM emp WHERE dept IN "
               "(SELECT dname FROM dept WHERE budget >= 800000) ORDER BY name");
  EXPECT_EQ(r.rows.size(), 4u);
}

TEST_F(SqlExecTest, NotExistsCorrelated) {
  Run("CREATE TABLE bonus (emp_id INTEGER)");
  Run("INSERT INTO bonus VALUES (1), (3)");
  auto r = Run("SELECT name FROM emp e WHERE NOT EXISTS "
               "(SELECT 1 FROM bonus b WHERE b.emp_id = e.id) ORDER BY name");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsString(), "bob");
}

TEST_F(SqlExecTest, CaseExpression) {
  auto r = Run("SELECT name, CASE WHEN salary >= 100000 THEN 'high' "
               "WHEN salary >= 80000 THEN 'mid' ELSE 'low' END AS band "
               "FROM emp ORDER BY id");
  EXPECT_EQ(r.rows[0][1].AsString(), "high");
  EXPECT_EQ(r.rows[2][1].AsString(), "mid");
  EXPECT_EQ(r.rows[4][1].AsString(), "low");
}

TEST_F(SqlExecTest, LikePatterns) {
  EXPECT_EQ(Run("SELECT name FROM emp WHERE name LIKE 'a%'").rows.size(), 1u);
  EXPECT_EQ(Run("SELECT name FROM emp WHERE name LIKE '%o%'").rows.size(), 2u);
  EXPECT_EQ(Run("SELECT name FROM emp WHERE name LIKE '_ob'").rows.size(), 1u);
  // bob and erin are the only names without an 'a'.
  EXPECT_EQ(Run("SELECT name FROM emp WHERE name NOT LIKE '%a%'").rows.size(),
            2u);
}

TEST_F(SqlExecTest, BetweenAndIn) {
  EXPECT_EQ(
      Run("SELECT * FROM emp WHERE salary BETWEEN 80000 AND 95000").rows.size(),
      3u);
  EXPECT_EQ(Run("SELECT * FROM emp WHERE dept IN ('eng', 'hr')").rows.size(),
            3u);
  EXPECT_EQ(
      Run("SELECT * FROM emp WHERE dept NOT IN ('eng', 'hr')").rows.size(),
      2u);
}

TEST_F(SqlExecTest, DateComparisonsAndArithmetic) {
  auto r = Run("SELECT name FROM emp WHERE hired < DATE '2017-01-01'");
  EXPECT_EQ(r.rows.size(), 2u);

  // < 2017-06-15 excludes bob, whose hire date is exactly the boundary.
  auto r2 = Run("SELECT name FROM emp WHERE hired < DATE '2016-06-15' + "
                "INTERVAL '1' YEAR");
  EXPECT_EQ(r2.rows.size(), 2u);
  auto r3 = Run("SELECT name FROM emp WHERE hired <= DATE '2016-06-15' + "
                "INTERVAL '1' YEAR");
  EXPECT_EQ(r3.rows.size(), 3u);
}

TEST_F(SqlExecTest, ScalarFunctions) {
  auto r = Run("SELECT substr(name, 1, 3), length(name), upper(dept) "
               "FROM emp WHERE id = 3");
  EXPECT_EQ(r.rows[0][0].AsString(), "car");
  EXPECT_EQ(r.rows[0][1].AsInt(), 5);
  EXPECT_EQ(r.rows[0][2].AsString(), "SALES");
}

TEST_F(SqlExecTest, ArithmeticSemantics) {
  auto r = Run("SELECT 7 / 2, 7 % 3, -salary FROM emp WHERE id = 1");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 3.5);
  EXPECT_EQ(r.rows[0][1].AsInt(), 1);
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), -120000.0);
}

TEST_F(SqlExecTest, DivisionByZeroFails) {
  EXPECT_FALSE(RunStatus("SELECT 1 / 0 FROM emp").ok());
}

TEST_F(SqlExecTest, UnknownColumnFails) {
  EXPECT_FALSE(RunStatus("SELECT nonexistent FROM emp").ok());
}

TEST_F(SqlExecTest, UnknownTableFails) {
  EXPECT_TRUE(RunStatus("SELECT * FROM ghosts").IsNotFound());
}

TEST_F(SqlExecTest, AmbiguousColumnFails) {
  EXPECT_FALSE(RunStatus("SELECT name FROM emp a, emp b").ok());
}

TEST_P(SqlDmlTest, DeleteWithPredicate) {
  auto r = Run("DELETE FROM emp WHERE dept = 'sales'");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(Run("SELECT count(*) FROM emp").rows[0][0].AsInt(), 3);
}

TEST_P(SqlDmlTest, Update) {
  auto r = Run("UPDATE emp SET salary = salary * 2 WHERE dept = 'hr'");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  auto check = Run("SELECT salary FROM emp WHERE name = 'erin'");
  EXPECT_NEAR(check.rows[0][0].AsDouble(), 140000.0, 0.01);
}

TEST_P(SqlDmlTest, InsertIntoSubsetOfColumns) {
  Run("INSERT INTO emp (id, name) VALUES (9, 'zed')");
  auto r = Run("SELECT dept FROM emp WHERE id = 9");
  EXPECT_TRUE(r.rows[0][0].is_null());
}

TEST_P(SqlDmlTest, RewriteAcrossManyUnitsAndAnUnflushedTail) {
  // 3000 bulk-loaded rows span many pages and 3 memory units; 100 more
  // appended without a bulk-load finish stay in the paged table's
  // unflushed tail (a 4th memory unit).
  constexpr int kLoaded = 3000;
  constexpr int kTail = 100;
  constexpr int kRows = kLoaded + kTail;
  Run("CREATE TABLE wide (k INTEGER, s VARCHAR)");
  auto row = [](int k) {
    return Row{Value::Int(k), Value::String("value-" + std::to_string(k))};
  };
  std::vector<Row> rows;
  for (int k = 0; k < kLoaded; ++k) rows.push_back(row(k));
  ASSERT_TRUE(db_->BulkLoad("wide", rows).ok());
  auto table = db_->GetTable("wide");
  ASSERT_TRUE(table.ok());
  for (int k = kLoaded; k < kRows; ++k) {
    ASSERT_TRUE((*table)->Append(row(k), nullptr).ok());
  }
  if (GetParam() == Storage::kPaged) {
    auto* paged = static_cast<PagedTable*>(*table);
    ASSERT_GE(paged->page_ids().size(), 3u);
    ASSERT_EQ((*table)->morsel_units(), paged->page_ids().size() + 1);
  } else {
    ASSERT_EQ((*table)->morsel_units(), 4u);
  }

  // Deletes the middle third, which straddles unit boundaries.
  auto del = Run("DELETE FROM wide WHERE k >= 1000 AND k < 2000");
  EXPECT_EQ(del.rows[0][0].AsInt(), 1000);
  auto upd = Run("UPDATE wide SET s = 'tail' WHERE k >= 2950");
  EXPECT_EQ(upd.rows[0][0].AsInt(), kRows - 2950);
  EXPECT_EQ((*table)->row_count(), static_cast<uint64_t>(kRows - 1000));

  auto all = Run("SELECT k, s FROM wide");
  ASSERT_EQ(all.rows.size(), static_cast<size_t>(kRows - 1000));
  size_t i = 0;
  for (int k = 0; k < kRows; ++k) {
    if (k >= 1000 && k < 2000) continue;
    ASSERT_EQ(all.rows[i][0].AsInt(), k);
    EXPECT_EQ(all.rows[i][1].AsString(),
              k >= 2950 ? "tail" : "value-" + std::to_string(k));
    ++i;
  }
  // Rows appended after the rewrite land after the rewritten ones.
  Run("INSERT INTO wide VALUES (-1, 'late')");
  auto last = Run("SELECT k FROM wide");
  ASSERT_EQ(last.rows.size(), static_cast<size_t>(kRows - 1000 + 1));
  EXPECT_EQ(last.rows.back()[0].AsInt(), -1);
}

TEST_P(SqlDmlTest, UpdateThatOutgrowsAPageFailsAndKeepsEveryRow) {
  // A paged row must fit in one 4 KiB page; the failed rewrite must drop
  // nothing and write nothing. A memory table has no page limit.
  const std::string big(4100, 'x');
  const auto frames_before = disk_.Snapshot().frames;
  Status st = RunStatus("UPDATE emp SET name = '" + big + "' WHERE id = 2");
  auto r = Run("SELECT id, name FROM emp");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[1][0].AsInt(), 2);
  if (GetParam() == Storage::kPaged) {
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_EQ(r.rows[1][1].AsString(), "bob");
    EXPECT_TRUE(disk_.Snapshot().frames == frames_before);
  } else {
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(r.rows[1][1].AsString(), big);
  }
}

TEST_P(SqlDmlTest, UpdateCoercesLiteralsLikeInsert) {
  Run("UPDATE emp SET hired = '2020-01-01', salary = 100 WHERE id = 1");
  Run("UPDATE emp SET hired = 18000 WHERE id = 2");
  auto r = Run("SELECT id, salary FROM emp WHERE hired = DATE '2020-01-01'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[0][1].type(), Type::kDouble);
  EXPECT_EQ(Run("SELECT hired FROM emp WHERE id = 2").rows[0][0].type(),
            Type::kDate);
}

INSTANTIATE_TEST_SUITE_P(Storage, SqlDmlTest,
                         ::testing::Values(Storage::kMemory, Storage::kPaged),
                         StorageName);

TEST_F(SqlExecTest, SelectWithoutFrom) {
  auto r = Run("SELECT 1 + 2 AS three, 'x'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
}

TEST_F(SqlExecTest, IsNullFiltering) {
  Run("INSERT INTO emp (id, name) VALUES (10, 'nix')");
  EXPECT_EQ(Run("SELECT * FROM emp WHERE dept IS NULL").rows.size(), 1u);
  EXPECT_EQ(Run("SELECT * FROM emp WHERE dept IS NOT NULL").rows.size(), 5u);
}

TEST(LikeMatchTest, Cases) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%llo"));
  EXPECT_TRUE(LikeMatch("hello", "%ell%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_FALSE(LikeMatch("hello", "h_lo"));
  EXPECT_TRUE(LikeMatch("abcabc", "%abc"));
  EXPECT_TRUE(LikeMatch("green metallic", "%green%"));
  EXPECT_FALSE(LikeMatch("gren", "%green%"));
}

// ---------------- paged + secure databases ----------------

TEST(PagedDatabaseTest, WorksOverPlainPages) {
  storage::BlockDevice disk;
  PlainPageStore store(&disk);
  auto db = Database::CreatePaged(&store);
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
  // Enough rows to span multiple pages.
  std::vector<Row> rows;
  for (int i = 0; i < 2000; ++i) {
    rows.push_back(Row{Value::Int(i), Value::String("row-" + std::to_string(i))});
  }
  ASSERT_TRUE(db->BulkLoad("t", rows).ok());
  auto t = db->GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_GT((*t)->page_count(), 5u);

  auto r = db->Execute("SELECT count(*), min(a), max(a) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 2000);
  EXPECT_EQ(r->rows[0][1].AsInt(), 0);
  EXPECT_EQ(r->rows[0][2].AsInt(), 1999);
}

TEST(PagedDatabaseTest, ChargesDiskCostPerScan) {
  storage::BlockDevice disk;
  PlainPageStore store(&disk);
  auto db = Database::CreatePaged(&store);
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER)").ok());
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) rows.push_back(Row{Value::Int(i)});
  ASSERT_TRUE(db->BulkLoad("t", rows).ok());

  sim::CostModel cm;
  ASSERT_TRUE(db->Execute("SELECT sum(a) FROM t", &cm).ok());
  EXPECT_GT(cm.disk_bytes(), 0u);
  EXPECT_GT(cm.elapsed_ns(), 0u);
}

TEST(PagedDatabaseTest, WorksOverSecureStore) {
  tee::DeviceManufacturer mfg(ToBytes("m"));
  tee::TrustZoneDevice device(ToBytes("s"), mfg, {"n1", "eu", 1});
  securestore::SecureStorageTa ta(&device);
  storage::BlockDevice disk;
  auto secure = securestore::SecureStore::Create(&disk, &ta);
  ASSERT_TRUE(secure.ok());
  SecurePageStore store(secure->get());

  auto db = Database::CreatePaged(&store);
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER, s VARCHAR)").ok());
  std::vector<Row> rows;
  for (int i = 0; i < 500; ++i) {
    rows.push_back(Row{Value::Int(i), Value::String("secret-" + std::to_string(i))});
  }
  ASSERT_TRUE(db->BulkLoad("t", rows).ok());

  sim::CostModel cm;
  auto r = db->Execute("SELECT count(*) FROM t WHERE a % 2 = 0", &cm);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 250);
  EXPECT_GT(cm.pages_decrypted(), 0u);
  EXPECT_GT(cm.freshness_ns(), 0u);
}

// ---------------- morsel-parallel execution ----------------

void ExpectSameRows(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t i = 0; i < a.rows.size(); ++i) {
    ASSERT_EQ(a.rows[i].size(), b.rows[i].size());
    for (size_t j = 0; j < a.rows[i].size(); ++j) {
      EXPECT_EQ(a.rows[i][j].Compare(b.rows[i][j]), 0)
          << "row " << i << " col " << j;
    }
  }
}

TEST(ParallelExecTest, WorkerCountNeverChangesResultsStatsOrCost) {
  storage::BlockDevice disk;
  PlainPageStore store(&disk);
  auto db = Database::CreatePaged(&store);
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
  std::vector<Row> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back(
        Row{Value::Int(i), Value::String("g" + std::to_string(i % 37))});
  }
  ASSERT_TRUE(db->BulkLoad("t", rows).ok());

  // Scan + filter + hash join + aggregation, at a fixed simulated
  // fan-out. Only the real worker count varies below; everything
  // observable must stay bit-identical.
  auto stmt = ParseSelect(
      "SELECT t1.b, count(*), sum(t1.a) FROM t t1 JOIN t t2 "
      "ON t1.a = t2.a WHERE t1.a % 3 = 0 GROUP BY t1.b ORDER BY t1.b");
  ASSERT_TRUE(stmt.ok());
  ExecOptions opts;
  opts.parallelism = 8;

  std::optional<QueryResult> base;
  std::optional<sim::CostModel> base_cost;
  ExecStats base_stats;
  for (int workers : {1, 4, 16}) {
    common::ThreadPool::set_max_workers(workers);
    sim::CostModel cm;
    ExecStats stats;
    auto r = ExecuteSelect(db.get(), **stmt, nullptr, &cm, opts, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (!base.has_value()) {
      base = std::move(*r);
      base_cost = cm;
      base_stats = stats;
      continue;
    }
    ExpectSameRows(*r, *base);
    EXPECT_EQ(stats, base_stats) << "workers=" << workers;
    EXPECT_EQ(cm, *base_cost) << "workers=" << workers;
  }
  common::ThreadPool::set_max_workers(0);
}

TEST(ParallelExecTest, MorselScanPreservesTableOrder) {
  storage::BlockDevice disk;
  PlainPageStore store(&disk);
  auto db = Database::CreatePaged(&store);
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER)").ok());
  std::vector<Row> rows;
  for (int i = 0; i < 10000; ++i) rows.push_back(Row{Value::Int(i)});
  ASSERT_TRUE(db->BulkLoad("t", rows).ok());

  common::ThreadPool::set_max_workers(16);
  ExecOptions opts;
  opts.parallelism = 16;
  sim::CostModel cm;
  auto stmt = ParseSelect("SELECT a FROM t");  // no ORDER BY
  ASSERT_TRUE(stmt.ok());
  auto r = ExecuteSelect(db.get(), **stmt, nullptr, &cm, opts);
  common::ThreadPool::set_max_workers(0);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 10000u);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(r->rows[i][0].AsInt(), i) << "morsel concatenation broke order";
  }
}

TEST(ParallelExecTest, SimulatedFanOutStillSpeedsUpSimulatedTime) {
  // The parallelism knob keeps its simulated meaning (Figure 10): more
  // ways divide the charged CPU cycles, independent of real workers.
  auto db = Database::CreateInMemory();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER)").ok());
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) rows.push_back(Row{Value::Int(i)});
  ASSERT_TRUE(db->BulkLoad("t", rows).ok());
  auto stmt = ParseSelect("SELECT count(*) FROM t WHERE a % 2 = 0");
  ASSERT_TRUE(stmt.ok());

  common::ThreadPool::set_max_workers(1);  // real threads pinned
  ExecOptions one, four;
  one.parallelism = 1;
  four.parallelism = 4;
  sim::CostModel cm1, cm4;
  ASSERT_TRUE(ExecuteSelect(db.get(), **stmt, nullptr, &cm1, one).ok());
  ASSERT_TRUE(ExecuteSelect(db.get(), **stmt, nullptr, &cm4, four).ok());
  common::ThreadPool::set_max_workers(0);
  EXPECT_GT(cm1.elapsed_ns(), cm4.elapsed_ns());
}

TEST(ExecOptionsTest, MemoryCapCausesSpillCharges) {
  auto db = Database::CreateInMemory();
  ASSERT_TRUE(db->Execute("CREATE TABLE big (a INTEGER, pad VARCHAR)").ok());
  std::vector<Row> rows;
  for (int i = 0; i < 3000; ++i) {
    rows.push_back(Row{Value::Int(i % 100), Value::String(std::string(100, 'x'))});
  }
  ASSERT_TRUE(db->BulkLoad("big", rows).ok());

  ExecOptions opts;
  opts.memory_cap_bytes = 1024;  // absurdly small: force spills
  sim::CostModel cm;
  ExecStats stats;
  auto stmt = ParseSelect(
      "SELECT a, count(*) FROM big b1, big b2 WHERE b1.a = b2.a GROUP BY a");
  // Use a cheaper query: hash join build side exceeds 1KB.
  auto stmt2 = ParseSelect("SELECT b1.a FROM big b1 JOIN big b2 ON b1.a = b2.a LIMIT 1");
  ASSERT_TRUE(stmt2.ok());
  auto r = ExecuteSelect(db.get(), **stmt2, nullptr, &cm, opts, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(stats.spill_bytes, 0u);
  EXPECT_GT(stats.peak_memory_bytes, opts.memory_cap_bytes);
  // The spill-out is a disk write (plus the read-back), not two reads.
  EXPECT_EQ(cm.disk_write_bytes(), stats.spill_bytes);
  EXPECT_GE(cm.disk_bytes(), 2 * stats.spill_bytes);
}

}  // namespace
}  // namespace ironsafe::sql
