// SQLite differential oracle (ctest label `oracle`). SQLite shares no
// parser, evaluator or key encoding with the engine, so a bug the plain
// and oblivious pipelines share still shows up here. Checked against
// SQLite (tests/sqlite_oracle.h has the dialect shim and the comparison
// rules):
//   - Database::Execute on all 22 TPC-H queries at SF 0.001;
//   - oblivious mode on 19 of them at SF 0.001, and on Q2/Q17/Q21 (whose
//     correlated subqueries re-run per padded outer row) at SF 0.00025;
//   - every CsaSystem configuration and the sharded fleet at 1 and 4
//     shards, on the 16 evaluated queries;
//   - the NULL, empty-table and page-straddling edge fixtures;
//   - 200 seeded random SELECTs over small tables with NULLs, in memory,
//     paged and oblivious. IRONSAFE_ORACLE_SEED picks the seed.
// Each check prints the row count it compared. At SF 0.001, Q2, Q8, Q21
// and Q22 return 0 rows (Q2 and Q21 also at SF 0.00025), so only their
// empty results are compared.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "dist/fleet.h"
#include "edge_fixtures.h"
#include "engine/csa_system.h"
#include "sql/database.h"
#include "sqlite_oracle.h"
#include "storage/block_device.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/table_spec.h"

namespace ironsafe::sql {
namespace {

using oracle::SqliteOracle;

constexpr double kScaleFactor = 0.001;
constexpr double kSmallScaleFactor = 0.00025;  // oblivious Q2/Q21

ExecOptions ObliviousOpts() {
  ExecOptions opts;
  opts.oblivious = true;
  return opts;
}

/// Checks the engine's result for `sql` against SQLite's for
/// `sqlite_sql` and prints the compared row count.
void ExpectMatches(SqliteOracle* lite, const std::string& label,
                   const std::string& sql, const std::string& sqlite_sql,
                   const Result<QueryResult>& got) {
  ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString() << "\n"
                        << sql;
  std::printf("[oracle] %-32s %6zu rows compared\n", label.c_str(),
              got->rows.size());
  EXPECT_EQ(lite->Check(sql, sqlite_sql, *got), "") << label << "\n" << sql;
}

void ExpectMatches(SqliteOracle* lite, const std::string& label,
                   const std::string& sql, const Result<QueryResult>& got) {
  ExpectMatches(lite, label, sql, oracle::ToSqliteDialect(sql), got);
}

std::string QueryLabel(const tpch::TpchQuery& q, const std::string& target) {
  return "Q" + std::to_string(q.number) + " " + target;
}

Status LoadTpch(double sf, Database* db) {
  tpch::TpchGenerator gen(tpch::TpchConfig{sf, 42});
  return gen.LoadInto(db);
}

std::unique_ptr<SqliteOracle> OracleFor(const Database& db) {
  auto lite = std::make_unique<SqliteOracle>();
  Status st = lite->LoadFrom(db);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return lite;
}

// ---------------------------------------------------------------------------
// TPC-H through Database::Execute, plain and oblivious.
// ---------------------------------------------------------------------------

class OracleTpch : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Database::CreateInMemory();
    ASSERT_TRUE(LoadTpch(kScaleFactor, db_.get()).ok());
    lite_ = OracleFor(*db_);
  }

  void CheckAll(const std::vector<tpch::TpchQuery>& queries,
                const ExecOptions& opts, const std::string& target) {
    for (const auto& q : queries) {
      ExpectMatches(lite_.get(), QueryLabel(q, target), q.sql,
                    db_->Execute(q.sql, nullptr, opts));
    }
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<SqliteOracle> lite_;
};

TEST_F(OracleTpch, EvaluatedQueriesMatchSqlite) {
  CheckAll(tpch::Queries(), ExecOptions{}, "plain");
}

TEST_F(OracleTpch, ExtendedQueriesMatchSqlite) {
  CheckAll(tpch::ExtendedQueries(), ExecOptions{}, "plain");
}

/// Q2, Q17 and Q21 re-run a correlated subquery per padded outer row in
/// oblivious mode — quadratic in the scale factor (Q17 alone takes a
/// minute at SF 0.001) — so they run on the small fixture.
bool SlowOblivious(const tpch::TpchQuery& q) {
  return q.number == 2 || q.number == 17 || q.number == 21;
}

TEST_F(OracleTpch, ObliviousEvaluatedQueriesMatchSqlite) {
  std::vector<tpch::TpchQuery> queries;
  for (const auto& q : tpch::Queries()) {
    if (!SlowOblivious(q)) queries.push_back(q);
  }
  CheckAll(queries, ObliviousOpts(), "oblivious");
}

TEST_F(OracleTpch, ObliviousExtendedQueriesMatchSqlite) {
  std::vector<tpch::TpchQuery> queries;
  for (const auto& q : tpch::ExtendedQueries()) {
    if (!SlowOblivious(q)) queries.push_back(q);
  }
  CheckAll(queries, ObliviousOpts(), "oblivious");
}

TEST(OracleTpchSmall, ObliviousCorrelatedQueriesMatchSqlite) {
  auto db = Database::CreateInMemory();
  ASSERT_TRUE(LoadTpch(kSmallScaleFactor, db.get()).ok());
  auto lite = OracleFor(*db);
  std::vector<tpch::TpchQuery> all = tpch::Queries();
  all.insert(all.end(), tpch::ExtendedQueries().begin(),
             tpch::ExtendedQueries().end());
  for (const auto& q : all) {
    if (!SlowOblivious(q)) continue;
    ExpectMatches(lite.get(), QueryLabel(q, "oblivious sf=0.00025"), q.sql,
                  db->Execute(q.sql, nullptr, ObliviousOpts()));
  }
}

// ---------------------------------------------------------------------------
// The split-execution systems: every CsaSystem configuration, and the
// sharded fleet.
// ---------------------------------------------------------------------------

class OracleCsa : public ::testing::TestWithParam<engine::SystemConfig> {};

TEST_P(OracleCsa, EvaluatedQueriesMatchSqlite) {
  engine::CsaOptions options;
  options.scale_factor = kScaleFactor;
  auto system = engine::CsaSystem::Create(options);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_TRUE((*system)
                  ->Load([](Database* db) { return LoadTpch(kScaleFactor, db); })
                  .ok());
  auto lite = OracleFor(*(*system)->plain_db());
  const std::string target(engine::SystemConfigName(GetParam()));
  for (const auto& q : tpch::Queries()) {
    auto outcome = (*system)->Run(GetParam(), q.sql);
    ASSERT_TRUE(outcome.ok()) << target << " Q" << q.number << ": "
                              << outcome.status().ToString();
    ExpectMatches(lite.get(), QueryLabel(q, target), q.sql,
                  std::move(outcome->result));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, OracleCsa,
    ::testing::Values(engine::SystemConfig::kHons, engine::SystemConfig::kHos,
                      engine::SystemConfig::kVcs, engine::SystemConfig::kScs,
                      engine::SystemConfig::kSos),
    [](const auto& p) {
      return std::string(engine::SystemConfigName(p.param));
    });

class OracleFleet : public ::testing::TestWithParam<int> {};

TEST_P(OracleFleet, EvaluatedQueriesMatchSqlite) {
  dist::FleetOptions options;
  options.shard_count = GetParam();
  options.partitions = tpch::TpchPartitionScheme();
  auto fleet = dist::ShardedCsaFleet::Create(options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ASSERT_TRUE((*fleet)
                  ->Load([](Database* db) { return LoadTpch(kScaleFactor, db); })
                  .ok());
  auto reference = Database::CreateInMemory();
  ASSERT_TRUE(LoadTpch(kScaleFactor, reference.get()).ok());
  auto lite = OracleFor(*reference);
  const std::string target = std::to_string(GetParam()) + " shards";
  for (const auto& q : tpch::Queries()) {
    auto outcome = (*fleet)->Run(q.sql);
    ASSERT_TRUE(outcome.ok()) << target << " Q" << q.number << ": "
                              << outcome.status().ToString();
    ExpectMatches(lite.get(), QueryLabel(q, target), q.sql,
                  std::move(outcome->result));
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, OracleFleet, ::testing::Values(1, 4),
                         [](const auto& p) {
                           return "Shards" + std::to_string(p.param);
                         });

// ---------------------------------------------------------------------------
// Edge fixtures (tests/edge_fixtures.h), plain and oblivious.
// ---------------------------------------------------------------------------

void CheckFixture(Database* db, const std::vector<std::string>& queries) {
  auto lite = OracleFor(*db);
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string label = "fixture #" + std::to_string(i);
    ExpectMatches(lite.get(), label + " plain", queries[i],
                  db->Execute(queries[i]));
    ExpectMatches(lite.get(), label + " oblivious", queries[i],
                  db->Execute(queries[i], nullptr, ObliviousOpts()));
  }
}

TEST(OracleEdge, EmptyTable) {
  auto db = testing_fixtures::EmptyTable();
  CheckFixture(db.get(), {
                             "SELECT * FROM t",
                             "SELECT a, b FROM t WHERE a > 3",
                             "SELECT count(*), sum(a), min(b) FROM t",
                             "SELECT b, sum(a) FROM t GROUP BY b",
                             "SELECT * FROM (SELECT 1 AS one) d",
                         });
}

TEST(OracleEdge, AllRowsFilteredOut) {
  auto db = testing_fixtures::SmallTables();
  CheckFixture(
      db.get(),
      {
          "SELECT * FROM t WHERE a > 100",
          "SELECT count(*), sum(a) FROM t WHERE a > 100",
          "SELECT b, count(*) FROM t WHERE a > 100 GROUP BY b",
          "SELECT t.b, u.c FROM t, u WHERE t.a = u.a AND t.a > 100",
          "SELECT t.b, u.c FROM t, u WHERE t.a = u.a ORDER BY t.b",
      });
}

TEST(OracleEdge, PagedTableStraddlingBatches) {
  testing_fixtures::PagedBigTable fixture;
  CheckFixture(
      fixture.db.get(),
      {
          "SELECT count(*), sum(k) FROM big",
          "SELECT count(*) FROM big WHERE k >= 2000 AND k < 2100",
          "SELECT grp, count(*), sum(v) FROM big GROUP BY grp ORDER BY grp",
          "SELECT k, v FROM big WHERE grp = 3 AND k > 4000 ORDER BY v DESC",
          // Every repeat of a value is dropped, not every other one.
          "SELECT DISTINCT grp FROM big ORDER BY grp",
      });
}

TEST(OracleEdge, NullSemantics) {
  auto db = testing_fixtures::NullTables();
  CheckFixture(
      db.get(),
      {
          "SELECT * FROM n WHERE a > 0",
          "SELECT * FROM n WHERE a IS NULL",
          "SELECT * FROM n WHERE a IS NOT NULL AND c > 1.0",
          "SELECT count(*), count(a), sum(a), avg(c), min(a) FROM n",
          "SELECT b, count(*), sum(a) FROM n GROUP BY b ORDER BY count(*)",
          "SELECT DISTINCT b FROM n",
          // Three-valued logic: NOT of unknown is unknown, so NULL rows
          // never pass a negated predicate.
          "SELECT * FROM n WHERE NOT (a > 2)",
          "SELECT * FROM n WHERE NOT (b LIKE 'x%')",
          "SELECT * FROM n WHERE NOT (c BETWEEN 1.0 AND 3.0)",
          "SELECT * FROM n WHERE NOT (a > 2 AND b = 'x')",
          "SELECT * FROM n WHERE NOT (a > 2 OR c > 2.0)",
          "SELECT * FROM n WHERE a > 2 OR b = 'x'",
          "SELECT a, a > 2, NOT (a > 2), a IN (1, NULL) FROM n",
          // [NOT] IN over a list or subquery holding NULL.
          "SELECT * FROM n WHERE a NOT IN (1, NULL)",
          "SELECT * FROM n WHERE NOT (a IN (1, NULL))",
          "SELECT * FROM n WHERE a IN (SELECT a FROM m)",
          "SELECT a FROM n WHERE a NOT IN (SELECT a FROM m)",
          "SELECT a FROM n WHERE a NOT IN (SELECT a FROM m WHERE a IS NOT NULL)",
          "SELECT a FROM n WHERE a NOT IN (SELECT m.a FROM m WHERE m.d > n.b)",
          // NULL equi-join keys never match.
          "SELECT n.a, m.d FROM n, m WHERE n.a = m.a ORDER BY n.a",
          "SELECT n.a, m.d FROM n JOIN m ON n.a = m.a",
          "SELECT n.b, m.d FROM n, m WHERE n.a = m.a AND n.c = n.c",
          "SELECT n.a, m.d FROM n, m WHERE n.a >= m.a AND n.a <= m.a",
          // -0.0 = 0.0, so DISTINCT keeps one of them.
          "SELECT DISTINCT (c - 2.0) * 0.0 FROM n",
      });
}

// ---------------------------------------------------------------------------
// Seeded random SELECTs. Each query is built once and printed in both
// dialects: they differ only where the engine and SQLite disagree by
// design (`/` is real division here, so SQLite sees a REAL operand;
// divisors are non-zero literals, as division by zero is an error here).
// ---------------------------------------------------------------------------

/// One expression, printed for the engine (`e`) and for SQLite (`s`).
struct Sql2 {
  std::string e, s;
};

Sql2 Same(const std::string& text) { return {text, text}; }

Sql2 Wrap(const std::string& pre, const Sql2& x, const std::string& post) {
  return {pre + x.e + post, pre + x.s + post};
}

Sql2 Join2(const Sql2& l, const std::string& op, const Sql2& r) {
  return {"(" + l.e + " " + op + " " + r.e + ")",
          "(" + l.s + " " + op + " " + r.s + ")"};
}

/// Column of a generated table. kind: 'i' integer, 'd' double,
/// 's' string, 't' date.
struct GenCol {
  std::string name;  // qualified
  char kind;
};

class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}

  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  int Pick(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  bool Chance(int percent) { return Pick(100) < percent; }

  Value IntValue() { return Value::Int(Pick(12) - 3); }
  Value DoubleValue() { return Value::Double((Pick(61) - 20) * 0.25); }
  Value StringValue() {
    static const char* kWords[] = {"apple", "apricot", "banana", "berry",
                                   "cherry", "plum", "pear"};
    return Value::String(kWords[Pick(7)]);
  }
  Value DateValue() { return Value::Date(9131 + Pick(700)); }  // 1995..1996

  Value ValueOf(char kind, int null_percent) {
    if (Chance(null_percent)) return Value::Null();
    switch (kind) {
      case 'i':
        return IntValue();
      case 'd':
        return DoubleValue();
      case 's':
        return StringValue();
      default:
        return DateValue();
    }
  }

  Sql2 Literal(char kind) {
    if (Chance(8)) return Same("NULL");
    switch (kind) {
      case 'i': {
        int64_t v = IntValue().AsInt();
        return Same(v < 0 ? "(" + std::to_string(v) + ")" : std::to_string(v));
      }
      case 'd': {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", DoubleValue().AsDouble());
        return Same(buf[0] == '-' ? "(" + std::string(buf) + ")" : buf);
      }
      case 's':
        return Same("'" + StringValue().AsString() + "'");
      default: {
        std::string iso = FormatDate(DateValue().AsInt());
        return {"DATE '" + iso + "'", "'" + iso + "'"};
      }
    }
  }

  const GenCol& ColOf(const std::vector<GenCol>& cols, const std::string& kinds) {
    for (;;) {
      const GenCol& c = cols[static_cast<size_t>(Pick(static_cast<int>(cols.size())))];
      if (kinds.find(c.kind) != std::string::npos) return c;
    }
  }

  /// Numeric expression; `*kind` returns 'i' or 'd'.
  Sql2 Numeric(const std::vector<GenCol>& cols, int depth, char* kind) {
    int choice = depth <= 0 ? Pick(3) : Pick(6);
    if (choice <= 1) {
      const GenCol& c = ColOf(cols, "id");
      *kind = c.kind;
      return Same(c.name);
    }
    if (choice == 2) {
      *kind = Chance(50) ? 'i' : 'd';
      return Literal(*kind);
    }
    if (choice == 3) {
      if (depth > 0 && Chance(30)) {
        // year() of a date column: the shim's UDF.
        *kind = 'i';
        return Same("year(" + ColOf(cols, "t").name + ")");
      }
      char k;
      Sql2 x = Numeric(cols, depth - 1, &k);
      *kind = 'd';
      std::string divisor = std::to_string(2 + Pick(4));  // never zero
      return {"(" + x.e + " / " + divisor + ")",
              "(CAST(" + x.s + " AS REAL) / " + divisor + ")"};
    }
    static const char* kOps[] = {"+", "-", "*"};
    char lk, rk;
    Sql2 l = Numeric(cols, depth - 1, &lk);
    Sql2 r = Numeric(cols, depth - 1, &rk);
    *kind = lk == 'd' || rk == 'd' ? 'd' : 'i';
    const char* op = kOps[Pick(3)];
    return Join2(l, op, r);
  }

  // Random draws happen in separate statements, never as sibling
  // function arguments, so a seed generates the same query under every
  // compiler's argument evaluation order.
  Sql2 Predicate(const std::vector<GenCol>& cols, int depth) {
    static const char* kCmp[] = {"=", "<>", "<", "<=", ">", ">="};
    int choice = depth <= 0 ? Pick(6) : Pick(9);
    switch (choice) {
      case 0: {
        char k;
        Sql2 l = Numeric(cols, 1, &k);
        Sql2 r = Numeric(cols, 1, &k);
        const char* op = kCmp[Pick(6)];
        return Join2(l, op, r);
      }
      case 1: {
        const GenCol& c = ColOf(cols, "st");
        const char* op = kCmp[Pick(6)];
        return Join2(Same(c.name), op, Literal(c.kind));
      }
      case 2: {
        const GenCol& c = ColOf(cols, "idt");
        Sql2 lo = Literal(c.kind);
        Sql2 hi = Literal(c.kind);
        std::string op = Chance(25) ? " NOT BETWEEN " : " BETWEEN ";
        return {"(" + c.name + op + lo.e + " AND " + hi.e + ")",
                "(" + c.name + op + lo.s + " AND " + hi.s + ")"};
      }
      case 3: {
        const GenCol& c = ColOf(cols, "ids");
        Sql2 list = Literal(c.kind);
        for (int i = Pick(3); i >= 0; --i) {
          Sql2 item = Literal(c.kind);
          list = {list.e + ", " + item.e, list.s + ", " + item.s};
        }
        std::string op = Chance(35) ? " NOT IN (" : " IN (";
        return Wrap("(" + c.name + op, list, "))");
      }
      case 4: {
        static const char* kPatterns[] = {"a%", "%e%", "_p%", "%y", "b_n%",
                                          "%"};
        const std::string& name = ColOf(cols, "s").name;
        std::string op = Chance(30) ? " NOT LIKE '" : " LIKE '";
        return Same("(" + name + op + kPatterns[Pick(6)] + "')");
      }
      case 5: {
        const GenCol& c = cols[static_cast<size_t>(Pick(static_cast<int>(cols.size())))];
        return Same("(" + c.name + (Chance(50) ? " IS NULL)" : " IS NOT NULL)"));
      }
      case 6:
      case 7: {
        Sql2 l = Predicate(cols, depth - 1);
        Sql2 r = Predicate(cols, depth - 1);
        return Join2(l, choice == 6 ? "AND" : "OR", r);
      }
      default:
        return Wrap("(NOT ", Predicate(cols, depth - 1), ")");
    }
  }

  /// One random SELECT over r1 (and r2 when joined), both dialects.
  Sql2 Select() {
    static const std::vector<GenCol> kR1 = {
        {"r1.id", 'i'}, {"r1.a", 'i'}, {"r1.b", 'd'}, {"r1.s", 's'},
        {"r1.dt", 't'}};
    static const std::vector<GenCol> kR2 = {
        {"r2.id", 'i'}, {"r2.k", 'i'}, {"r2.c", 'd'}, {"r2.t", 's'}};
    static const char* kJoinKeys[][2] = {
        {"r1.a", "r2.k"}, {"r1.s", "r2.t"}, {"r1.id", "r2.id"}, {"r1.b", "r2.c"}};
    std::vector<GenCol> cols = kR1;
    Sql2 from = Same("r1");
    std::vector<Sql2> conjuncts;
    if (Chance(35)) {
      cols.insert(cols.end(), kR2.begin(), kR2.end());
      const auto& key = kJoinKeys[Pick(4)];
      std::string eq = std::string(key[0]) + " = " + key[1];
      if (Chance(50)) {
        from = Same("r1, r2");
        conjuncts.push_back(Same(eq));
      } else {
        from = Same("r1 JOIN r2 ON " + eq);
      }
    }
    if (Chance(75)) conjuncts.push_back(Predicate(cols, 2));

    std::vector<Sql2> items;
    std::string group_by;
    bool distinct = false;
    if (Chance(40)) {
      if (Chance(75)) {
        group_by = ColOf(cols, "idst").name;
        items.push_back(Same(group_by));
      }
      for (int n = 1 + Pick(3); n > 0; --n) items.push_back(Aggregate(cols));
    } else {
      distinct = Chance(20);
      for (int n = 1 + Pick(3); n > 0; --n) {
        char kind;
        items.push_back(Chance(50) ? Same(ColOf(cols, "idst").name)
                                   : Numeric(cols, 2, &kind));
      }
    }

    Sql2 sql = Same(distinct ? "SELECT DISTINCT " : "SELECT ");
    std::string order;
    for (size_t i = 0; i < items.size(); ++i) {
      std::string alias = " AS c" + std::to_string(i);
      std::string sep = i > 0 ? ", " : "";
      sql = {sql.e + sep + items[i].e + alias, sql.s + sep + items[i].s + alias};
      order += sep + "c" + std::to_string(i) + (Chance(30) ? " DESC" : "");
    }
    sql = {sql.e + " FROM " + from.e, sql.s + " FROM " + from.s};
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      std::string kw = i == 0 ? " WHERE " : " AND ";
      sql = {sql.e + kw + conjuncts[i].e, sql.s + kw + conjuncts[i].s};
    }
    std::string tail;
    if (!group_by.empty()) tail += " GROUP BY " + group_by;
    tail += " ORDER BY " + order;
    if (Chance(30)) tail += " LIMIT " + std::to_string(1 + Pick(8));
    return {sql.e + tail, sql.s + tail};
  }

 private:
  /// COUNT/SUM/MIN/MAX/AVG. SUM and AVG take division-free arguments:
  /// summation order differs between the engines, and only exactly
  /// representable addends keep the sums equal.
  Sql2 Aggregate(const std::vector<GenCol>& cols) {
    char kind;
    switch (Pick(6)) {
      case 0:
        return Same("count(*)");
      case 1:
        return Same("count(" + ColOf(cols, "idst").name + ")");
      case 2:
        return Wrap("sum(", Numeric(cols, 0, &kind), ")");
      case 3:
        return Same("min(" + ColOf(cols, "idst").name + ")");
      case 4:
        return Same("max(" + ColOf(cols, "idst").name + ")");
      default:
        return Same("avg(" + ColOf(cols, "id").name + ")");
    }
  }

  uint64_t state_;
};

uint64_t OracleSeed() {
  const char* env = std::getenv("IRONSAFE_ORACLE_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
}

/// Creates r1/r2 in `db` and loads the given rows.
void LoadRandomTables(Database* db, const std::vector<Row>& r1,
                      const std::vector<Row>& r2) {
  Schema s1, s2;
  s1.AddColumn(Column{"id", Type::kInt64});
  s1.AddColumn(Column{"a", Type::kInt64});
  s1.AddColumn(Column{"b", Type::kDouble});
  s1.AddColumn(Column{"s", Type::kString});
  s1.AddColumn(Column{"dt", Type::kDate});
  s2.AddColumn(Column{"id", Type::kInt64});
  s2.AddColumn(Column{"k", Type::kInt64});
  s2.AddColumn(Column{"c", Type::kDouble});
  s2.AddColumn(Column{"t", Type::kString});
  ASSERT_TRUE(db->CreateTable("r1", s1).ok());
  ASSERT_TRUE(db->CreateTable("r2", s2).ok());
  ASSERT_TRUE(db->BulkLoad("r1", r1).ok());
  ASSERT_TRUE(db->BulkLoad("r2", r2).ok());
}

TEST(OracleRandom, GeneratedSelectsMatchSqlite) {
  constexpr int kQueries = 200;
  const uint64_t seed = OracleSeed();
  std::printf("[oracle] random SELECTs, IRONSAFE_ORACLE_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  QueryGen gen(seed);
  std::vector<Row> r1, r2;
  for (int i = 0; i < 60; ++i) {
    r1.push_back({Value::Int(i + 1), gen.ValueOf('i', 15), gen.ValueOf('d', 15),
                  gen.ValueOf('s', 15), gen.ValueOf('t', 15)});
  }
  for (int i = 0; i < 40; ++i) {
    r2.push_back({Value::Int(i + 1), gen.ValueOf('i', 15), gen.ValueOf('d', 15),
                  gen.ValueOf('s', 15)});
  }
  auto memory = Database::CreateInMemory();
  storage::BlockDevice disk;
  PlainPageStore store(&disk);
  auto paged = Database::CreatePaged(&store);
  LoadRandomTables(memory.get(), r1, r2);
  LoadRandomTables(paged.get(), r1, r2);
  auto lite = OracleFor(*memory);
  for (int i = 0; i < kQueries; ++i) {
    Sql2 q = gen.Select();
    SCOPED_TRACE("seed " + std::to_string(seed) + " query #" +
                 std::to_string(i) + "\nsqlite: " + q.s);
    const std::string label = "random #" + std::to_string(i);
    ExpectMatches(lite.get(), label + " memory", q.e, q.s, memory->Execute(q.e));
    ExpectMatches(lite.get(), label + " paged", q.e, q.s, paged->Execute(q.e));
    ExpectMatches(lite.get(), label + " oblivious", q.e, q.s,
                  memory->Execute(q.e, nullptr, ObliviousOpts()));
  }
}

}  // namespace
}  // namespace ironsafe::sql
