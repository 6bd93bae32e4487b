// The oblivious mode's access-pattern-equality property harness
// (docs/OBLIVIOUS.md). The headline property: with ExecOptions::oblivious
// set, the access trace — operator events including every morsel-unit
// read, plus the deterministic span signature — is bit-identical across
// value-randomized same-shape inputs, for every oblivious operator and
// every TPC-H query, while the plain engine's traces diverge on the same
// inputs (the negative witness). The suite also pins the differential
// contract: oblivious vs plain agree on the result multiset and row
// counts while the oblivious cost is strictly higher; and all of it is
// invariant across 1/4/16 real workers. tests/sql_oracle_test.cc checks
// the oblivious rows against SQLite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/access_trace.h"
#include "obs/trace.h"
#include "sql/database.h"
#include "sql/oblivious_kernels.h"
#include "sql/parser.h"
#include "storage/block_device.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace ironsafe::sql {
namespace {

constexpr int kSeeds = 16;  // value-randomized variants per property

ExecOptions Oblivious() {
  ExecOptions opts;
  opts.oblivious = true;
  return opts;
}

ExecOptions Plain() { return ExecOptions{}; }

/// Everything observable about one traced execution.
struct Capture {
  std::string access;  ///< obs::AccessLog::ToString()
  uint64_t access_fp = 0;
  std::string spans;  ///< obs::DeterministicSpanSignature
  QueryResult result;
  ExecStats stats;
  sim::SimNanos cost_ns = 0;
};

Capture RunTraced(Database* db, const std::string& sql,
                  const ExecOptions& opts) {
  Capture out;
  auto stmt = ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << sql << " -> " << stmt.status().ToString();
  if (!stmt.ok()) return out;
  obs::Tracer tracer;
  obs::ScopedTracer tracer_scope(&tracer);
  obs::AccessLog log;
  obs::ScopedAccessLog log_scope(&log);
  sim::CostModel cost;
  auto r = ExecuteSelect(db, **stmt, nullptr, &cost, opts, &out.stats);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  if (!r.ok()) return out;
  out.access = log.ToString();
  out.access_fp = log.Fingerprint();
  out.spans = obs::DeterministicSpanSignature(tracer);
  out.result = std::move(*r);
  out.cost_ns = cost.elapsed_ns();
  return out;
}

/// Rows as a sorted multiset of printed tuples (the oblivious mode's
/// emission order may legitimately differ from the plain engine's when
/// no ORDER BY pins it).
std::vector<std::string> CanonicalRows(const QueryResult& result) {
  std::vector<std::string> out;
  out.reserve(result.rows.size());
  for (const Row& row : result.rows) {
    std::string s;
    for (const Value& v : row) {
      // Doubles compare at four decimals: the oblivious pipeline adds in
      // another order than the plain one, which can move the last bits.
      if (v.type() == Type::kDouble) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.4f", v.AsDouble());
        s += buf;
      } else {
        s += v.ToString();
      }
      s.push_back('|');
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Synthetic fixed-width relations. All columns are INTEGER / DOUBLE, so
// every seed produces byte-identical storage layout (fixed-width value
// encoding); key columns are seed-independent so the join multiplicity
// structure — public shape — is fixed, while every non-key value is
// randomized by the seed.
// ---------------------------------------------------------------------------

uint64_t Mix(uint64_t* state) {
  *state ^= *state << 13;
  *state ^= *state >> 7;
  *state ^= *state << 17;
  return *state;
}

std::unique_ptr<Database> MakeSyntheticDb(uint64_t seed) {
  auto db = Database::CreateInMemory();
  EXPECT_TRUE(
      db->Execute(
            "CREATE TABLE data (k INTEGER, grp INTEGER, v DOUBLE, w INTEGER)")
          .ok());
  EXPECT_TRUE(db->Execute("CREATE TABLE dim (k INTEGER, d INTEGER)").ok());
  uint64_t state = seed * 0x9E3779B97F4A7C15ull + 0x1234567ull;
  constexpr int kRows = 1500;  // > 1 morsel unit of a MemoryTable
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (int i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int(i),  // key: seed-independent
                    Value::Int(static_cast<int64_t>(Mix(&state) % 20)),
                    Value::Double(
                        static_cast<double>(Mix(&state) % 1000000) / 999999.0),
                    Value::Int(static_cast<int64_t>(Mix(&state) % 100000))});
  }
  EXPECT_TRUE(db->BulkLoad("data", rows).ok());
  rows.clear();
  constexpr int kDimRows = 300;
  for (int i = 0; i < kDimRows; ++i) {
    rows.push_back({Value::Int(i * 5),  // multiplicity structure fixed
                    Value::Int(static_cast<int64_t>(Mix(&state) % 1000))});
  }
  EXPECT_TRUE(db->BulkLoad("dim", rows).ok());
  return db;
}

/// The per-operator query zoo: one entry per oblivious operator.
const std::vector<std::pair<std::string, std::string>>& OperatorQueries() {
  static const std::vector<std::pair<std::string, std::string>> kQueries = {
      {"scan", "SELECT k, v FROM data"},
      {"filter", "SELECT k, v FROM data WHERE v > 0.5 AND w < 50000"},
      {"join",
       "SELECT data.k, dim.d FROM data, dim "
       "WHERE data.k = dim.k AND data.v > 0.25"},
      {"aggregate",
       "SELECT grp, count(*), sum(v), min(w) FROM data "
       "WHERE v > 0.3 GROUP BY grp"},
      {"global-aggregate",
       "SELECT count(*), sum(v), max(w) FROM data WHERE v > 0.5"},
      {"sort-limit",
       "SELECT k, v FROM data WHERE w > 1000 ORDER BY v DESC, k LIMIT 10"},
      {"distinct", "SELECT DISTINCT grp FROM data WHERE v > 0.5"},
      {"having",
       "SELECT grp, sum(v) FROM data GROUP BY grp "
       "HAVING sum(v) > 10 ORDER BY grp"},
  };
  return kQueries;
}

// ---------------------------------------------------------------------------
// Property: oblivious traces are bit-identical across >= 16
// value-randomized same-shape inputs, for every operator.
// ---------------------------------------------------------------------------

TEST(ObliviousProperty, TraceEqualAcrossValueRandomizedInputs) {
  for (const auto& [op, sql] : OperatorQueries()) {
    SCOPED_TRACE(op);
    auto db0 = MakeSyntheticDb(0);
    Capture base = RunTraced(db0.get(), sql, Oblivious());
    ASSERT_FALSE(base.access.empty()) << op;
    for (uint64_t seed = 1; seed < kSeeds; ++seed) {
      auto db = MakeSyntheticDb(seed);
      Capture got = RunTraced(db.get(), sql, Oblivious());
      EXPECT_EQ(got.access, base.access) << op << " seed " << seed;
      EXPECT_EQ(got.access_fp, base.access_fp) << op << " seed " << seed;
      EXPECT_EQ(got.spans, base.spans) << op << " seed " << seed;
      // Shape-only charging: the simulated cost is also value-independent.
      EXPECT_EQ(got.cost_ns, base.cost_ns) << op << " seed " << seed;
      EXPECT_EQ(got.stats.rows_scanned, base.stats.rows_scanned) << op;
    }
  }
}

// ---------------------------------------------------------------------------
// Negative witness: the plain engine's traces DIVERGE across the same
// value randomization — predicate pushdown, hash-join build-side choice
// and group counts all leak into its access sequence.
// ---------------------------------------------------------------------------

TEST(ObliviousProperty, PlainTracesDivergeAcrossValueRandomizedInputs) {
  int diverged = 0;
  const std::string sql = OperatorQueries()[1].second;  // filter
  auto db0 = MakeSyntheticDb(0);
  Capture base = RunTraced(db0.get(), sql, Plain());
  for (uint64_t seed = 1; seed < 4; ++seed) {
    auto db = MakeSyntheticDb(seed);
    Capture got = RunTraced(db.get(), sql, Plain());
    if (got.access != base.access) ++diverged;
  }
  // Selectivity differs across seeds, and the plain trace records the
  // surviving row counts — every seed must be distinguishable.
  EXPECT_EQ(diverged, 3);
}

// ---------------------------------------------------------------------------
// Worker invariance: the oblivious trace (like the plain engine's
// deterministic exports) is identical for 1, 4 and 16 real workers.
// ---------------------------------------------------------------------------

TEST(ObliviousProperty, TraceInvariantAcrossWorkerCounts) {
  const std::string sql = OperatorQueries()[3].second;  // aggregate
  auto db = MakeSyntheticDb(3);
  common::ThreadPool::set_max_workers(1);
  Capture w1 = RunTraced(db.get(), sql, Oblivious());
  common::ThreadPool::set_max_workers(4);
  Capture w4 = RunTraced(db.get(), sql, Oblivious());
  common::ThreadPool::set_max_workers(16);
  Capture w16 = RunTraced(db.get(), sql, Oblivious());
  common::ThreadPool::set_max_workers(0);  // restore the hardware default
  EXPECT_EQ(w1.access, w4.access);
  EXPECT_EQ(w1.access, w16.access);
  EXPECT_EQ(w1.spans, w4.spans);
  EXPECT_EQ(w1.spans, w16.spans);
  EXPECT_EQ(w1.cost_ns, w4.cost_ns);
  EXPECT_EQ(w1.cost_ns, w16.cost_ns);
  EXPECT_EQ(w1.stats, w4.stats);
  EXPECT_EQ(w1.stats, w16.stats);
  ASSERT_EQ(w1.result.rows.size(), w16.result.rows.size());
}

// ---------------------------------------------------------------------------
// Differential contract vs the plain engine, over the selection-vector
// edge cases.
// ---------------------------------------------------------------------------

/// Oblivious must agree with the plain engine on the result multiset and
/// the row counters, and must pay at least as much simulated cost
/// (strictly more when anything was scanned).
void ExpectDifferentialContract(Database* db, const std::string& sql) {
  Capture plain_vec = RunTraced(db, sql, Plain());
  Capture obl_vec = RunTraced(db, sql, Oblivious());

  // Same output schema (column names and types), same answer (as a
  // multiset), same row counters, strictly more simulated cost whenever
  // anything was scanned.
  EXPECT_EQ(obl_vec.result.schema.ToString(),
            plain_vec.result.schema.ToString())
      << sql;
  EXPECT_EQ(CanonicalRows(obl_vec.result), CanonicalRows(plain_vec.result))
      << sql;
  EXPECT_EQ(obl_vec.stats.rows_scanned, plain_vec.stats.rows_scanned) << sql;
  EXPECT_EQ(obl_vec.stats.rows_output, plain_vec.stats.rows_output) << sql;
  // On empty inputs both pipelines only pay setup noise, so the
  // direction is only meaningful when something was scanned.
  if (plain_vec.stats.rows_scanned > 0) {
    EXPECT_GT(obl_vec.cost_ns, plain_vec.cost_ns) << sql;
  }
}

TEST(ObliviousDifferential, EmptyTable) {
  auto db = Database::CreateInMemory();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
  ExpectDifferentialContract(db.get(), "SELECT * FROM t");
  ExpectDifferentialContract(db.get(), "SELECT a, b FROM t WHERE a > 3");
  ExpectDifferentialContract(db.get(), "SELECT count(*), sum(a) FROM t");
  ExpectDifferentialContract(db.get(),
                             "SELECT b, sum(a) FROM t GROUP BY b");
}

TEST(ObliviousDifferential, AllRowsFilteredOut) {
  auto db = Database::CreateInMemory();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
  ASSERT_TRUE(
      db->Execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE u (a INTEGER, c VARCHAR)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO u VALUES (1, 'p'), (2, 'q')").ok());
  ExpectDifferentialContract(db.get(), "SELECT * FROM t WHERE a > 100");
  ExpectDifferentialContract(db.get(),
                             "SELECT count(*), sum(a) FROM t WHERE a > 100");
  ExpectDifferentialContract(
      db.get(), "SELECT b, count(*) FROM t WHERE a > 100 GROUP BY b");
  ExpectDifferentialContract(
      db.get(), "SELECT t.b, u.c FROM t, u WHERE t.a = u.a AND t.a > 100");
}

TEST(ObliviousDifferential, PagedTableStraddlingBatches) {
  storage::BlockDevice disk;
  PlainPageStore store(&disk);
  auto db = Database::CreatePaged(&store);
  ASSERT_TRUE(
      db->Execute("CREATE TABLE big (k INTEGER, grp INTEGER, v DOUBLE)").ok());
  std::vector<Row> rows;
  constexpr int kRows = 5000;
  for (int i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int(i), Value::Int(i % 7),
                    Value::Double(static_cast<double>(i) * 0.5)});
  }
  ASSERT_TRUE(db->BulkLoad("big", rows).ok());
  ExpectDifferentialContract(db.get(), "SELECT count(*), sum(k) FROM big");
  ExpectDifferentialContract(
      db.get(), "SELECT count(*) FROM big WHERE k >= 2000 AND k < 2100");
  ExpectDifferentialContract(
      db.get(),
      "SELECT grp, count(*), sum(v) FROM big GROUP BY grp ORDER BY grp");
}

TEST(ObliviousDifferential, NullHandling) {
  auto db = Database::CreateInMemory();
  ASSERT_TRUE(
      db->Execute("CREATE TABLE n (a INTEGER, b VARCHAR, c DOUBLE)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO n VALUES "
                          "(1, 'x', 1.5), (NULL, 'x', 2.5), (3, NULL, NULL), "
                          "(NULL, NULL, 4.5), (5, 'y', NULL)")
                  .ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE m (a INTEGER, d VARCHAR)").ok());
  ASSERT_TRUE(
      db->Execute("INSERT INTO m VALUES (1, 'p'), (NULL, 'q'), (5, 'r')")
          .ok());
  ExpectDifferentialContract(db.get(), "SELECT * FROM n WHERE a > 0");
  ExpectDifferentialContract(db.get(), "SELECT * FROM n WHERE a IS NULL");
  ExpectDifferentialContract(
      db.get(), "SELECT count(*), count(a), sum(a), avg(c), min(a) FROM n");
  ExpectDifferentialContract(
      db.get(), "SELECT b, count(*), sum(a) FROM n GROUP BY b ORDER BY count(*)");
  ExpectDifferentialContract(
      db.get(), "SELECT n.a, m.d FROM n, m WHERE n.a = m.a ORDER BY n.a");
  ExpectDifferentialContract(db.get(), "SELECT DISTINCT b FROM n");
}

// ---------------------------------------------------------------------------
// TPC-H: trace equality across size-preserving value scrambles for every
// evaluated query, differential contract against the plain engine, and
// the plain-engine divergence witness.
// ---------------------------------------------------------------------------

/// Scrambles the fixed-width numeric measure columns of the TPC-H
/// tables in place (never the join/group keys, never dates, never
/// variable-length strings), so the stored shape — page layout, row
/// widths, key multiplicity — is byte-compatible while every predicate
/// input changes.
void ScrambleMeasures(Database* db, uint64_t seed) {
  static const std::map<std::string, std::set<std::string>> kMeasures = {
      {"lineitem",
       {"l_quantity", "l_extendedprice", "l_discount", "l_tax"}},
      {"orders", {"o_totalprice"}},
      {"customer", {"c_acctbal"}},
      {"supplier", {"s_acctbal"}},
      {"part", {"p_retailprice"}},
      {"partsupp", {"ps_supplycost"}},
  };
  uint64_t state = seed * 0x9E3779B97F4A7C15ull + 0xBEEFull;
  for (const auto& [table, cols] : kMeasures) {
    auto t = db->GetTable(table);
    ASSERT_TRUE(t.ok()) << table;
    const Schema& schema = (*t)->schema();
    std::vector<size_t> idx;
    for (size_t c = 0; c < schema.size(); ++c) {
      if (cols.count(schema.column(c).name)) idx.push_back(c);
    }
    ASSERT_EQ(idx.size(), cols.size()) << table;
    sim::CostModel scratch;
    uint64_t affected = 0;
    Status st = (*t)->Rewrite(
        [&](Row* row, bool* modified) -> Result<bool> {
          for (size_t c : idx) {
            Value& v = (*row)[c];
            if (v.is_null()) continue;
            if (v.type() == Type::kInt64) {
              v = Value::Int(static_cast<int64_t>(Mix(&state) % 100000));
            } else if (v.type() == Type::kDouble) {
              v = Value::Double(
                  static_cast<double>(Mix(&state) % 1000000) / 997.0);
            }
          }
          *modified = true;
          return true;
        },
        &scratch, &affected);
    ASSERT_TRUE(st.ok()) << table << ": " << st.ToString();
    ASSERT_GT(affected, 0u) << table;
  }
}

class ObliviousTpch : public ::testing::Test {
 protected:
  static constexpr int kScrambles = 2;  // variants beyond the original

  static void SetUpTestSuite() {
    for (int s = 0; s <= kScrambles; ++s) {
      dbs_[s] = LoadVariant(0.001, s);
      // Q2 and Q21 re-execute their correlated subquery obliviously per
      // padded outer row — quadratic in the scale factor — so the
      // property runs them on a smaller same-shape fixture to keep the
      // suite's wall clock bounded.
      small_dbs_[s] = LoadVariant(0.00025, s);
    }
  }

  static Database* LoadVariant(double sf, int scramble) {
    Database* db = Database::CreateInMemory().release();
    tpch::TpchGenerator gen(tpch::TpchConfig{sf, 42});
    auto st = gen.LoadInto(db);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (scramble > 0) ScrambleMeasures(db, static_cast<uint64_t>(scramble));
    return db;
  }

  static Database* DbFor(int query, int scramble) {
    return (query == 2 || query == 21) ? small_dbs_[scramble]
                                       : dbs_[scramble];
  }

  static Database* dbs_[kScrambles + 1];
  static Database* small_dbs_[kScrambles + 1];
};

Database* ObliviousTpch::dbs_[ObliviousTpch::kScrambles + 1] = {};
Database* ObliviousTpch::small_dbs_[ObliviousTpch::kScrambles + 1] = {};

TEST_F(ObliviousTpch, TraceEqualAcrossScramblesForEveryQuery) {
  for (const auto& query : tpch::Queries()) {
    SCOPED_TRACE("TPC-H Q" + std::to_string(query.number));
    Capture base = RunTraced(DbFor(query.number, 0), query.sql, Oblivious());
    ASSERT_FALSE(base.access.empty());
    for (int s = 1; s <= kScrambles; ++s) {
      Capture got = RunTraced(DbFor(query.number, s), query.sql, Oblivious());
      EXPECT_EQ(got.access_fp, base.access_fp) << "scramble " << s;
      EXPECT_EQ(got.access, base.access) << "scramble " << s;
      EXPECT_EQ(got.spans, base.spans) << "scramble " << s;
      EXPECT_EQ(got.cost_ns, base.cost_ns) << "scramble " << s;
    }
  }
}

TEST_F(ObliviousTpch, EnginesBitIdenticalAndPlainContractHolds) {
  for (const auto& query : tpch::Queries()) {
    SCOPED_TRACE("TPC-H Q" + std::to_string(query.number));
    ExpectDifferentialContract(DbFor(query.number, 0), query.sql);
  }
}

TEST_F(ObliviousTpch, PlainTracesDivergeOnScrambledMeasures) {
  // The witness: on value-scrambled same-shape inputs the plain
  // engine's access traces differ wherever a recorded survivor count
  // depends on a scrambled column. The measure-only scramble (keys,
  // dates and strings untouched, to preserve shape) moves Q6's
  // pushdown band predicates (quantity/discount) and Q18's
  // HAVING sum(l_quantity) subquery — those MUST diverge, proving the
  // harness is sensitive enough to catch a leak. Queries whose
  // predicates read only keys/dates/strings keep identical plain
  // traces under this scramble, and Q19's measure band sits inside a
  // conjunction so selective at SF 0.001 that both value sets strand
  // it at zero survivors.
  std::string diverged;
  std::set<int> must_diverge = {6, 18};
  for (const auto& query : tpch::Queries()) {
    Capture a = RunTraced(dbs_[0], query.sql, Plain());
    Capture b = RunTraced(dbs_[1], query.sql, Plain());
    if (a.access != b.access) {
      diverged += "q" + std::to_string(query.number) + " ";
      must_diverge.erase(query.number);
    }
  }
  EXPECT_TRUE(must_diverge.empty())
      << "measure-predicated queries failed to diverge; saw: " << diverged;
}

TEST_F(ObliviousTpch, WorkerCountInvariance) {
  auto q3 = tpch::GetQuery(3);
  ASSERT_TRUE(q3.ok());
  common::ThreadPool::set_max_workers(1);
  Capture w1 = RunTraced(dbs_[0], (*q3)->sql, Oblivious());
  common::ThreadPool::set_max_workers(4);
  Capture w4 = RunTraced(dbs_[0], (*q3)->sql, Oblivious());
  common::ThreadPool::set_max_workers(16);
  Capture w16 = RunTraced(dbs_[0], (*q3)->sql, Oblivious());
  common::ThreadPool::set_max_workers(0);
  EXPECT_EQ(w1.access, w4.access);
  EXPECT_EQ(w1.access, w16.access);
  EXPECT_EQ(w1.spans, w4.spans);
  EXPECT_EQ(w1.spans, w16.spans);
  EXPECT_EQ(w1.cost_ns, w16.cost_ns);
}

// ---------------------------------------------------------------------------
// Kernel unit tests (the branch-free primitives themselves).
// ---------------------------------------------------------------------------

TEST(ObliviousKernels, BitonicSortSortsAndCountsExchanges) {
  uint64_t state = 99;
  for (size_t n : {1u, 2u, 4u, 8u, 32u, 256u}) {
    std::vector<int64_t> v(n);
    for (auto& x : v) x = static_cast<int64_t>(Mix(&state) % 1000);
    std::vector<int64_t> expect = v;
    std::sort(expect.begin(), expect.end());
    uint64_t exchanges = exec::BitonicSort(
        &v, [](int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); });
    EXPECT_EQ(v, expect) << n;
    EXPECT_EQ(exchanges, exec::BitonicExchangeCount(n)) << n;
  }
}

TEST(ObliviousKernels, NextPow2) {
  EXPECT_EQ(exec::NextPow2(0), 1u);
  EXPECT_EQ(exec::NextPow2(1), 1u);
  EXPECT_EQ(exec::NextPow2(2), 2u);
  EXPECT_EQ(exec::NextPow2(3), 4u);
  EXPECT_EQ(exec::NextPow2(1000), 1024u);
  EXPECT_EQ(exec::NextPow2(1024), 1024u);
}

TEST(ObliviousKernels, MaskedHelpers) {
  std::vector<uint8_t> valid = {1, 0, 1, 1, 0, 1};
  EXPECT_EQ(exec::MaskedCount(valid), 4u);
  exec::MaskedFilterUpdate(&valid, {1, 1, 0, 1, 1, 1});
  EXPECT_EQ(exec::MaskedCount(valid), 3u);  // {1,0,0,1,0,1}
  exec::MaskedLimit(&valid, 2);
  std::vector<uint8_t> expect = {1, 0, 0, 1, 0, 0};
  EXPECT_EQ(valid, expect);
  exec::MaskedLimit(&valid, 0);
  EXPECT_EQ(exec::MaskedCount(valid), 0u);
}

}  // namespace
}  // namespace ironsafe::sql
