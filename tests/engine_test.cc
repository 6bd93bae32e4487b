#include <gtest/gtest.h>

#include <optional>

#include "common/thread_pool.h"
#include "engine/csa_system.h"
#include "engine/ironsafe.h"
#include "engine/partitioner.h"
#include "sql/column_batch.h"
#include "sql/parser.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace ironsafe::engine {
namespace {

// ---------------- partitioner ----------------

class PartitionerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = sql::Database::CreateInMemory();
    ASSERT_TRUE(db_->Execute("CREATE TABLE lineitem (l_orderkey INTEGER, "
                             "l_shipdate DATE, l_price DOUBLE)")
                    .ok());
    ASSERT_TRUE(db_->Execute("CREATE TABLE orders (o_orderkey INTEGER, "
                             "o_orderdate DATE)")
                    .ok());
  }

  std::unique_ptr<sql::Database> db_;
};

TEST_F(PartitionerTest, PushesSingleTableFilters) {
  auto stmt = sql::ParseSelect(
      "SELECT sum(l_price) FROM lineitem, orders WHERE l_orderkey = "
      "o_orderkey AND l_shipdate > DATE '1995-01-01' AND o_orderdate < "
      "DATE '1995-06-01'");
  ASSERT_TRUE(stmt.ok());
  auto plan = PartitionQuery(**stmt, *db_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->fragments.size(), 2u);

  // Each fragment carries its table's own filter.
  EXPECT_NE(plan->fragments[0].sql.find("l_shipdate"), std::string::npos);
  EXPECT_NE(plan->fragments[1].sql.find("o_orderdate"), std::string::npos);

  // The join predicate stays on the host; pushed filters are gone.
  std::string host = plan->host_query->ToString();
  EXPECT_NE(host.find("l_orderkey"), std::string::npos);
  EXPECT_EQ(host.find("l_shipdate"), std::string::npos);
  EXPECT_NE(host.find(plan->fragments[0].dest_table), std::string::npos);
}

TEST_F(PartitionerTest, FragmentSqlIsParseable) {
  auto stmt = sql::ParseSelect(
      "SELECT * FROM lineitem WHERE l_shipdate BETWEEN DATE '1994-01-01' "
      "AND DATE '1994-12-31' AND l_price < 100.5");
  auto plan = PartitionQuery(**stmt, *db_);
  ASSERT_TRUE(plan.ok());
  for (const auto& frag : plan->fragments) {
    EXPECT_TRUE(sql::ParseSelect(frag.sql).ok()) << frag.sql;
  }
}

TEST_F(PartitionerTest, SubqueryTablesGetFragments) {
  auto stmt = sql::ParseSelect(
      "SELECT * FROM orders WHERE o_orderkey IN "
      "(SELECT l_orderkey FROM lineitem WHERE l_price > 10)");
  auto plan = PartitionQuery(**stmt, *db_);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->fragments.size(), 2u);
  // The lineitem fragment keeps the pushable filter.
  bool found = false;
  for (const auto& frag : plan->fragments) {
    if (frag.source_table == "lineitem") {
      EXPECT_NE(frag.sql.find("l_price"), std::string::npos);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(PartitionerTest, CorrelatedPredicateStaysOnHost) {
  auto stmt = sql::ParseSelect(
      "SELECT * FROM orders o WHERE EXISTS (SELECT 1 FROM lineitem l "
      "WHERE l.l_orderkey = o.o_orderkey)");
  auto plan = PartitionQuery(**stmt, *db_);
  ASSERT_TRUE(plan.ok());
  // The correlated equality must not be pushed into the lineitem fragment.
  for (const auto& frag : plan->fragments) {
    if (frag.source_table == "lineitem") {
      EXPECT_EQ(frag.sql.find("o_orderkey"), std::string::npos) << frag.sql;
    }
  }
}

TEST_F(PartitionerTest, AggregationPushdownOffloadsWholeQuery) {
  auto stmt = sql::ParseSelect(
      "SELECT sum(l_price) AS rev FROM lineitem WHERE l_shipdate > "
      "DATE '1995-01-01' GROUP BY l_orderkey");
  PartitionOptions options;
  options.aggregation_pushdown = true;
  auto plan = PartitionQuery(**stmt, *db_, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->whole_query_offloaded);
  ASSERT_EQ(plan->fragments.size(), 1u);
  // The fragment IS the query; the host side is a bare scan.
  EXPECT_NE(plan->fragments[0].sql.find("SUM"), std::string::npos);
  EXPECT_EQ(plan->host_query->ToString(),
            "SELECT * FROM " + plan->fragments[0].dest_table);
}

TEST_F(PartitionerTest, AggregationPushdownFallsBackOnJoins) {
  auto stmt = sql::ParseSelect(
      "SELECT count(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey");
  PartitionOptions options;
  options.aggregation_pushdown = true;
  auto plan = PartitionQuery(**stmt, *db_, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->whole_query_offloaded);
  EXPECT_EQ(plan->fragments.size(), 2u);
}

TEST_F(PartitionerTest, AggregationPushdownFallsBackOnSubqueries) {
  auto stmt = sql::ParseSelect(
      "SELECT count(*) FROM orders WHERE o_orderkey IN "
      "(SELECT l_orderkey FROM lineitem)");
  PartitionOptions options;
  options.aggregation_pushdown = true;
  auto plan = PartitionQuery(**stmt, *db_, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->whole_query_offloaded);
}

TEST_F(PartitionerTest, SameTableTwiceGetsTwoFragments) {
  auto stmt = sql::ParseSelect(
      "SELECT * FROM lineitem a, lineitem b WHERE a.l_orderkey = b.l_orderkey");
  auto plan = PartitionQuery(**stmt, *db_);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->fragments.size(), 2u);
  EXPECT_NE(plan->fragments[0].dest_table, plan->fragments[1].dest_table);
}

// ---------------- CSA system ----------------

class CsaSystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CsaOptions options;
    options.scale_factor = 0.001;
    auto system = CsaSystem::Create(options);
    ASSERT_TRUE(system.ok());
    system_ = system->release();
    tpch::TpchGenerator gen(tpch::TpchConfig{options.scale_factor, 42});
    ASSERT_TRUE(system_
                    ->Load([&](sql::Database* db) {
                      tpch::TpchGenerator g(
                          tpch::TpchConfig{options.scale_factor, 42});
                      return g.LoadInto(db);
                    })
                    .ok());
  }

  // Runs once per derived suite (ConfigEquivalence, ParallelDeterminism
  // and CsaSystemTest itself each set the system up again).
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  static CsaSystem* system_;
};

CsaSystem* CsaSystemTest::system_ = nullptr;

std::string Canonical(const sql::QueryResult& result) {
  std::vector<std::string> lines;
  for (const auto& row : result.rows) {
    std::string line;
    for (const auto& v : row) {
      if (v.type() == sql::Type::kDouble) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", v.AsDouble());
        line += buf;
      } else {
        line += v.ToString();
      }
      line += "|";
    }
    lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (auto& l : lines) out += l + "\n";
  return out;
}

// The core integration property: all five configurations compute the
// same answer; only where and how securely the work runs differs.
class ConfigEquivalence : public CsaSystemTest,
                          public ::testing::WithParamInterface<int> {};

TEST_P(ConfigEquivalence, AllConfigsAgree) {
  auto q = tpch::GetQuery(GetParam());
  ASSERT_TRUE(q.ok());
  auto hons = system_->Run(SystemConfig::kHons, (*q)->sql);
  ASSERT_TRUE(hons.ok()) << hons.status().ToString();
  std::string expected = Canonical(hons->result);
  for (SystemConfig config : {SystemConfig::kHos, SystemConfig::kVcs,
                              SystemConfig::kScs, SystemConfig::kSos}) {
    auto outcome = system_->Run(config, (*q)->sql);
    ASSERT_TRUE(outcome.ok())
        << SystemConfigName(config) << ": " << outcome.status().ToString();
    EXPECT_EQ(Canonical(outcome->result), expected)
        << "config " << SystemConfigName(config) << " diverged on Q"
        << GetParam();
  }
}

// vcs and scs re-parse the printed query on the storage side, so a double
// with more than four decimals and a string with a quote must print as
// literals that parse back to the same values.
TEST(LiteralEquivalence, AllConfigsAgreeOnExactLiterals) {
  auto system = CsaSystem::Create(CsaOptions{});
  ASSERT_TRUE(system.ok());
  ASSERT_TRUE((*system)
                  ->Load([](sql::Database* db) -> Status {
                    RETURN_IF_ERROR(
                        db->Execute("CREATE TABLE t (x DOUBLE, s VARCHAR)")
                            .status());
                    return db
                        ->Execute("INSERT INTO t VALUES (0.123456, "
                                  "'O''Brien'), (0.1, 'Smith')")
                        .status();
                  })
                  .ok());
  const std::pair<const char*, double> cases[] = {
      {"SELECT x FROM t WHERE x < 0.12345", 0.1},
      {"SELECT x FROM t WHERE s = 'O''Brien'", 0.123456},
  };
  for (const auto& [sql, want] : cases) {
    for (SystemConfig config :
         {SystemConfig::kHons, SystemConfig::kHos, SystemConfig::kVcs,
          SystemConfig::kScs, SystemConfig::kSos}) {
      auto out = (*system)->Run(config, sql);
      ASSERT_TRUE(out.ok()) << SystemConfigName(config) << ": " << sql
                            << " -> " << out.status().ToString();
      ASSERT_EQ(out->result.rows.size(), 1u)
          << SystemConfigName(config) << ": " << sql;
      EXPECT_EQ(out->result.rows[0][0].AsDouble(), want)
          << SystemConfigName(config) << ": " << sql;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SelectedQueries, ConfigEquivalence,
                         ::testing::Values(3, 5, 6, 10, 12, 14, 19),
                         [](const auto& param_info) {
                           return "Q" + std::to_string(param_info.param);
                         });

// Queries whose host phase evaluates subqueries: cached uncorrelated IN /
// NOT IN results read in place (Q4, Q16, Q18) and correlated scalar and
// EXISTS subqueries re-executed per outer row (Q2, Q21).
INSTANTIATE_TEST_SUITE_P(HostPhaseSubqueries, ConfigEquivalence,
                         ::testing::Values(2, 4, 16, 18, 21),
                         [](const auto& param_info) {
                           return "Q" + std::to_string(param_info.param);
                         });

// ---------------- morsel-parallel determinism ----------------

/// Exact serialization, order included: parallelism must not even
/// reorder rows.
std::string ExactRows(const sql::QueryResult& result) {
  std::string out;
  for (const auto& row : result.rows) {
    for (const auto& v : row) {
      out += v.ToString();
      out += "|";
    }
    out += "\n";
  }
  return out;
}

/// The tentpole invariant: the REAL worker count (a machine property)
/// never changes anything observable — rows, row order, ExecStats,
/// counters, or the simulated cost account. Only wall-clock time may
/// differ. Exercised under the split (scs) and host-only secure (hos)
/// configurations, whose page stores see genuinely concurrent reads.
class ParallelDeterminism : public CsaSystemTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(ParallelDeterminism, RealWorkerCountInvariantUnderScs) {
  auto q = tpch::GetQuery(GetParam());
  ASSERT_TRUE(q.ok());
  std::optional<QueryOutcome> base;
  for (int workers : {1, 4, 16}) {
    common::ThreadPool::set_max_workers(workers);
    auto out = system_->Run(SystemConfig::kScs, (*q)->sql);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (!base.has_value()) {
      base = std::move(*out);
      continue;
    }
    EXPECT_EQ(ExactRows(out->result), ExactRows(base->result))
        << "workers=" << workers;
    EXPECT_EQ(out->stats, base->stats) << "workers=" << workers;
    EXPECT_EQ(out->cost, base->cost) << "workers=" << workers;
    EXPECT_EQ(out->shipped_bytes, base->shipped_bytes);
    EXPECT_EQ(out->storage_pages_read, base->storage_pages_read);
  }
  common::ThreadPool::set_max_workers(0);
}

TEST_P(ParallelDeterminism, RealWorkerCountInvariantUnderHos) {
  auto q = tpch::GetQuery(GetParam());
  ASSERT_TRUE(q.ok());
  system_->set_host_parallelism(8);  // fixed simulated fan-out
  std::optional<QueryOutcome> base;
  for (int workers : {1, 4, 16}) {
    common::ThreadPool::set_max_workers(workers);
    auto out = system_->Run(SystemConfig::kHos, (*q)->sql);
    if (!out.ok()) {
      common::ThreadPool::set_max_workers(0);
      system_->set_host_parallelism(1);
    }
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (!base.has_value()) {
      base = std::move(*out);
      continue;
    }
    EXPECT_EQ(ExactRows(out->result), ExactRows(base->result))
        << "workers=" << workers;
    EXPECT_EQ(out->stats, base->stats) << "workers=" << workers;
    EXPECT_EQ(out->cost, base->cost) << "workers=" << workers;
    EXPECT_EQ(out->host_pages_read, base->host_pages_read);
  }
  common::ThreadPool::set_max_workers(0);
  system_->set_host_parallelism(1);
}

INSTANTIATE_TEST_SUITE_P(Queries, ParallelDeterminism,
                         ::testing::Values(3, 6),
                         [](const auto& param_info) {
                           return "Q" + std::to_string(param_info.param);
                         });

TEST_F(CsaSystemTest, StorageCoresKnobKeepsRowsAndStatsIdentical) {
  // Varying the SIMULATED fan-out legitimately changes the simulated
  // cost (Figure 10 depends on it) but never the answer or the stats.
  auto q = tpch::GetQuery(6);
  ASSERT_TRUE(q.ok());
  std::optional<QueryOutcome> base;
  sim::SimNanos prev_ns = 0;
  for (int cores : {1, 4, 16}) {
    system_->set_storage_cores(cores);
    auto out = system_->Run(SystemConfig::kScs, (*q)->sql);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (base.has_value()) {
      EXPECT_EQ(ExactRows(out->result), ExactRows(base->result));
      EXPECT_EQ(out->stats, base->stats);
      EXPECT_LT(out->cost.elapsed_ns(), prev_ns) << "more cores, less time";
    } else {
      base = *out;
    }
    prev_ns = out->cost.elapsed_ns();
  }
  system_->set_storage_cores(16);
}

TEST_F(CsaSystemTest, SplitExecutionShipsLessThanHostOnly) {
  // Q6 is highly selective: the CS configurations must move far fewer
  // bytes over the network than host-only page shipping (Figure 7).
  auto q = tpch::GetQuery(6);
  auto hons = system_->Run(SystemConfig::kHons, (*q)->sql);
  auto vcs = system_->Run(SystemConfig::kVcs, (*q)->sql);
  ASSERT_TRUE(hons.ok() && vcs.ok());
  EXPECT_GT(hons->cost.network_bytes(), vcs->cost.network_bytes());
  EXPECT_GT(hons->host_pages_read, 0u);
  EXPECT_GT(vcs->storage_pages_read, 0u);
}

TEST_F(CsaSystemTest, SecureConfigPaysCryptoCosts) {
  auto q = tpch::GetQuery(6);
  auto vcs = system_->Run(SystemConfig::kVcs, (*q)->sql);
  auto scs = system_->Run(SystemConfig::kScs, (*q)->sql);
  ASSERT_TRUE(vcs.ok() && scs.ok());
  EXPECT_EQ(vcs->cost.decrypt_ns(), 0u);
  EXPECT_GT(scs->cost.decrypt_ns(), 0u);
  EXPECT_GT(scs->cost.freshness_ns(), 0u);
  EXPECT_GT(scs->cost.elapsed_ns(), vcs->cost.elapsed_ns());
}

TEST_F(CsaSystemTest, HostOnlySecurePaysEnclaveTransitions) {
  auto q = tpch::GetQuery(6);
  auto hos = system_->Run(SystemConfig::kHos, (*q)->sql);
  ASSERT_TRUE(hos.ok());
  EXPECT_GT(hos->cost.enclave_transitions(), 0u);
  auto scs = system_->Run(SystemConfig::kScs, (*q)->sql);
  ASSERT_TRUE(scs.ok());
  // IronSafe crosses the enclave boundary once per shipped batch, far
  // fewer times than per-page host-only execution (§6.2).
  EXPECT_LT(scs->cost.enclave_transitions(), hos->cost.enclave_transitions());
}

TEST_F(CsaSystemTest, StorageOnlyChargesStorageCpu) {
  auto q = tpch::GetQuery(6);
  auto sos = system_->Run(SystemConfig::kSos, (*q)->sql);
  ASSERT_TRUE(sos.ok());
  EXPECT_EQ(sos->cost.network_bytes(), 0u);
  EXPECT_GT(sos->cost.decrypt_ns(), 0u);
}

TEST_F(CsaSystemTest, AggregationPushdownAgreesAndShipsLess) {
  auto q = tpch::GetQuery(6);
  auto filter_run = system_->Run(SystemConfig::kScs, (*q)->sql);
  ASSERT_TRUE(filter_run.ok());
  system_->set_aggregation_pushdown(true);
  auto whole_run = system_->Run(SystemConfig::kScs, (*q)->sql);
  system_->set_aggregation_pushdown(false);
  ASSERT_TRUE(whole_run.ok()) << whole_run.status().ToString();
  EXPECT_EQ(Canonical(whole_run->result), Canonical(filter_run->result));
  EXPECT_LT(whole_run->shipped_bytes, filter_run->shipped_bytes);
}

TEST_F(CsaSystemTest, UnknownQueryErrorsPropagate) {
  auto bad = system_->Run(SystemConfig::kScs, "SELECT * FROM nonexistent");
  EXPECT_FALSE(bad.ok());
}

// ---------------- page cache ----------------

// The page-cache contract of ConfigurablePageStore, observed through the
// Table scan API over a three-page table of two rows per page.
class ConfigurablePageStoreTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kPage = sql::PageStore::kPageSize;

  void SetUp() override {
    table_.BeginBulkLoad();
    for (int64_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          table_.Append(sql::Row{sql::Value::Int(i), Filler()}, nullptr).ok());
    }
    ASSERT_TRUE(table_.FinishBulkLoad(nullptr).ok());
    ASSERT_EQ(table_.page_ids().size(), 3u);
  }

  static sql::Value Filler() {
    return sql::Value::String(std::string(1500, 'x'));
  }

  // Decodes `units` in order, inside one one-slot morsel-scan bracket
  // when `bracketed`, and returns each unit's `cached` flag.
  std::vector<bool> Scan(const std::vector<uint64_t>& units, bool bracketed) {
    std::vector<bool> cached;
    if (bracketed) table_.BeginParallelScan(1);
    for (uint64_t unit : units) {
      auto decoded = table_.DecodeMorselBatch(unit, nullptr);
      EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
      cached.push_back(decoded.ok() && decoded->cached);
    }
    if (bracketed) table_.EndParallelScan();
    return cached;
  }

  // Replaces page `unit` with a one-row page holding `row`.
  void OverwritePage(uint64_t unit, const sql::Row& row) {
    Bytes page;
    PutU16(&page, 1);
    sql::SerializeRow(row, &page);
    page.resize(kPage, 0);
    ASSERT_TRUE(access_.WritePage(table_.page_ids()[unit], page, nullptr).ok());
  }

  storage::BlockDevice disk_;
  sql::PlainPageStore plain_{&disk_};
  ConfigurablePageStore access_{&plain_};
  sql::PagedTable table_{
      "t",
      sql::Schema({sql::Column{"k", sql::Type::kInt64},
                   sql::Column{"pad", sql::Type::kString}}),
      &access_};
};

TEST_F(ConfigurablePageStoreTest, SerialAndBracketedRescansAgree) {
  const std::vector<uint64_t> all = {0, 1, 2};
  for (bool bracketed : {false, true}) {
    SCOPED_TRACE(bracketed ? "bracketed" : "serial");
    access_.BeginQuery(1 << 20);
    EXPECT_EQ(Scan(all, bracketed), std::vector<bool>(3, false));
    EXPECT_EQ(Scan(all, bracketed), std::vector<bool>(3, true));
    EXPECT_EQ(access_.pages_read(), 3u);
    EXPECT_EQ(access_.cache_hits(), 3u);
  }
}

TEST_F(ConfigurablePageStoreTest, EvictsLeastRecentlyUsedPage) {
  for (bool bracketed : {false, true}) {
    SCOPED_TRACE(bracketed ? "bracketed" : "serial");
    access_.BeginQuery(2 * kPage);
    EXPECT_EQ(Scan({0, 1, 2}, bracketed), std::vector<bool>(3, false));
    // Page 0 was least recently used when page 2 came in.
    EXPECT_EQ(Scan({0}, bracketed), std::vector<bool>{false});
    // The hit on page 2 makes page 0, inserted after it, the victim
    // when page 1 returns (insertion order would evict page 2).
    EXPECT_EQ(Scan({2}, bracketed), std::vector<bool>{true});
    EXPECT_EQ(Scan({1}, bracketed), std::vector<bool>{false});
    EXPECT_EQ(Scan({2}, bracketed), std::vector<bool>{true});
    EXPECT_EQ(access_.pages_read(), 5u);
    EXPECT_EQ(access_.cache_hits(), 2u);
  }
}

TEST_F(ConfigurablePageStoreTest, WriteInvalidatesCachedPage) {
  access_.BeginQuery(1 << 20);
  EXPECT_EQ(Scan({0, 0}, false), (std::vector<bool>{false, true}));
  OverwritePage(0, sql::Row{sql::Value::Int(42), sql::Value::String("new")});

  auto decoded = table_.DecodeMorselBatch(0, nullptr);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded->cached);
  ASSERT_EQ(decoded->batch->rows(), 1u);
  sql::Row row;
  decoded->batch->MaterializeRow(0, &row);
  EXPECT_EQ(row, (sql::Row{sql::Value::Int(42), sql::Value::String("new")}));
  EXPECT_EQ(access_.pages_read(), 2u);
  EXPECT_EQ(access_.cache_hits(), 1u);
}

TEST_F(ConfigurablePageStoreTest, ZeroCapacityNeverHits) {
  for (bool bracketed : {false, true}) {
    SCOPED_TRACE(bracketed ? "bracketed" : "serial");
    access_.BeginQuery(0);
    EXPECT_EQ(Scan({0, 1, 2, 0, 1, 2}, bracketed),
              std::vector<bool>(6, false));
    EXPECT_EQ(Scan({0, 1, 2}, bracketed), std::vector<bool>(3, false));
    EXPECT_EQ(access_.pages_read(), 9u);
    EXPECT_EQ(access_.cache_hits(), 0u);
  }
}

TEST_F(ConfigurablePageStoreTest, UndecodablePageIsNeverCached) {
  // One value more than the schema has columns.
  OverwritePage(0, sql::Row{sql::Value::Int(1), Filler(), sql::Value::Int(2)});
  for (bool bracketed : {false, true}) {
    SCOPED_TRACE(bracketed ? "bracketed" : "serial");
    access_.BeginQuery(1 << 20);
    if (bracketed) table_.BeginParallelScan(1);
    for (int i = 0; i < 3; ++i) {
      auto decoded = table_.DecodeMorselBatch(0, nullptr);
      ASSERT_FALSE(decoded.ok());
      EXPECT_TRUE(decoded.status().IsCorruption())
          << decoded.status().ToString();
    }
    if (bracketed) table_.EndParallelScan();
    EXPECT_EQ(access_.pages_read(), 3u);
    EXPECT_EQ(access_.cache_hits(), 0u);
  }
}

// ---------------- IronSafe end-to-end ----------------

class IronSafeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IronSafeSystem::Options options;
    options.csa.scale_factor = 0.001;
    auto system = IronSafeSystem::Create(options);
    ASSERT_TRUE(system.ok());
    system_ = std::move(*system);
    ASSERT_TRUE(system_->Bootstrap().ok());
    system_->set_current_date(*sql::ParseDate("1997-06-01"));
    system_->RegisterClient("producer");
    system_->RegisterClient("consumer", /*reuse_bit=*/1);
  }

  std::unique_ptr<IronSafeSystem> system_;
};

TEST_F(IronSafeTest, TimelyDeletionAntiPattern) {
  // Anti-pattern #1: records expire; consumers cannot see expired rows.
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer",
                      "CREATE TABLE bookings (id INTEGER, pax VARCHAR)",
                      "read ::= sessionKeyIs(producer) | "
                      "sessionKeyIs(consumer) & le(T, TIMESTAMP)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      /*with_expiry=*/true, /*with_reuse=*/false)
                  .ok());

  int64_t live = *sql::ParseDate("1999-01-01");
  int64_t expired = *sql::ParseDate("1997-01-01");
  ASSERT_TRUE(system_
                  ->Execute("producer",
                            "INSERT INTO bookings (id, pax) VALUES (1, 'ann')",
                            "", live)
                  .ok());
  ASSERT_TRUE(system_
                  ->Execute("producer",
                            "INSERT INTO bookings (id, pax) VALUES (2, 'bob')",
                            "", expired)
                  .ok());

  // Producer sees both rows.
  auto p = system_->Execute("producer", "SELECT id FROM bookings");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->result.rows.size(), 2u);

  // Consumer sees only the unexpired row.
  auto c = system_->Execute("consumer", "SELECT id FROM bookings");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_EQ(c->result.rows.size(), 1u);
  EXPECT_EQ(c->result.rows[0][0].AsInt(), 1);
}

TEST_F(IronSafeTest, ReuseMapAntiPattern) {
  // Anti-pattern #2: rows opt in per service via a bitmap.
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer",
                      "CREATE TABLE profiles (id INTEGER)",
                      "read ::= sessionKeyIs(producer) | "
                      "sessionKeyIs(consumer) & reuseMap(m)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      false, /*with_reuse=*/true)
                  .ok());
  // Row 1 opts into service bit 1 (consumer's bit); row 2 does not.
  ASSERT_TRUE(system_
                  ->Execute("producer", "INSERT INTO profiles (id) VALUES (1)",
                            "", std::nullopt, /*reuse=*/0b010)
                  .ok());
  ASSERT_TRUE(system_
                  ->Execute("producer", "INSERT INTO profiles (id) VALUES (2)",
                            "", std::nullopt, /*reuse=*/0b100)
                  .ok());

  auto c = system_->Execute("consumer", "SELECT id FROM profiles");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_EQ(c->result.rows.size(), 1u);
  EXPECT_EQ(c->result.rows[0][0].AsInt(), 1);
}

TEST_F(IronSafeTest, TransparencyAntiPatternLogsConsumerQueries) {
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer", "CREATE TABLE pii (id INTEGER)",
                      "read ::= sessionKeyIs(producer) | "
                      "sessionKeyIs(consumer) & logUpdate(shares, K, Q)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      false, false)
                  .ok());
  ASSERT_TRUE(
      system_->Execute("producer", "INSERT INTO pii (id) VALUES (7)").ok());

  size_t before = system_->monitor()->audit_log()->entries().size();
  ASSERT_TRUE(system_->Execute("consumer", "SELECT id FROM pii").ok());
  const auto& entries = system_->monitor()->audit_log()->entries();
  ASSERT_EQ(entries.size(), before + 1);
  EXPECT_EQ(entries.back().client_key_id, "consumer");
  // The regulator can verify the log end-to-end.
  EXPECT_TRUE(monitor::AuditLog::Verify(
                  entries, system_->monitor()->audit_log()->head_signature(),
                  system_->monitor()->audit_log()->public_key())
                  .ok());
}

TEST_F(IronSafeTest, UnauthorizedClientDenied) {
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer", "CREATE TABLE vault (id INTEGER)",
                      "read ::= sessionKeyIs(producer)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      false, false)
                  .ok());
  auto denied = system_->Execute("consumer", "SELECT * FROM vault");
  EXPECT_TRUE(denied.status().IsPermissionDenied());
}

TEST_F(IronSafeTest, ExecutionPolicyForcesHostOnly) {
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer", "CREATE TABLE t (id INTEGER)",
                      "read ::= sessionKeyIs(producer)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      false, false)
                  .ok());
  ASSERT_TRUE(system_->Execute("producer", "INSERT INTO t (id) VALUES (1)").ok());

  auto offloaded = system_->Execute("producer", "SELECT * FROM t",
                                    "exec ::= storageLocIs(eu-west-1)");
  ASSERT_TRUE(offloaded.ok()) << offloaded.status().ToString();
  EXPECT_TRUE(offloaded->offloaded);

  auto host_only = system_->Execute("producer", "SELECT * FROM t",
                                    "exec ::= storageLocIs(us-east-1)");
  ASSERT_TRUE(host_only.ok()) << host_only.status().ToString();
  EXPECT_FALSE(host_only->offloaded);
  EXPECT_EQ(host_only->result.rows.size(), offloaded->result.rows.size());
}

TEST_F(IronSafeTest, RightToErasureDeletesThroughPolicyPath) {
  // GDPR right to erasure: the producer deletes one data subject's rows;
  // subsequent reads (by anyone) no longer see them, and the delete went
  // through the monitor like any other statement.
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer",
                      "CREATE TABLE subjects (id INTEGER, who VARCHAR)",
                      "read ::= sessionKeyIs(producer) | "
                      "sessionKeyIs(consumer)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      false, false)
                  .ok());
  ASSERT_TRUE(system_
                  ->Execute("producer",
                            "INSERT INTO subjects (id, who) VALUES "
                            "(1, 'ann'), (2, 'bob'), (3, 'ann')")
                  .ok());

  // The consumer cannot erase (write permission belongs to the producer).
  auto blocked =
      system_->Execute("consumer", "DELETE FROM subjects WHERE who = 'ann'");
  EXPECT_TRUE(blocked.status().IsPermissionDenied());

  auto erased =
      system_->Execute("producer", "DELETE FROM subjects WHERE who = 'ann'");
  ASSERT_TRUE(erased.ok()) << erased.status().ToString();
  EXPECT_EQ(erased->result.rows[0][0].AsInt(), 2);

  auto after = system_->Execute("consumer", "SELECT who FROM subjects");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->result.rows.size(), 1u);
  EXPECT_EQ(after->result.rows[0][0].AsString(), "bob");
}

TEST_F(IronSafeTest, UpdateThroughPolicyPath) {
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer", "CREATE TABLE accts (id INTEGER, bal DOUBLE)",
                      "read ::= sessionKeyIs(producer)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      false, false)
                  .ok());
  ASSERT_TRUE(system_
                  ->Execute("producer",
                            "INSERT INTO accts (id, bal) VALUES (1, 10.0)")
                  .ok());
  auto updated = system_->Execute(
      "producer", "UPDATE accts SET bal = bal + 5 WHERE id = 1");
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  auto check = system_->Execute("producer", "SELECT bal FROM accts");
  ASSERT_TRUE(check.ok());
  EXPECT_NEAR(check->result.rows[0][0].AsDouble(), 15.0, 1e-9);
}

TEST_F(IronSafeTest, ProofOfComplianceVerifies) {
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer", "CREATE TABLE t2 (id INTEGER)",
                      "read ::= sessionKeyIs(producer)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      false, false)
                  .ok());
  auto result = system_->Execute("producer", "SELECT * FROM t2");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(monitor::TrustedMonitor::VerifyProof(
      result->proof, system_->monitor()->public_key()));
  EXPECT_EQ(result->proof.host_measurement,
            system_->csa()->host_enclave()->measurement());
}

}  // namespace
}  // namespace ironsafe::engine
