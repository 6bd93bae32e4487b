// Acceptance suite for the sharded multi-node CSA fleet (src/dist,
// docs/SHARDING.md). The tentpole invariants:
//   - result rows are bit-identical across shard counts (1/2/4/8) AND
//     real worker counts (1/4/16) for every evaluated TPC-H query;
//   - cost totals, stats and default traces are bit-identical across
//     worker counts and reruns for a fixed shard count;
//   - killing any storage node mid-query fails over to its replica and
//     returns bit-identical rows;
//   - scan/aggregate-heavy queries get faster (simulated elapsed) as the
//     shard count grows.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "dist/fleet.h"
#include "dist/planner.h"
#include "engine/csa_system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sql/parser.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/table_spec.h"

namespace ironsafe::dist {
namespace {

namespace site = sim::fault_site;
using sim::FaultRegistry;
using sim::ScopedFaultInjection;

constexpr double kScaleFactor = 0.001;

/// Exact serialization, order included: sharding must not even reorder
/// rows relative to the single-shard fleet.
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

/// Order-free, 3-decimal canonical form for comparisons where float
/// summation order legitimately differs (partial aggregation).
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

Status LoadTpch(sql::Database* db) {
  tpch::TpchGenerator gen(tpch::TpchConfig{kScaleFactor, 42});
  return gen.LoadInto(db);
}

/// One fleet per shard count, shared by every suite deriving from this
/// fixture (building 30 secure stores is the expensive part of this
/// file). gtest calls SetUpTestSuite once per derived suite, so the
/// fleets are built by the first call only. The registry is
/// heap-allocated and never freed so the fleets stay reachable at exit
/// (LeakSanitizer treats reachable-from-global as intentional, matching
/// the other static fixtures in tests/).
class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (fleets_ != nullptr) return;
    fleets_ = new std::map<int, ShardedCsaFleet*>();
    for (int shards : {1, 2, 4, 8}) {
      FleetOptions options;
      options.shard_count = shards;
      options.replicas_per_shard = 2;
      options.partitions = tpch::TpchPartitionScheme();
      auto fleet = ShardedCsaFleet::Create(options);
      ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
      ASSERT_TRUE((*fleet)->Load(LoadTpch).ok());
      (*fleets_)[shards] = fleet->release();
    }
  }

  static ShardedCsaFleet* fleet(int shards) { return (*fleets_)[shards]; }

  static FleetOutcome MustRun(int shards, const std::string& sql) {
    auto out = fleet(shards)->Run(sql);
    EXPECT_TRUE(out.ok()) << "shards=" << shards << ": "
                          << out.status().ToString();
    return std::move(*out);
  }

  static std::map<int, ShardedCsaFleet*>* fleets_;
};

std::map<int, ShardedCsaFleet*>* FleetTest::fleets_ = nullptr;

// ---------------- shard-count invariance (the tentpole) ----------------

class ShardInvariance : public FleetTest,
                        public ::testing::WithParamInterface<int> {};

TEST_P(ShardInvariance, RowsBitIdenticalAcrossShardCounts) {
  auto q = tpch::GetQuery(GetParam());
  ASSERT_TRUE(q.ok());
  FleetOutcome base = MustRun(1, (*q)->sql);
  for (int shards : {2, 4, 8}) {
    FleetOutcome out = MustRun(shards, (*q)->sql);
    EXPECT_EQ(ExactRows(out.result), ExactRows(base.result))
        << "Q" << GetParam() << " diverged at " << shards << " shards";
    // The work totals are shard-count invariant even though their
    // placement is not: every partition slice is scanned exactly once.
    EXPECT_EQ(out.stats.rows_scanned, base.stats.rows_scanned);
    EXPECT_EQ(out.stats.rows_output, base.stats.rows_output);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEvaluatedQueries, ShardInvariance,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10, 12,
                                           13, 14, 16, 18, 19, 21),
                         [](const auto& param_info) {
                           return "Q" + std::to_string(param_info.param);
                         });

// The single-shard fleet must agree with the single-node testbed: the
// fleet generalizes scs, it does not redefine it.
TEST_F(FleetTest, SingleShardFleetMatchesCsaSystem) {
  engine::CsaOptions options;
  options.scale_factor = kScaleFactor;
  auto system = engine::CsaSystem::Create(options);
  ASSERT_TRUE(system.ok());
  ASSERT_TRUE((*system)->Load(LoadTpch).ok());
  for (int number : {3, 6, 12}) {
    auto q = tpch::GetQuery(number);
    ASSERT_TRUE(q.ok());
    auto scs = (*system)->Run(engine::SystemConfig::kScs, (*q)->sql);
    ASSERT_TRUE(scs.ok()) << scs.status().ToString();
    FleetOutcome out = MustRun(1, (*q)->sql);
    EXPECT_EQ(ExactRows(out.result), ExactRows(scs->result)) << "Q" << number;
    // Same fragments through the same ship routine: same wire bytes.
    EXPECT_EQ(out.shipped_bytes, scs->shipped_bytes) << "Q" << number;
  }
}

// ---------------- worker-count invariance ----------------

class WorkerInvariance : public FleetTest,
                         public ::testing::WithParamInterface<int> {};

TEST_P(WorkerInvariance, WorkerCountChangesNothingObservable) {
  auto q = tpch::GetQuery(GetParam());
  ASSERT_TRUE(q.ok());
  for (int shards : {1, 4}) {
    std::optional<FleetOutcome> base;
    std::string base_trace;
    for (int workers : {1, 4, 16}) {
      common::ThreadPool::set_max_workers(workers);
      obs::Tracer tracer;
      std::string trace;
      {
        obs::ScopedTracer scope(&tracer);
        auto out = fleet(shards)->Run((*q)->sql);
        if (!out.ok()) common::ThreadPool::set_max_workers(0);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        std::ostringstream os;
        tracer.ExportChromeTrace(os, obs::ExportOptions{});
        trace = os.str();
        if (!base.has_value()) {
          base = std::move(*out);
          base_trace = trace;
          continue;
        }
        EXPECT_EQ(ExactRows(out->result), ExactRows(base->result))
            << "shards=" << shards << " workers=" << workers;
        EXPECT_EQ(out->stats, base->stats) << "workers=" << workers;
        EXPECT_EQ(out->cost, base->cost)
            << "shards=" << shards << " workers=" << workers;
        EXPECT_EQ(out->shipped_bytes, base->shipped_bytes);
        EXPECT_EQ(out->storage_pages_read, base->storage_pages_read);
      }
      EXPECT_EQ(trace, base_trace)
          << "default trace diverged: shards=" << shards
          << " workers=" << workers;
    }
    common::ThreadPool::set_max_workers(0);
  }
}

INSTANTIATE_TEST_SUITE_P(Queries, WorkerInvariance, ::testing::Values(3, 6),
                         [](const auto& param_info) {
                           return "Q" + std::to_string(param_info.param);
                         });

TEST_F(FleetTest, RerunsAreBitIdentical) {
  auto q = tpch::GetQuery(12);
  ASSERT_TRUE(q.ok());
  FleetOutcome first = MustRun(4, (*q)->sql);
  FleetOutcome second = MustRun(4, (*q)->sql);
  EXPECT_EQ(ExactRows(first.result), ExactRows(second.result));
  EXPECT_EQ(first.cost, second.cost);
  EXPECT_EQ(first.stats, second.stats);
  EXPECT_EQ(first.shipped_bytes, second.shipped_bytes);
}

// ---------------- scale-out (the Figure 12 claim) ----------------

TEST_F(FleetTest, ScanHeavyQueryGetsFasterWithMoreShards) {
  auto q = tpch::GetQuery(6);
  ASSERT_TRUE(q.ok());
  FleetOutcome one = MustRun(1, (*q)->sql);
  FleetOutcome eight = MustRun(8, (*q)->sql);
  EXPECT_LT(eight.cost.elapsed_ns(), one.cost.elapsed_ns())
      << "8-shard q6 should beat 1-shard in simulated elapsed time";
  EXPECT_LT(eight.storage_phase_ns, one.storage_phase_ns);
}

// ---------------- replica failover ----------------

TEST_F(FleetTest, ShardDownFailsOverWithIdenticalRows) {
  auto q = tpch::GetQuery(6);
  ASSERT_TRUE(q.ok());
  FleetOutcome clean = MustRun(4, (*q)->sql);

  ScopedFaultInjection guard;
  FaultRegistry::Global().ArmNth(site::kDistShardDown, 1);
  FleetOutcome faulted = MustRun(4, (*q)->sql);

  EXPECT_EQ(FaultRegistry::Global().fired(site::kDistShardDown), 1u);
  EXPECT_EQ(faulted.failovers, 1);
  EXPECT_EQ(ExactRows(faulted.result), ExactRows(clean.result));
  // Failover detection shows up in the cost account.
  EXPECT_GT(faulted.cost.elapsed_ns(), clean.cost.elapsed_ns());
}

TEST_F(FleetTest, EveryGroupCanLoseItsPrimary) {
  // Kill the selected node right before each group's fragment dispatch
  // in turn: whatever single node dies, rows never change.
  auto q = tpch::GetQuery(3);
  ASSERT_TRUE(q.ok());
  FleetOutcome clean = MustRun(4, (*q)->sql);
  uint64_t checks_per_run;
  {
    ScopedFaultInjection guard;
    MustRun(4, (*q)->sql);
    checks_per_run = FaultRegistry::Global().occurrences(site::kDistShardDown);
  }
  ASSERT_GT(checks_per_run, 0u);
  for (uint64_t nth = 1; nth <= checks_per_run; ++nth) {
    ScopedFaultInjection guard;
    FaultRegistry::Global().ArmNth(site::kDistShardDown, nth);
    FleetOutcome faulted = MustRun(4, (*q)->sql);
    EXPECT_EQ(faulted.failovers, 1) << "nth=" << nth;
    EXPECT_EQ(ExactRows(faulted.result), ExactRows(clean.result))
        << "rows diverged when heartbeat check " << nth << " failed over";
  }
}

TEST_F(FleetTest, AllReplicasDownIsUnavailable) {
  auto q = tpch::GetQuery(6);
  ASSERT_TRUE(q.ok());
  ScopedFaultInjection guard;
  // Two consecutive heartbeat failures on the first dispatch exhaust
  // both replicas of that group.
  FaultRegistry::Global().ArmNth(site::kDistShardDown, 1, /*count=*/2);
  auto out = fleet(4)->Run((*q)->sql);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsUnavailable()) << out.status().ToString();
}

TEST_F(FleetTest, FailedQueryDoesNotChangeTheNextQuerysCost) {
  auto q = tpch::GetQuery(3);
  ASSERT_TRUE(q.ok());
  FleetOutcome clean = MustRun(4, (*q)->sql);
  {
    ScopedFaultInjection guard;
    // Q3's customer, orders and lineitem fragments are all partitioned:
    // group 0 ships its three before group 1's first heartbeat, which
    // fails on both replicas.
    FaultRegistry::Global().ArmNth(site::kDistShardDown, 4, /*count=*/2);
    auto failed = fleet(4)->Run((*q)->sql);
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsUnavailable()) << failed.status().ToString();
  }
  // The batches shipped before the failure must not stay resident in the
  // host enclave and lower the next query's EPC charges.
  FleetOutcome again = MustRun(4, (*q)->sql);
  EXPECT_EQ(again.cost, clean.cost);
  EXPECT_EQ(ExactRows(again.result), ExactRows(clean.result));
}

TEST_F(FleetTest, CorruptShippedFragmentRekeysAndRecovers) {
  auto q = tpch::GetQuery(6);
  ASSERT_TRUE(q.ok());
  FleetOutcome clean = MustRun(2, (*q)->sql);

  ScopedFaultInjection guard;
  int64_t rekeys = obs::GetCounter("dist.channel.rehandshakes").value();
  FaultRegistry::Global().ArmNth(site::kDistFragmentCorrupt, 1, /*count=*/1,
                                 /*param=*/5);
  FleetOutcome faulted = MustRun(2, (*q)->sql);

  EXPECT_EQ(ExactRows(faulted.result), ExactRows(clean.result));
  EXPECT_GE(obs::GetCounter("dist.channel.rehandshakes").value(), rekeys + 1);
}

// ---------------- distributed planner ----------------

class DistPlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = sql::Database::CreateInMemory();
    ASSERT_TRUE(db_->Execute("CREATE TABLE lineitem (l_orderkey INTEGER, "
                             "l_quantity DOUBLE, l_price DOUBLE, "
                             "l_flag VARCHAR)")
                    .ok());
    ASSERT_TRUE(db_->Execute("CREATE TABLE orders (o_orderkey INTEGER, "
                             "o_custkey INTEGER)")
                    .ok());
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE region (r_regionkey INTEGER)").ok());
    scheme_ = {{"lineitem", sql::PartitionKind::kRange, "l_orderkey"},
               {"orders", sql::PartitionKind::kRange, "o_orderkey"}};
    options_.shard_count = 4;
    options_.co_located = [](const std::string&, const std::string&) {
      return true;
    };
  }

  Result<DistPlan> Plan(const std::string& sql) {
    auto stmt = sql::ParseSelect(sql);
    if (!stmt.ok()) return stmt.status();
    return PlanQuery(**stmt, *db_, scheme_, options_);
  }

  std::unique_ptr<sql::Database> db_;
  std::vector<sql::TablePartition> scheme_;
  PlannerOptions options_;
};

TEST_F(DistPlannerTest, PartitionedFragmentsFanOutWithMergeKey) {
  auto plan = Plan(
      "SELECT * FROM lineitem, region WHERE l_orderkey > 5 AND "
      "l_orderkey = r_regionkey");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->partial_aggregation);
  ASSERT_EQ(plan->fragments.size(), 2u);
  const FragmentPlacement* li = nullptr;
  const FragmentPlacement* re = nullptr;
  for (const auto& f : plan->fragments) {
    if (f.fragment.source_table == "lineitem") li = &f;
    if (f.fragment.source_table == "region") re = &f;
  }
  ASSERT_NE(li, nullptr);
  ASSERT_NE(re, nullptr);
  EXPECT_TRUE(li->partitioned);
  EXPECT_EQ(li->merge_key, "l_orderkey");
  EXPECT_FALSE(re->partitioned);
  EXPECT_LT(re->home_group, options_.shard_count);
}

TEST_F(DistPlannerTest, PartialAggregationPlansSingleTableGroupBy) {
  options_.partial_aggregation = true;
  auto plan = Plan(
      "SELECT l_flag, count(*) AS cnt, sum(l_quantity) AS qty FROM "
      "lineitem WHERE l_price < 100 GROUP BY l_flag ORDER BY l_flag");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->partial_aggregation);
  ASSERT_EQ(plan->fragments.size(), 1u);
  EXPECT_TRUE(plan->fragments[0].partitioned);
  // The fragment is the whole query (minus ORDER BY) with canonical
  // output names; the host query re-aggregates the shipped partials.
  EXPECT_NE(plan->fragments[0].fragment.sql.find("GROUP BY"),
            std::string::npos);
  EXPECT_EQ(plan->fragments[0].fragment.sql.find("ORDER BY"),
            std::string::npos);
  std::string host = plan->host_query->ToString();
  EXPECT_NE(host.find("SUM(f1)"), std::string::npos) << host;
  EXPECT_NE(host.find("SUM(f2)"), std::string::npos) << host;
  EXPECT_NE(host.find("ORDER BY"), std::string::npos) << host;
}

TEST_F(DistPlannerTest, PartialAggregationAllowsCoPartitionedJoin) {
  options_.partial_aggregation = true;
  auto plan = Plan(
      "SELECT count(*) AS cnt FROM lineitem, orders WHERE "
      "l_orderkey = o_orderkey");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->partial_aggregation);
}

TEST_F(DistPlannerTest, PartialAggregationRejectsNonKeyJoin) {
  options_.partial_aggregation = true;
  // The join is not on the partition keys: matching pairs straddle
  // shards, so per-shard partials would miss them.
  auto plan = Plan(
      "SELECT count(*) AS cnt FROM lineitem, orders WHERE "
      "l_orderkey = o_custkey");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->partial_aggregation);
}

TEST_F(DistPlannerTest, PartialAggregationRejectsNonCoLocatedTables) {
  options_.partial_aggregation = true;
  options_.co_located = [](const std::string&, const std::string&) {
    return false;
  };
  auto plan = Plan(
      "SELECT count(*) AS cnt FROM lineitem, orders WHERE "
      "l_orderkey = o_orderkey");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->partial_aggregation);
}

TEST_F(DistPlannerTest, PartialAggregationRejectsIneligibleShapes) {
  options_.partial_aggregation = true;
  for (const char* sql : {
           // AVG partials don't merge by summation.
           "SELECT avg(l_price) AS a FROM lineitem",
           // DISTINCT, LIMIT and subqueries stay on the default plan.
           "SELECT DISTINCT l_flag FROM lineitem",
           "SELECT l_flag, count(*) AS c FROM lineitem GROUP BY l_flag "
           "ORDER BY l_flag LIMIT 3",
           "SELECT count(*) AS c FROM lineitem WHERE l_orderkey IN "
           "(SELECT o_orderkey FROM orders)",
           // Replicated-only: every shard would return the same rows.
           "SELECT count(*) AS c FROM region",
           // A bare column that is not grouped cannot be merged.
           "SELECT l_flag, count(*) AS c FROM lineitem GROUP BY l_price",
       }) {
    auto plan = Plan(sql);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    EXPECT_FALSE(plan->partial_aggregation) << sql;
  }
}

// ---------------- partial aggregation end-to-end ----------------

TEST_F(FleetTest, PartialAggregationMatchesDefaultPlanOnIntegers) {
  // COUNT partials merge exactly, so the opt-in mode must reproduce the
  // default plan's rows bit-for-bit on an integer aggregate.
  std::string sql =
      "SELECT l_returnflag, count(*) AS cnt FROM lineitem "
      "GROUP BY l_returnflag ORDER BY l_returnflag";
  FleetOutcome plain = MustRun(4, sql);
  EXPECT_FALSE(plain.partial_aggregation);

  fleet(4)->set_partial_aggregation(true);
  auto partial = fleet(4)->Run(sql);
  fleet(4)->set_partial_aggregation(false);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();

  EXPECT_TRUE(partial->partial_aggregation);
  EXPECT_EQ(ExactRows(partial->result), ExactRows(plain.result));
  // The point of the mode: partials are tiny next to filtered rows.
  EXPECT_LT(partial->shipped_bytes, plain.shipped_bytes);
}

TEST_F(FleetTest, PartialAggregationAgreesOnQ6UpToRounding) {
  auto q = tpch::GetQuery(6);
  ASSERT_TRUE(q.ok());
  FleetOutcome plain = MustRun(4, (*q)->sql);

  fleet(4)->set_partial_aggregation(true);
  auto partial = fleet(4)->Run((*q)->sql);
  fleet(4)->set_partial_aggregation(false);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();

  EXPECT_TRUE(partial->partial_aggregation);
  EXPECT_EQ(Canonical(partial->result), Canonical(plain.result));
}

// ---------------- fleet plumbing ----------------

TEST_F(FleetTest, AttestationRunsOncePerNode) {
  int64_t before = obs::GetCounter("dist.attestations").value();
  FleetOptions options;
  options.shard_count = 2;
  options.replicas_per_shard = 2;
  auto small = ShardedCsaFleet::Create(options);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(obs::GetCounter("dist.attestations").value(), before + 4);
}

TEST_F(FleetTest, InvalidShapesAreRejected) {
  FleetOptions options;
  options.shard_count = 0;
  EXPECT_TRUE(ShardedCsaFleet::Create(options).status().IsInvalidArgument());
  options.shard_count = 2;
  options.replicas_per_shard = 0;
  EXPECT_TRUE(ShardedCsaFleet::Create(options).status().IsInvalidArgument());
}

TEST_F(FleetTest, CoPartitionedTablesCoLocate) {
  ShardedCsaFleet* f = fleet(4);
  // orders/lineitem share the orderkey range geometry; part/partsupp
  // hash the same key values; hash and range never co-locate.
  EXPECT_TRUE(f->CoLocated("orders", "lineitem"));
  EXPECT_TRUE(f->CoLocated("part", "partsupp"));
  EXPECT_TRUE(f->CoLocated("customer", "part"));
  EXPECT_FALSE(f->CoLocated("lineitem", "part"));
  EXPECT_FALSE(f->CoLocated("region", "nation"));
  EXPECT_FALSE(f->CoLocated("lineitem", "no_such_table"));
}

TEST_F(FleetTest, ReplicasOfAGroupHoldIdenticalSlices) {
  ShardedCsaFleet* f = fleet(2);
  for (int g = 0; g < 2; ++g) {
    for (const char* table : {"lineitem", "customer", "nation"}) {
      auto a = f->node_db(g, 0)->Execute(std::string("SELECT * FROM ") +
                                         table);
      auto b = f->node_db(g, 1)->Execute(std::string("SELECT * FROM ") +
                                         table);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(ExactRows(*a), ExactRows(*b))
          << "group " << g << " table " << table;
    }
  }
}

TEST_F(FleetTest, PartitionedTablesAreActuallySplit) {
  // At 4 shards no single node holds all of lineitem, and the union of
  // the slices is the whole table.
  uint64_t total = 0;
  auto whole = fleet(1)->node_db(0, 0)->Execute(
      "SELECT count(*) AS c FROM lineitem");
  ASSERT_TRUE(whole.ok());
  int64_t expected = (*whole).rows[0][0].AsInt();
  for (int g = 0; g < 4; ++g) {
    auto slice = fleet(4)->node_db(g, 0)->Execute(
        "SELECT count(*) AS c FROM lineitem");
    ASSERT_TRUE(slice.ok());
    int64_t rows = (*slice).rows[0][0].AsInt();
    EXPECT_LT(rows, expected);
    total += static_cast<uint64_t>(rows);
  }
  EXPECT_EQ(total, static_cast<uint64_t>(expected));
}

}  // namespace
}  // namespace ironsafe::dist
