// Serving-layer sweep: FairScheduler and PlanCache units, the sealed
// statement codecs, and the QueryService acceptance properties from the
// serving design — admission provably bounds queue depth (backpressure is
// retryable and distinguishable from drain), plan-cache hits skip the
// monitor's control path and invalidate on policy-epoch change, drain
// loses and duplicates nothing, and a fixed 8-client schedule produces
// bit-identical cost totals and default trace at any worker count.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/retry.h"
#include "common/thread_pool.h"
#include "engine/ironsafe.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/plan_cache.h"
#include "server/query_service.h"
#include "server/scheduler.h"
#include "sql/value.h"

namespace ironsafe::server {
namespace {

int64_t CounterValue(std::string_view name) {
  return obs::GetCounter(name).value();
}

// ---------------- FairScheduler ----------------

QueuedStatement Item(uint64_t session, uint64_t seq) {
  return QueuedStatement{session, seq, {}};
}

TEST(FairSchedulerTest, ServesSessionsRoundRobinByAscendingId) {
  FairScheduler sched(SchedulerLimits{});
  ASSERT_TRUE(sched.Admit(Item(2, 0)).ok());
  ASSERT_TRUE(sched.Admit(Item(1, 0)).ok());
  ASSERT_TRUE(sched.Admit(Item(1, 1)).ok());
  ASSERT_TRUE(sched.Admit(Item(3, 0)).ok());
  std::vector<std::pair<uint64_t, uint64_t>> order;
  while (auto next = sched.Next()) {
    order.emplace_back(next->session_id, next->seq);
  }
  // Round-robin by ascending session id, wrapping back to session 1 for
  // its second statement — never two in a row from one tenant while
  // another waits.
  EXPECT_EQ(order, (std::vector<std::pair<uint64_t, uint64_t>>{
                       {1, 0}, {2, 0}, {3, 0}, {1, 1}}));
  EXPECT_EQ(sched.depth(), 0u);
}

TEST(FairSchedulerTest, OrderIsAFunctionOfTheScheduleNotArrival) {
  // Interleaving Admit and Next mid-stream continues the rotation from
  // the last-served session.
  FairScheduler sched(SchedulerLimits{});
  ASSERT_TRUE(sched.Admit(Item(1, 0)).ok());
  ASSERT_TRUE(sched.Admit(Item(2, 0)).ok());
  EXPECT_EQ(sched.Next()->session_id, 1u);
  ASSERT_TRUE(sched.Admit(Item(1, 1)).ok());
  EXPECT_EQ(sched.Next()->session_id, 2u);  // not 1 again
  EXPECT_EQ(sched.Next()->session_id, 1u);
  EXPECT_FALSE(sched.Next().has_value());
}

TEST(FairSchedulerTest, PerSessionQuotaRejectsOnlyTheNoisyTenant) {
  FairScheduler sched(SchedulerLimits{/*max_per_session=*/2, /*max_total=*/64});
  ASSERT_TRUE(sched.Admit(Item(1, 0)).ok());
  ASSERT_TRUE(sched.Admit(Item(1, 1)).ok());
  Status over = sched.Admit(Item(1, 2));
  EXPECT_TRUE(over.IsResourceExhausted()) << over.ToString();
  EXPECT_TRUE(IsBackpressure(over));
  // A different session still has quota.
  EXPECT_TRUE(sched.Admit(Item(2, 0)).ok());
  EXPECT_EQ(sched.session_depth(1), 2u);
  EXPECT_EQ(sched.session_depth(2), 1u);
  // Popping frees the quota again.
  ASSERT_TRUE(sched.Next().has_value());
  EXPECT_TRUE(sched.Admit(Item(1, 2)).ok());
}

TEST(FairSchedulerTest, GlobalBoundCapsPeakDepth) {
  FairScheduler sched(SchedulerLimits{/*max_per_session=*/8, /*max_total=*/3});
  ASSERT_TRUE(sched.Admit(Item(1, 0)).ok());
  ASSERT_TRUE(sched.Admit(Item(2, 0)).ok());
  ASSERT_TRUE(sched.Admit(Item(3, 0)).ok());
  EXPECT_TRUE(sched.Admit(Item(4, 0)).IsResourceExhausted());
  EXPECT_EQ(sched.depth(), 3u);
  EXPECT_EQ(sched.peak_depth(), 3u);
  ASSERT_TRUE(sched.Next().has_value());
  EXPECT_EQ(sched.depth(), 2u);
  EXPECT_EQ(sched.peak_depth(), 3u);  // high-water mark sticks
  EXPECT_TRUE(sched.Admit(Item(4, 0)).ok());
  EXPECT_LE(sched.peak_depth(), sched.limits().max_total);
}

TEST(FairSchedulerTest, EvictSessionReturnsItsQueueInOrder) {
  FairScheduler sched(SchedulerLimits{});
  ASSERT_TRUE(sched.Admit(Item(1, 0)).ok());
  ASSERT_TRUE(sched.Admit(Item(2, 0)).ok());
  ASSERT_TRUE(sched.Admit(Item(1, 1)).ok());
  std::vector<QueuedStatement> evicted = sched.EvictSession(1);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0].seq, 0u);
  EXPECT_EQ(evicted[1].seq, 1u);
  EXPECT_EQ(sched.depth(), 1u);
  EXPECT_EQ(sched.session_depth(1), 0u);
  EXPECT_EQ(sched.Next()->session_id, 2u);
  EXPECT_TRUE(sched.EvictSession(1).empty());
}

TEST(FairSchedulerTest, WeightedTenantsShareInProportionUnderBacklog) {
  // WFQ share claim: with both sessions fully backlogged, a weight-4
  // gold tenant is served 4x as often as a weight-1 bronze tenant.
  FairScheduler sched(SchedulerLimits{/*max_per_session=*/32,
                                      /*max_total=*/64});
  ASSERT_TRUE(sched.SetSessionWeight(1, 4).ok());
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(sched.Admit(Item(1, i)).ok());
    ASSERT_TRUE(sched.Admit(Item(2, i)).ok());
  }
  int gold = 0;
  for (int pop = 0; pop < 10; ++pop) {
    auto item = sched.Next();
    ASSERT_TRUE(item.has_value());
    if (item->session_id == 1) ++gold;
  }
  EXPECT_EQ(gold, 8);  // 4:1 weights -> 8 of the first 10 pops
}

TEST(FairSchedulerTest, BackloggedBronzeIsBoundedByTheWeightRatio) {
  // Starvation bound: a backlogged session waits at most about
  // total_weight / weight pops between its own. With gold=8, silver=4,
  // bronze=1 (total 13), bronze must appear within every ~13-pop window.
  FairScheduler sched(SchedulerLimits{/*max_per_session=*/32,
                                      /*max_total=*/96});
  ASSERT_TRUE(sched.SetSessionWeight(1, 8).ok());
  ASSERT_TRUE(sched.SetSessionWeight(2, 4).ok());
  ASSERT_TRUE(sched.SetSessionWeight(3, 1).ok());
  for (uint64_t i = 0; i < 26; ++i) {
    ASSERT_TRUE(sched.Admit(Item(1, i)).ok());
    ASSERT_TRUE(sched.Admit(Item(2, i)).ok());
    if (i < 4) {
      ASSERT_TRUE(sched.Admit(Item(3, i)).ok());
    }
  }
  std::vector<int> bronze_positions;
  std::map<uint64_t, int> pops;
  for (int pop = 0; pop < 26; ++pop) {
    auto item = sched.Next();
    ASSERT_TRUE(item.has_value());
    ++pops[item->session_id];
    if (item->session_id == 3) bronze_positions.push_back(pop);
  }
  // Proportional service over two full virtual-time rounds.
  EXPECT_EQ(pops[1], 16);
  EXPECT_EQ(pops[2], 8);
  EXPECT_EQ(pops[3], 2);
  // And the gap between consecutive bronze pops respects the bound.
  ASSERT_GE(bronze_positions.size(), 2u);
  EXPECT_LE(bronze_positions[1] - bronze_positions[0], 14);
}

TEST(FairSchedulerTest, ZeroWeightIsRejectedAsStarvationNotFairness) {
  FairScheduler sched(SchedulerLimits{});
  Status zero = sched.SetSessionWeight(7, 0);
  EXPECT_TRUE(zero.IsInvalidArgument()) << zero.ToString();
  EXPECT_EQ(sched.session_weight(7), 1u);  // unchanged default
  ASSERT_TRUE(sched.SetSessionWeight(7, 8).ok());
  EXPECT_EQ(sched.session_weight(7), 8u);
  // The rejection leaves scheduling intact: admitted work still pops.
  ASSERT_TRUE(sched.Admit(Item(7, 0)).ok());
  EXPECT_EQ(sched.Next()->session_id, 7u);
}

// ---------------- PlanCache ----------------

CachedPlan Plan(sim::SimNanos ns) {
  CachedPlan plan;
  plan.authorize_ns = ns;
  return plan;
}

TEST(PlanCacheTest, MissThenHitWithinOneEpoch) {
  PlanCache cache(4);
  EXPECT_EQ(cache.Lookup("c0", "", "SELECT 1", 1), nullptr);
  cache.Insert("c0", "", "SELECT 1", 1, Plan(42));
  std::shared_ptr<const CachedPlan> hit = cache.Lookup("c0", "", "SELECT 1", 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->authorize_ns, 42u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlanCacheTest, KeyCoversClientPolicyAndSql) {
  PlanCache cache(8);
  cache.Insert("c0", "", "SELECT 1", 1, Plan(1));
  EXPECT_EQ(cache.Lookup("c1", "", "SELECT 1", 1), nullptr);
  EXPECT_EQ(cache.Lookup("c0", "redact", "SELECT 1", 1), nullptr);
  EXPECT_EQ(cache.Lookup("c0", "", "SELECT 2", 1), nullptr);
  // Length prefixes keep field boundaries: ("ab","c") != ("a","bc").
  cache.Insert("ab", "c", "q", 1, Plan(2));
  EXPECT_EQ(cache.Lookup("a", "bc", "q", 1), nullptr);
}

TEST(PlanCacheTest, NewerEpochInvalidatesEverything) {
  PlanCache cache(8);
  cache.Insert("c0", "", "SELECT 1", 1, Plan(1));
  cache.Insert("c0", "", "SELECT 2", 1, Plan(2));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup("c0", "", "SELECT 1", 2), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.invalidations(), 2u);
  // The cache now lives in the new epoch; fresh inserts stick.
  cache.Insert("c0", "", "SELECT 1", 2, Plan(3));
  EXPECT_NE(cache.Lookup("c0", "", "SELECT 1", 2), nullptr);
}

TEST(PlanCacheTest, CapacityEvictsOldestInsertion) {
  PlanCache cache(2);
  cache.Insert("c0", "", "q1", 1, Plan(1));
  cache.Insert("c0", "", "q2", 1, Plan(2));
  cache.Insert("c0", "", "q3", 1, Plan(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup("c0", "", "q1", 1), nullptr);  // oldest gone
  EXPECT_NE(cache.Lookup("c0", "", "q2", 1), nullptr);
  EXPECT_NE(cache.Lookup("c0", "", "q3", 1), nullptr);
}

TEST(PlanCacheTest, ZeroCapacityNeverStores) {
  PlanCache cache(0);
  EXPECT_EQ(cache.Insert("c0", "", "q", 1, Plan(1)), nullptr);
  EXPECT_EQ(cache.Lookup("c0", "", "q", 1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------- statement codecs ----------------

TEST(StatementCodecTest, RequestRoundTripAllFields) {
  StatementRequest request;
  request.sql = "INSERT INTO t (a) VALUES (1)";
  request.execution_policy = "read ::= sessionKeyIs(c0)";
  request.insert_expiry = 12345;
  request.insert_reuse = 1;
  auto back = DecodeStatementRequest(EncodeStatementRequest(request));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->sql, request.sql);
  EXPECT_EQ(back->execution_policy, request.execution_policy);
  EXPECT_EQ(back->insert_expiry, request.insert_expiry);
  EXPECT_EQ(back->insert_reuse, request.insert_reuse);
}

TEST(StatementCodecTest, RequestRoundTripPreservesAbsentOptionals) {
  StatementRequest request;
  request.sql = "SELECT 1";
  auto back = DecodeStatementRequest(EncodeStatementRequest(request));
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->insert_expiry.has_value());
  EXPECT_FALSE(back->insert_reuse.has_value());
}

TEST(StatementCodecTest, ResponseRoundTripOk) {
  StatementResponse response;
  response.result.schema.AddColumn(sql::Column{"owner", sql::Type::kString});
  response.result.rows.push_back(sql::Row{sql::Value::String("user7")});
  response.monitor_ns = 11;
  response.execution_ns = 22;
  response.offloaded = true;
  response.plan_cache_hit = true;
  auto back = DecodeStatementResponse(EncodeStatementResponse(response));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->status.ok());
  ASSERT_EQ(back->result.rows.size(), 1u);
  EXPECT_EQ(back->result.rows[0][0].AsString(), "user7");
  EXPECT_EQ(back->monitor_ns, 11u);
  EXPECT_EQ(back->execution_ns, 22u);
  EXPECT_TRUE(back->offloaded);
  EXPECT_TRUE(back->plan_cache_hit);
  EXPECT_EQ(back->total_ns(), 33u);
}

TEST(StatementCodecTest, ResponseRoundTripError) {
  // Policy rejections travel inside the sealed channel like any result.
  StatementResponse response;
  response.status = Status::PermissionDenied("policy forbids SELECT *");
  auto back = DecodeStatementResponse(EncodeStatementResponse(response));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->status.IsPermissionDenied());
  EXPECT_EQ(back->status.message(), "policy forbids SELECT *");
}

TEST(StatementCodecTest, GarbageAndTrailingBytesRejected) {
  EXPECT_FALSE(DecodeStatementRequest({}).ok());
  EXPECT_FALSE(DecodeStatementRequest(ToBytes("junk")).ok());
  EXPECT_FALSE(DecodeStatementResponse({}).ok());
  StatementRequest request;
  request.sql = "SELECT 1";
  Bytes padded = EncodeStatementRequest(request);
  padded.push_back(0xFF);
  EXPECT_FALSE(DecodeStatementRequest(padded).ok());

  auto rejected = [](const Result<StatementResponse>& r) {
    return r.status().code() == StatusCode::kInvalidArgument;
  };
  auto error_frame = [](uint32_t code) {
    Bytes frame = {0x00};
    PutU32(&frame, code);
    PutLengthPrefixed(&frame, "x");
    return frame;
  };
  // Status code 0 (kOk) in an error frame would turn an error into an
  // empty success; codes past kUnavailable are not errors at all.
  EXPECT_TRUE(rejected(DecodeStatementResponse(error_frame(0))));
  EXPECT_TRUE(rejected(DecodeStatementResponse(
      error_frame(static_cast<uint32_t>(StatusCode::kUnavailable) + 1))));
  EXPECT_TRUE(DecodeStatementResponse(
                  error_frame(static_cast<uint32_t>(StatusCode::kNotFound)))
                  .ok());
  // The error branch checks trailing bytes too.
  Bytes padded_error =
      error_frame(static_cast<uint32_t>(StatusCode::kNotFound));
  padded_error.push_back(0x00);
  EXPECT_TRUE(rejected(DecodeStatementResponse(padded_error)));

  // Flag bytes are 0 or 1. Response flags: ok (byte 0), offloaded and hit
  // (the last two bytes).
  Bytes ok_frame = EncodeStatementResponse(StatementResponse{});
  ASSERT_TRUE(DecodeStatementResponse(ok_frame).ok());
  for (size_t at : {size_t{0}, ok_frame.size() - 2, ok_frame.size() - 1}) {
    Bytes bad = ok_frame;
    bad[at] = 2;
    EXPECT_TRUE(rejected(DecodeStatementResponse(bad))) << "byte " << at;
  }
  // Request flags: has_expiry (byte 0) and has_reuse (byte 9).
  Bytes request_frame = EncodeStatementRequest(request);
  for (size_t at : {size_t{0}, size_t{9}}) {
    Bytes bad = request_frame;
    bad[at] = 0x80;
    EXPECT_EQ(DecodeStatementRequest(bad).status().code(),
              StatusCode::kInvalidArgument)
        << "byte " << at;
  }
}

// ---------------- QueryService ----------------

class QueryServiceTest : public ::testing::Test {
 protected:
  static constexpr int kConsumers = 8;

  static std::unique_ptr<engine::IronSafeSystem> NewSystem() {
    engine::IronSafeSystem::Options options;
    options.csa.scale_factor = 0.001;
    auto system = engine::IronSafeSystem::Create(options);
    if (!system.ok()) return nullptr;
    if (!(*system)->Bootstrap().ok()) return nullptr;
    (*system)->set_current_date(*sql::ParseDate("1997-06-01"));
    (*system)->RegisterClient("producer");
    std::string policy = "read ::= sessionKeyIs(producer)";
    for (int c = 0; c < kConsumers; ++c) {
      std::string key = "c" + std::to_string(c);
      (*system)->RegisterClient(key);
      policy += " | sessionKeyIs(" + key + ")";
    }
    policy += "\nwrite ::= sessionKeyIs(producer)\n";
    if (!(*system)
             ->CreateProtectedTable(
                 "producer",
                 "CREATE TABLE accounts "
                 "(id INTEGER, owner VARCHAR, balance DOUBLE)",
                 policy, /*with_expiry=*/false, /*with_reuse=*/false)
             .ok()) {
      return nullptr;
    }
    std::string insert = "INSERT INTO accounts (id, owner, balance) VALUES ";
    for (int i = 0; i < 40; ++i) {
      if (i) insert += ", ";
      insert += "(" + std::to_string(i) + ", 'user" + std::to_string(i) +
                "', " + std::to_string(100.0 + i) + ")";
    }
    if (!(*system)->Execute("producer", insert).ok()) return nullptr;
    return std::move(*system);
  }

  void SetUp() override {
    system_ = NewSystem();
    ASSERT_NE(system_, nullptr);
  }

  struct End {
    uint64_t id = 0;
    std::unique_ptr<net::SecureChannel> channel;
  };

  static End Open(QueryService& service, const std::string& key) {
    auto session = service.OpenSession(key);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    if (!session.ok()) return {};
    return End{session->id, std::move(session->channel)};
  }

  static Bytes SealRequest(End& end, const std::string& sql) {
    StatementRequest request;
    request.sql = sql;
    auto frame = end.channel->Send(EncodeStatementRequest(request), nullptr);
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    return frame.ok() ? *frame : Bytes{};
  }

  static StatementResponse MustDecode(End& end, Completion& done) {
    StatementResponse failed;
    failed.status = Status::Internal("decode failed");
    EXPECT_TRUE(done.transport.ok()) << done.transport.ToString();
    if (!done.transport.ok()) return failed;
    auto plain = end.channel->Receive(done.response_frame, nullptr);
    EXPECT_TRUE(plain.ok()) << plain.status().ToString();
    if (!plain.ok()) return failed;
    auto response = DecodeStatementResponse(*plain);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? std::move(*response) : failed;
  }

  std::unique_ptr<engine::IronSafeSystem> system_;
};

TEST_F(QueryServiceTest, OpenSessionRejectsUnknownClients) {
  QueryService service(system_.get(), ServiceOptions{});
  auto session = service.OpenSession("never-registered");
  EXPECT_TRUE(session.status().IsUnauthenticated())
      << session.status().ToString();
  EXPECT_EQ(service.stats().sessions_opened, 0u);
}

TEST_F(QueryServiceTest, SealedStatementRoundTripsThroughTheEngine) {
  QueryService service(system_.get(), ServiceOptions{});
  End c0 = Open(service, "c0");
  Bytes frame =
      SealRequest(c0, "SELECT owner, balance FROM accounts WHERE id = 7");
  auto seq = service.Submit(c0.id, frame);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(service.RunUntilIdle(), 1u);
  auto done = service.TakeCompletions(c0.id);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].seq, *seq);
  StatementResponse response = MustDecode(c0, done[0]);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.result.rows.size(), 1u);
  EXPECT_EQ(response.result.rows[0][0].AsString(), "user7");
  EXPECT_FALSE(response.plan_cache_hit);
  EXPECT_GT(response.monitor_ns, 0u);
  EXPECT_GT(response.execution_ns, 0u);
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.statements_admitted, 1u);
  EXPECT_EQ(stats.statements_executed, 1u);
  EXPECT_EQ(stats.statements_aborted, 0u);
  // Completions are consumed exactly once.
  EXPECT_TRUE(service.TakeCompletions(c0.id).empty());
}

TEST_F(QueryServiceTest, PolicyRejectionTravelsInsideTheChannel) {
  QueryService service(system_.get(), ServiceOptions{});
  End c0 = Open(service, "c0");
  // c0 has read but not write on accounts.
  Bytes frame = SealRequest(
      c0, "INSERT INTO accounts (id, owner, balance) VALUES (99, 'x', 1.0)");
  ASSERT_TRUE(service.Submit(c0.id, frame).ok());
  service.RunUntilIdle();
  auto done = service.TakeCompletions(c0.id);
  ASSERT_EQ(done.size(), 1u);
  ASSERT_TRUE(done[0].transport.ok());  // transport fine; engine said no
  StatementResponse response = MustDecode(c0, done[0]);
  EXPECT_TRUE(response.status.IsPermissionDenied())
      << response.status.ToString();
}

TEST_F(QueryServiceTest, UnopenableFrameAbortsOnlyItsOwnStatement) {
  QueryService service(system_.get(), ServiceOptions{});
  End c0 = Open(service, "c0");
  auto bad = service.Submit(c0.id, ToBytes("not a sealed frame"));
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  auto good = service.Submit(
      c0.id, SealRequest(c0, "SELECT owner FROM accounts WHERE id = 3"));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  service.RunUntilIdle();

  // The frame that fails to open aborts unexecuted; the encode barrier
  // skips its seq, so the next statement still gets its sealed response.
  auto done = service.TakeCompletions(c0.id);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].seq, *bad);
  EXPECT_TRUE(done[0].transport.IsCorruption())
      << done[0].transport.ToString();
  EXPECT_TRUE(done[0].response_frame.empty());
  EXPECT_EQ(done[1].seq, *good);
  StatementResponse response = MustDecode(c0, done[1]);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.result.rows.size(), 1u);
  EXPECT_EQ(response.result.rows[0][0].AsString(), "user3");
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.statements_aborted, 1u);
  EXPECT_EQ(stats.statements_executed, 1u);
}

TEST_F(QueryServiceTest, AdmissionBoundsQueueDepthWithRetryableBackpressure) {
  ServiceOptions options;
  options.limits.max_per_session = 2;
  options.limits.max_total = 3;
  QueryService service(system_.get(), options);
  End a = Open(service, "c0");
  End b = Open(service, "c1");
  int64_t rejected_before = CounterValue("server.admission.rejected");

  Bytes a1 = SealRequest(a, "SELECT owner FROM accounts WHERE id = 1");
  Bytes a2 = SealRequest(a, "SELECT owner FROM accounts WHERE id = 2");
  Bytes a3 = SealRequest(a, "SELECT owner FROM accounts WHERE id = 3");
  Bytes b1 = SealRequest(b, "SELECT owner FROM accounts WHERE id = 4");
  Bytes b2 = SealRequest(b, "SELECT owner FROM accounts WHERE id = 5");

  ASSERT_TRUE(service.Submit(a.id, a1).ok());
  ASSERT_TRUE(service.Submit(a.id, a2).ok());
  // Per-session quota.
  auto quota = service.Submit(a.id, a3);
  EXPECT_TRUE(quota.status().IsResourceExhausted()) << quota.status().ToString();
  EXPECT_TRUE(IsBackpressure(quota.status()));
  // Global bound: c1 has quota room but only one global slot remains.
  ASSERT_TRUE(service.Submit(b.id, b1).ok());
  auto global = service.Submit(b.id, b2);
  EXPECT_TRUE(global.status().IsResourceExhausted());
  EXPECT_TRUE(IsBackpressure(global.status()));

  EXPECT_EQ(CounterValue("server.admission.rejected") - rejected_before, 2);
  EXPECT_EQ(service.stats().peak_queue_depth, options.limits.max_total);

  // Backpressure resolves on the same path: pump, resubmit the SAME
  // frames (channel sequence numbers survive the rejection).
  EXPECT_EQ(service.RunUntilIdle(), 3u);
  ASSERT_TRUE(service.Submit(a.id, a3).ok());
  ASSERT_TRUE(service.Submit(b.id, b2).ok());
  EXPECT_EQ(service.RunUntilIdle(), 2u);

  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.statements_admitted, 5u);
  EXPECT_EQ(stats.statements_rejected, 2u);
  EXPECT_EQ(stats.statements_executed, 5u);
  EXPECT_LE(stats.peak_queue_depth, options.limits.max_total);

  auto done_a = service.TakeCompletions(a.id);
  auto done_b = service.TakeCompletions(b.id);
  ASSERT_EQ(done_a.size(), 3u);
  ASSERT_EQ(done_b.size(), 2u);
  for (Completion& done : done_a) {
    EXPECT_TRUE(MustDecode(a, done).status.ok());
  }
  for (Completion& done : done_b) {
    EXPECT_TRUE(MustDecode(b, done).status.ok());
  }
}

TEST_F(QueryServiceTest, PlanCacheHitSkipsTheMonitorControlPath) {
  QueryService service(system_.get(), ServiceOptions{});
  End c0 = Open(service, "c0");
  const std::string hot = "SELECT owner, balance FROM accounts WHERE id = 7";
  int64_t hits_before = CounterValue("server.plan_cache.hit");

  obs::Tracer tracer;
  obs::ScopedTracer scope(&tracer);
  ASSERT_TRUE(service.Submit(c0.id, SealRequest(c0, hot)).ok());
  service.RunUntilIdle();
  ASSERT_TRUE(service.Submit(c0.id, SealRequest(c0, hot)).ok());
  service.RunUntilIdle();

  auto done = service.TakeCompletions(c0.id);
  ASSERT_EQ(done.size(), 2u);
  StatementResponse first = MustDecode(c0, done[0]);
  StatementResponse second = MustDecode(c0, done[1]);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_EQ(CounterValue("server.plan_cache.hit") - hits_before, 1);
  // The cached path pays only the monitor's per-execution half.
  EXPECT_LT(second.monitor_ns, first.monitor_ns);
  // Same rows either way.
  ASSERT_EQ(second.result.rows.size(), first.result.rows.size());
  EXPECT_EQ(second.result.rows[0][0].AsString(),
            first.result.rows[0][0].AsString());

  // The trace shows both shapes inside the pipeline's authorize stage: a
  // full "authorize" for the miss, an "authorize-cached" wrapping the
  // monitor's "cached-auth" for the hit.
  std::ostringstream trace;
  tracer.ExportChromeTrace(trace, obs::ExportOptions{});
  std::string json = trace.str();
  EXPECT_NE(json.find("stage-authorize"), std::string::npos);
  EXPECT_NE(json.find("stage-execute"), std::string::npos);
  EXPECT_NE(json.find("\"authorize\""), std::string::npos);
  EXPECT_NE(json.find("authorize-cached"), std::string::npos);
  EXPECT_NE(json.find("cached-auth"), std::string::npos);

  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
}

TEST_F(QueryServiceTest, PolicyEpochChangeInvalidatesCachedPlans) {
  QueryService service(system_.get(), ServiceOptions{});
  End c0 = Open(service, "c0");
  const std::string hot = "SELECT owner FROM accounts WHERE id = 9";

  auto run_one = [&]() -> StatementResponse {
    EXPECT_TRUE(service.Submit(c0.id, SealRequest(c0, hot)).ok());
    service.RunUntilIdle();
    auto done = service.TakeCompletions(c0.id);
    EXPECT_EQ(done.size(), 1u);
    return MustDecode(c0, done[0]);
  };

  EXPECT_FALSE(run_one().plan_cache_hit);  // cold
  EXPECT_TRUE(run_one().plan_cache_hit);   // warm

  // Any policy-relevant registration bumps the monitor's rewrite epoch;
  // the warmed plan must not survive it.
  int64_t invalidated_before = CounterValue("server.plan_cache.invalidated");
  system_->RegisterClient("late-tenant");
  EXPECT_FALSE(run_one().plan_cache_hit);
  EXPECT_GE(CounterValue("server.plan_cache.invalidated") - invalidated_before,
            1);
  EXPECT_TRUE(run_one().plan_cache_hit);  // re-warmed under the new epoch

  // The access-time input to the rewrite counts too.
  system_->set_current_date(*sql::ParseDate("1997-06-02"));
  EXPECT_FALSE(run_one().plan_cache_hit);
}

TEST_F(QueryServiceTest, DrainFlushesEveryAdmittedStatementExactlyOnce) {
  QueryService service(system_.get(), ServiceOptions{});
  End a = Open(service, "c0");
  End b = Open(service, "c1");
  std::vector<Bytes> frames_a, frames_b;
  for (int i = 0; i < 3; ++i) {
    frames_a.push_back(
        SealRequest(a, "SELECT owner FROM accounts WHERE id = " +
                           std::to_string(i)));
    frames_b.push_back(
        SealRequest(b, "SELECT owner FROM accounts WHERE id = " +
                           std::to_string(10 + i)));
    ASSERT_TRUE(service.Submit(a.id, frames_a.back()).ok());
    ASSERT_TRUE(service.Submit(b.id, frames_b.back()).ok());
  }

  EXPECT_EQ(service.Drain(), 6u);
  EXPECT_TRUE(service.draining());

  // Post-drain rejections are kUnavailable — NOT backpressure, so a
  // well-behaved client fails over instead of hammering retries.
  Bytes late = SealRequest(a, "SELECT owner FROM accounts WHERE id = 1");
  auto refused = service.Submit(a.id, late);
  EXPECT_TRUE(refused.status().IsUnavailable()) << refused.status().ToString();
  EXPECT_FALSE(IsBackpressure(refused.status()));
  EXPECT_TRUE(service.OpenSession("c2").status().IsUnavailable());
  EXPECT_EQ(service.Drain(), 0u);  // idempotent

  // Zero loss, zero duplication: every admitted statement has exactly
  // one OK completion, in submission order.
  auto done_a = service.TakeCompletions(a.id);
  auto done_b = service.TakeCompletions(b.id);
  ASSERT_EQ(done_a.size(), 3u);
  ASSERT_EQ(done_b.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(done_a[i].seq, i);
    EXPECT_TRUE(MustDecode(a, done_a[i]).status.ok());
    EXPECT_EQ(done_b[i].seq, i);
    EXPECT_TRUE(MustDecode(b, done_b[i]).status.ok());
  }
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.statements_admitted, 6u);
  EXPECT_EQ(stats.statements_executed, 6u);
  EXPECT_EQ(stats.statements_aborted, 0u);
}

TEST_F(QueryServiceTest, CloseSessionAbortsQueuedWorkAndZeroizesKeys) {
  QueryService service(system_.get(), ServiceOptions{});
  End c0 = Open(service, "c0");
  Bytes f1 = SealRequest(c0, "SELECT owner FROM accounts WHERE id = 1");
  Bytes f2 = SealRequest(c0, "SELECT owner FROM accounts WHERE id = 2");
  ASSERT_TRUE(service.Submit(c0.id, f1).ok());
  ASSERT_TRUE(service.Submit(c0.id, f2).ok());

  int64_t closed_before = CounterValue("net.channel.closed");
  ASSERT_TRUE(service.CloseSession(c0.id).ok());
  // The service side of the channel zeroized its keys on close.
  EXPECT_EQ(CounterValue("net.channel.closed") - closed_before, 1);

  // Both queued statements complete kUnavailable: they provably never
  // ran, so resubmitting on a new session is safe.
  auto done = service.TakeCompletions(c0.id);
  ASSERT_EQ(done.size(), 2u);
  for (Completion& c : done) {
    EXPECT_TRUE(c.transport.IsUnavailable()) << c.transport.ToString();
    EXPECT_TRUE(c.response_frame.empty());
  }
  EXPECT_EQ(service.RunUntilIdle(), 0u);
  EXPECT_TRUE(service.Submit(c0.id, f1).status().IsNotFound());
  EXPECT_TRUE(service.CloseSession(c0.id).IsNotFound());
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.statements_aborted, 2u);
  EXPECT_EQ(stats.sessions_closed, 1u);
}

TEST_F(QueryServiceTest, ClosedSessionIsForgottenOnceItsCompletionsAreTaken) {
  // TSan target: one client collects a closed session's completions and
  // closes another session while a third client keeps submitting and
  // dispatching.
  QueryService service(system_.get(), ServiceOptions{});
  End c0 = Open(service, "c0");
  End c1 = Open(service, "c1");
  End c2 = Open(service, "c2");
  Bytes f1 = SealRequest(c0, "SELECT owner FROM accounts WHERE id = 1");
  Bytes f2 = SealRequest(c0, "SELECT owner FROM accounts WHERE id = 2");
  ASSERT_TRUE(service.Submit(c0.id, f1).ok());
  ASSERT_TRUE(service.Submit(c0.id, f2).ok());
  ASSERT_TRUE(service.CloseSession(c0.id).ok());
  Bytes f3 = SealRequest(c2, "SELECT owner FROM accounts WHERE id = 3");
  Bytes f4 = SealRequest(c2, "SELECT owner FROM accounts WHERE id = 4");
  ASSERT_TRUE(service.Submit(c2.id, f3).ok());
  ASSERT_TRUE(service.Submit(c2.id, f4).ok());
  std::vector<Bytes> c1_frames;
  for (int i = 0; i < 6; ++i) {
    c1_frames.push_back(SealRequest(
        c1, "SELECT owner FROM accounts WHERE id = " + std::to_string(i)));
  }

  std::vector<Completion> c0_done, c0_again, c2_done, c2_again;
  Status c0_submit = Status::OK();
  Status c2_submit = Status::OK();
  std::thread collector([&] {
    c0_done = service.TakeCompletions(c0.id);
    c0_again = service.TakeCompletions(c0.id);
    c0_submit = service.Submit(c0.id, f1).status();
    // Races the other thread's dispatch: c2's statements either ran
    // (sealed response) or were still queued (aborted).
    if (!service.CloseSession(c2.id).ok()) return;
    c2_done = service.TakeCompletions(c2.id);
    c2_again = service.TakeCompletions(c2.id);
    c2_submit = service.Submit(c2.id, f1).status();
  });
  uint64_t c1_admitted = 0;
  std::thread other([&] {
    for (const Bytes& frame : c1_frames) {
      if (service.Submit(c1.id, frame).ok()) ++c1_admitted;
      service.RunUntilIdle();
    }
  });
  collector.join();
  other.join();
  service.RunUntilIdle();

  // The aborted statements come back exactly once, then the session is
  // gone: a later take is empty and Submit reports it unknown.
  ASSERT_EQ(c0_done.size(), 2u);
  for (const Completion& done : c0_done) {
    EXPECT_TRUE(done.transport.IsUnavailable()) << done.transport.ToString();
  }
  EXPECT_TRUE(c0_again.empty());
  EXPECT_TRUE(c0_submit.IsNotFound()) << c0_submit.ToString();
  ASSERT_EQ(c2_done.size(), 2u);
  for (Completion& done : c2_done) {
    if (done.transport.ok()) {
      EXPECT_TRUE(MustDecode(c2, done).status.ok());
    } else {
      EXPECT_TRUE(done.transport.IsUnavailable()) << done.transport.ToString();
    }
  }
  EXPECT_TRUE(c2_again.empty());
  EXPECT_TRUE(c2_submit.IsNotFound()) << c2_submit.ToString();
  EXPECT_EQ(service.stats().sessions_held, 1u);

  // c1 closes with its completions still pending: it stays until they
  // are taken, and they are all there.
  ASSERT_TRUE(service.CloseSession(c1.id).ok());
  EXPECT_EQ(service.stats().sessions_held, 1u);
  std::vector<Completion> c1_done = service.TakeCompletions(c1.id);
  EXPECT_EQ(c1_done.size(), c1_admitted);
  for (Completion& done : c1_done) {
    EXPECT_TRUE(MustDecode(c1, done).status.ok());
  }
  EXPECT_EQ(service.stats().sessions_held, 0u);
  EXPECT_TRUE(service.TakeCompletions(c1.id).empty());
  EXPECT_TRUE(service.CloseSession(c1.id).IsNotFound());
}

TEST_F(QueryServiceTest, ZeroWeightSessionsAreRejectedEverywhere) {
  QueryService service(system_.get(), ServiceOptions{});
  auto zero = service.OpenSession("c0", /*weight=*/0);
  EXPECT_TRUE(zero.status().IsInvalidArgument()) << zero.status().ToString();
  EXPECT_EQ(service.stats().sessions_opened, 0u);
  End c0 = Open(service, "c0");
  EXPECT_TRUE(service.SetSessionWeight(c0.id, 0).IsInvalidArgument());
  EXPECT_TRUE(service.SetSessionWeight(c0.id, 4).ok());
  EXPECT_TRUE(service.SetSessionWeight(9999, 4).IsNotFound());
}

TEST_F(QueryServiceTest, GoldWeightOutranksBronzeUnderBacklog) {
  QueryService service(system_.get(), ServiceOptions{});
  auto gold_session = service.OpenSession("c0", /*weight=*/8);
  ASSERT_TRUE(gold_session.ok());
  End gold{gold_session->id, std::move(gold_session->channel)};
  auto bronze_session = service.OpenSession("c1", /*weight=*/1);
  ASSERT_TRUE(bronze_session.ok());
  End bronze{bronze_session->id, std::move(bronze_session->channel)};

  // A backlog deeper than the pipeline window, bronze submitted FIRST
  // each round: any priority gold gets comes from its weight, never from
  // arrival order, and the pops beyond the window carry real scheduling
  // delay on the simulated timeline.
  for (int i = 0; i < 8; ++i) {
    std::string sql =
        "SELECT owner FROM accounts WHERE id = " + std::to_string(i);
    ASSERT_TRUE(service.Submit(bronze.id, SealRequest(bronze, sql)).ok());
    ASSERT_TRUE(service.Submit(gold.id, SealRequest(gold, sql)).ok());
  }
  service.RunUntilIdle();

  auto gold_done = service.TakeCompletions(gold.id);
  auto bronze_done = service.TakeCompletions(bronze.id);
  ASSERT_EQ(gold_done.size(), 8u);
  ASSERT_EQ(bronze_done.size(), 8u);
  sim::SimNanos gold_total = 0, bronze_total = 0;
  for (Completion& c : gold_done) {
    EXPECT_TRUE(MustDecode(gold, c).status.ok());
    gold_total += c.sched_delay_ns;
  }
  for (Completion& c : bronze_done) {
    EXPECT_TRUE(MustDecode(bronze, c).status.ok());
    bronze_total += c.sched_delay_ns;
  }
  // Nearly the whole gold backlog clears inside the intake window while
  // bronze queues behind it, so the bronze class accumulates strictly
  // more scheduling delay — the per-SLO-class latency ordering the
  // serve_scale bench measures at 10k sessions.
  EXPECT_LT(gold_total, bronze_total);
  EXPECT_GT(bronze_total, 0u);
}

TEST_F(QueryServiceTest, OpenSessionBatchMintsRealSessionsWithPerSpecFailures) {
  QueryService service(system_.get(), ServiceOptions{});
  int64_t batch_before = CounterValue("server.sessions.batch_opens");
  std::vector<QueryService::SessionSpec> specs;
  for (int c = 0; c < 4; ++c) {
    specs.push_back({"c" + std::to_string(c), /*weight=*/c == 0 ? 8u : 1u});
  }
  specs.push_back({"never-registered", 1});  // unknown key
  specs.push_back({"c5", 0});                // starving weight
  auto out = service.OpenSessionBatch(specs);
  ASSERT_EQ(out.size(), specs.size());
  for (int c = 0; c < 4; ++c) {
    ASSERT_TRUE(out[c].ok()) << out[c].status().ToString();
  }
  // Failures are per-spec: they do not poison the cohort.
  EXPECT_TRUE(out[4].status().IsUnauthenticated());
  EXPECT_TRUE(out[5].status().IsInvalidArgument());
  EXPECT_EQ(CounterValue("server.sessions.batch_opens") - batch_before, 1);
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.batch_opens, 1u);
  EXPECT_EQ(stats.sessions_opened, 4u);

  // Batch-minted channels are full sessions: seal, execute, unseal.
  End e{out[2]->id, std::move(out[2]->channel)};
  ASSERT_TRUE(
      service.Submit(e.id, SealRequest(e, "SELECT owner FROM accounts "
                                          "WHERE id = 5")).ok());
  service.RunUntilIdle();
  auto done = service.TakeCompletions(e.id);
  ASSERT_EQ(done.size(), 1u);
  StatementResponse response = MustDecode(e, done[0]);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.result.rows.size(), 1u);
  EXPECT_EQ(response.result.rows[0][0].AsString(), "user5");
  // And closing a batch-minted session zeroizes like any other.
  EXPECT_TRUE(service.CloseSession(e.id).ok());
}

TEST_F(QueryServiceTest, QuotaExhaustionMidStreamIsRetryableAndLossless) {
  // Per-session quota hits while earlier responses are still streaming:
  // the rejection must be plain backpressure, and the retried statement
  // must land exactly once with the same streamed answer.
  ServiceOptions options;
  options.limits.max_per_session = 2;
  options.stream.chunk_bytes = 64;  // every multi-row response streams
  QueryService service(system_.get(), options);
  End c0 = Open(service, "c0");
  const std::string big =
      "SELECT owner, balance FROM accounts WHERE balance > 100.5";
  ASSERT_TRUE(service.Submit(c0.id, SealRequest(c0, big)).ok());
  ASSERT_TRUE(service.Submit(c0.id, SealRequest(c0, big)).ok());

  Bytes third = SealRequest(c0, big);
  auto rejected = service.Submit(c0.id, third);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  EXPECT_TRUE(IsBackpressure(rejected.status()));

  service.RunUntilIdle();  // drains the quota (and the streams)
  ASSERT_TRUE(service.Submit(c0.id, third).ok());
  service.RunUntilIdle();

  auto done = service.TakeCompletions(c0.id);
  ASSERT_EQ(done.size(), 3u);
  uint64_t chunk_total = 0;
  for (size_t i = 0; i < done.size(); ++i) {
    EXPECT_EQ(done[i].seq, i);
    StatementResponse response = MustDecode(c0, done[i]);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.result.rows.size(), 39u);  // ids 1..39
    EXPECT_GE(done[i].stream_chunks, 2u);  // chunked delivery really ran
    EXPECT_GE(done[i].e2e_ns, done[i].sched_delay_ns);
    chunk_total += done[i].stream_chunks;
  }
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.statements_rejected, 1u);
  EXPECT_EQ(stats.statements_executed, 3u);
  EXPECT_EQ(stats.stream_chunks, chunk_total);
}

TEST_F(QueryServiceTest, SmallResponsesShipWholeLargeOnesStream) {
  ServiceOptions options;
  options.stream.chunk_bytes = 256;
  QueryService service(system_.get(), options);
  End c0 = Open(service, "c0");
  ASSERT_TRUE(service.Submit(c0.id, SealRequest(c0, "SELECT owner FROM "
                                                    "accounts WHERE id = 3"))
                  .ok());
  ASSERT_TRUE(
      service.Submit(c0.id, SealRequest(c0, "SELECT owner, balance FROM "
                                            "accounts WHERE balance > 100.5"))
          .ok());
  service.RunUntilIdle();
  auto done = service.TakeCompletions(c0.id);
  ASSERT_EQ(done.size(), 2u);
  // The point lookup fits one frame: no chunking, no stall.
  EXPECT_EQ(done[0].stream_chunks, 0u);
  EXPECT_EQ(done[0].stream_stall_ns, 0u);
  EXPECT_EQ(MustDecode(c0, done[0]).result.rows.size(), 1u);
  // The range scan exceeds the threshold: credit-window delivery, and
  // the extra shipping time shows up in its end-to-end latency.
  EXPECT_GE(done[1].stream_chunks, 2u);
  EXPECT_GT(done[1].e2e_ns, done[0].e2e_ns);
  EXPECT_EQ(MustDecode(c0, done[1]).result.rows.size(), 39u);
}

TEST_F(QueryServiceTest, EpochBumpWithStatementsInFlightStaysCoherent) {
  // The pipelined race the shared_ptr cache entries exist for: a policy
  // epoch bump lands while a session has statements admitted but not yet
  // authorized. The stale plan must not be reused, and the statements
  // must still complete correctly under the new epoch.
  QueryService service(system_.get(), ServiceOptions{});
  End c0 = Open(service, "c0");
  const std::string hot = "SELECT owner FROM accounts WHERE id = 7";

  // Warm the cache under the current epoch.
  ASSERT_TRUE(service.Submit(c0.id, SealRequest(c0, hot)).ok());
  service.RunUntilIdle();
  auto warm = service.TakeCompletions(c0.id);
  ASSERT_EQ(warm.size(), 1u);
  StatementResponse baseline = MustDecode(c0, warm[0]);
  ASSERT_TRUE(baseline.status.ok());
  EXPECT_FALSE(baseline.plan_cache_hit);

  // Two in-flight statements, then the bump before dispatch.
  ASSERT_TRUE(service.Submit(c0.id, SealRequest(c0, hot)).ok());
  ASSERT_TRUE(service.Submit(c0.id, SealRequest(c0, hot)).ok());
  system_->RegisterClient("mid-flight-tenant");  // bumps the rewrite epoch
  service.RunUntilIdle();

  auto done = service.TakeCompletions(c0.id);
  ASSERT_EQ(done.size(), 2u);
  StatementResponse first = MustDecode(c0, done[0]);
  StatementResponse second = MustDecode(c0, done[1]);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  // The warmed plan died with its epoch; the first statement re-derives
  // and re-warms, the second hits the new-epoch entry.
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_TRUE(second.plan_cache_hit);
  for (const StatementResponse* r : {&first, &second}) {
    ASSERT_EQ(r->result.rows.size(), baseline.result.rows.size());
    EXPECT_EQ(r->result.rows[0][0].AsString(),
              baseline.result.rows[0][0].AsString());
  }
}

TEST_F(QueryServiceTest, OneSlotAndDefaultSlotsAgreeOnEveryResponse) {
  // Execute-stage concurrency changes only the timeline: the default
  // pipeline must produce exactly the decoded responses of the same
  // pipeline with one execute slot (bench/serve_scale's baseline) for the
  // same submission schedule (latency differs; content never).
  auto run = [](size_t execute_slots) {
    std::unique_ptr<engine::IronSafeSystem> system = NewSystem();
    EXPECT_NE(system, nullptr);
    if (system == nullptr) return std::string{};
    ServiceOptions options;
    options.execute_slots = execute_slots;
    QueryService service(system.get(), options);
    End c0 = Open(service, "c0");
    End c1 = Open(service, "c1");
    for (int round = 0; round < 3; ++round) {
      for (End* end : {&c0, &c1}) {
        std::string hot = "SELECT owner, balance FROM accounts WHERE id = 11";
        std::string probe = "SELECT owner FROM accounts WHERE balance > " +
                            std::to_string(100 + round * 9) + ".5";
        for (const std::string& sql : {hot, probe}) {
          auto seq = service.Submit(end->id, SealRequest(*end, sql));
          EXPECT_TRUE(seq.ok()) << seq.status().ToString();
        }
      }
      service.RunUntilIdle();
    }
    service.Drain();
    std::ostringstream fingerprint;
    int which = 0;
    for (End* end : {&c0, &c1}) {
      for (Completion& done : service.TakeCompletions(end->id)) {
        StatementResponse response = MustDecode(*end, done);
        EXPECT_TRUE(response.status.ok()) << response.status.ToString();
        fingerprint << "c" << which << " seq " << done.seq << ": hit "
                    << response.plan_cache_hit << " offloaded "
                    << response.offloaded << " monitor "
                    << response.monitor_ns << " exec "
                    << response.execution_ns;
        for (const sql::Row& row : response.result.rows) {
          for (const sql::Value& value : row) {
            fingerprint << " " << value.ToString();
          }
        }
        fingerprint << "\n";
      }
      ++which;
    }
    service.Shutdown();
    return fingerprint.str();
  };
  std::string pipelined = run(ServiceOptions{}.execute_slots);
  std::string one_slot = run(1);
  EXPECT_FALSE(pipelined.empty());
  EXPECT_EQ(pipelined, one_slot);
  EXPECT_NE(pipelined.find(" hit 1"), std::string::npos);
}

TEST_F(QueryServiceTest, EightClientWorkloadIsWorkerCountInvariant) {
  // The serving determinism contract end to end: a fixed 8-client mixed
  // schedule (hot statements for cache hits, varying probes, deliberate
  // backpressure with retry) produces bit-identical decoded responses,
  // aggregate stats, and default trace whether the engine's morsels run
  // on 1 worker, 4, or 16.
  auto run = [](int workers) {
    common::ThreadPool::set_max_workers(workers);
    std::unique_ptr<engine::IronSafeSystem> system = NewSystem();
    EXPECT_NE(system, nullptr);
    ServiceOptions options;
    options.limits.max_per_session = 4;
    options.limits.max_total = 14;  // tight: 16 submissions/round
    QueryService service(system.get(), options);

    obs::Tracer tracer;
    obs::ScopedTracer scope(&tracer);
    std::vector<End> ends;
    for (int c = 0; c < kConsumers; ++c) {
      ends.push_back(Open(service, "c" + std::to_string(c)));
    }
    RetryPolicy retry;
    retry.max_attempts = 4;
    retry.retryable = [](const Status& s) { return IsBackpressure(s); };
    retry.on_backoff = [&](int, uint64_t, const Status&) {
      service.RunUntilIdle();
    };
    for (int round = 0; round < 3; ++round) {
      for (int c = 0; c < kConsumers; ++c) {
        End& end = ends[c];
        std::string hot = "SELECT owner, balance FROM accounts WHERE id = " +
                          std::to_string(c * 3 % 40);
        std::string probe = "SELECT owner FROM accounts WHERE balance > " +
                            std::to_string(100 + (round * kConsumers + c) % 40) +
                            ".5";
        for (const std::string& sql : {hot, probe}) {
          Bytes frame = SealRequest(end, sql);
          Status st = RetryWithBackoff(retry, [&]() -> Status {
            auto seq = service.Submit(end.id, frame);
            return seq.ok() ? Status::OK() : seq.status();
          });
          EXPECT_TRUE(st.ok()) << st.ToString();
        }
      }
      service.RunUntilIdle();
    }
    service.Drain();

    // Canonical run fingerprint: every decoded response plus the stats.
    std::ostringstream fingerprint;
    for (int c = 0; c < kConsumers; ++c) {
      for (Completion& done : service.TakeCompletions(ends[c].id)) {
        StatementResponse response = MustDecode(ends[c], done);
        EXPECT_TRUE(response.status.ok()) << response.status.ToString();
        fingerprint << "c" << c << " seq " << done.seq << ": rows "
                    << response.result.rows.size() << " hit "
                    << response.plan_cache_hit << " offloaded "
                    << response.offloaded << " monitor "
                    << response.monitor_ns << " exec "
                    << response.execution_ns << "\n";
      }
    }
    QueryService::Stats stats = service.stats();
    fingerprint << "admitted " << stats.statements_admitted << " rejected "
                << stats.statements_rejected << " executed "
                << stats.statements_executed << " aborted "
                << stats.statements_aborted << " hits "
                << stats.plan_cache_hits << " misses "
                << stats.plan_cache_misses << " peak "
                << stats.peak_queue_depth << " monitor_ns "
                << stats.total_monitor_ns << " exec_ns "
                << stats.total_execution_ns << " serve_ns "
                << stats.total_serve_ns << "\n";
    std::ostringstream trace;
    tracer.ExportChromeTrace(trace, obs::ExportOptions{});
    service.Shutdown();
    return std::make_pair(fingerprint.str(), trace.str());
  };

  auto one = run(1);
  auto four = run(4);
  auto sixteen = run(16);
  common::ThreadPool::set_max_workers(0);
  EXPECT_EQ(one.first, four.first) << "stats/responses must be bit-identical";
  EXPECT_EQ(one.second, four.second) << "default trace must be byte-identical";
  EXPECT_EQ(one.first, sixteen.first) << "16-worker run must match too";
  EXPECT_EQ(one.second, sixteen.second);
  // The workload really exercised the interesting paths.
  EXPECT_NE(one.first.find(" hit 1"), std::string::npos);
  EXPECT_NE(one.second.find("authorize-cached"), std::string::npos);
}

TEST_F(QueryServiceTest, ConcurrentSubmittersNeverLoseACompletion) {
  // TSan target: client threads submit (and pump on backpressure) while
  // other threads dispatch. Linearizability bar: every successfully
  // admitted statement ends in exactly one OK completion.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  ServiceOptions options;
  options.limits.max_per_session = 4;
  options.limits.max_total = 8;
  QueryService service(system_.get(), options);
  std::vector<End> ends;
  for (int t = 0; t < kThreads; ++t) {
    ends.push_back(Open(service, "c" + std::to_string(t)));
  }

  std::atomic<uint64_t> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        StatementRequest request;
        request.sql = "SELECT owner FROM accounts WHERE id = " +
                      std::to_string((t * kPerThread + i) % 40);
        auto frame =
            ends[t].channel->Send(EncodeStatementRequest(request), nullptr);
        if (!frame.ok()) return;
        for (;;) {
          auto seq = service.Submit(ends[t].id, *frame);
          if (seq.ok()) {
            ++admitted;
            break;
          }
          if (!IsBackpressure(seq.status())) return;
          service.RunUntilIdle();  // pump from the submitting thread
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  service.Drain();

  EXPECT_EQ(admitted.load(), static_cast<uint64_t>(kThreads * kPerThread));
  uint64_t completions = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (Completion& done : service.TakeCompletions(ends[t].id)) {
      StatementResponse response = MustDecode(ends[t], done);
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(response.result.rows.size(), 1u);
      ++completions;
    }
  }
  EXPECT_EQ(completions, admitted.load());
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.statements_executed, admitted.load());
  EXPECT_EQ(stats.statements_aborted, 0u);
  service.Shutdown();
}

}  // namespace
}  // namespace ironsafe::server
