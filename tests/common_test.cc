#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace ironsafe {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Corruption("page 7 MAC mismatch");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(s.ToString(), "Corruption: page 7 MAC mismatch");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::NotFound("x"); };
  auto outer = [&]() -> Status {
    RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsNotFound());
}

TEST(RetryClassificationTest, DistinguishesBackpressureFromNodeDown) {
  // Backpressure (an admission queue or quota rejection) resolves by
  // waiting on the same path; a lost node is a different condition.
  Status backpressure = Status::ResourceExhausted("admission queue full");
  Status node_down = Status::Unavailable("storage node lost");
  EXPECT_TRUE(IsBackpressure(backpressure));
  EXPECT_FALSE(IsBackpressure(node_down));
  EXPECT_TRUE(backpressure.IsResourceExhausted());
}

TEST(RetryClassificationTest, PermanentFailuresAreNotTransient) {
  for (Status s : {Status::PermissionDenied("policy"), Status::NotFound("t"),
                   Status::Corruption("mac"), Status::Unauthenticated("key"),
                   Status::OK()}) {
    EXPECT_FALSE(IsBackpressure(s)) << s.ToString();
  }
}

TEST(RetryClassificationTest, DrivesRetryPolicyAsClassifier) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.retryable = IsBackpressure;
  int calls = 0;
  Status st = RetryWithBackoff(policy, [&]() -> Status {
    ++calls;
    return calls < 3 ? Status::ResourceExhausted("queue full") : Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);

  // Non-transient failures pass through without a second attempt.
  calls = 0;
  st = RetryWithBackoff(policy, [&]() -> Status {
    ++calls;
    return Status::PermissionDenied("no");
  });
  EXPECT_TRUE(st.IsPermissionDenied());
  EXPECT_EQ(calls, 1);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto make = [](bool ok) -> Result<std::string> {
    if (ok) return std::string("hello");
    return Status::NotFound("no");
  };
  auto chain = [&](bool ok) -> Result<size_t> {
    ASSIGN_OR_RETURN(std::string s, make(ok));
    return s.size();
  };
  EXPECT_EQ(*chain(true), 5u);
  EXPECT_TRUE(chain(false).status().IsNotFound());
}

TEST(BytesTest, HexRoundTrip) {
  Bytes b = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x7f};
  EXPECT_EQ(HexEncode(b), "deadbeef007f");
  auto decoded = HexDecode("deadbeef007f");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, b);
}

TEST(BytesTest, HexDecodeUppercase) {
  auto decoded = HexDecode("DEADBEEF");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(HexEncode(*decoded), "deadbeef");
}

TEST(BytesTest, HexDecodeRejectsOddLength) {
  EXPECT_FALSE(HexDecode("abc").ok());
}

TEST(BytesTest, HexDecodeRejectsNonHex) {
  EXPECT_FALSE(HexDecode("zz").ok());
}

TEST(BytesTest, ConstantTimeEqual) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  Bytes d = {1, 2};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
}

TEST(BytesTest, IntegerCodecRoundTrip) {
  Bytes out;
  PutU16(&out, 0x1234);
  PutU32(&out, 0xdeadbeef);
  PutU64(&out, 0x0123456789abcdefULL);
  ByteReader r(out);
  EXPECT_EQ(*r.ReadU16(), 0x1234);
  EXPECT_EQ(*r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, ReaderDetectsTruncation) {
  Bytes out;
  PutU16(&out, 7);
  ByteReader r(out);
  EXPECT_TRUE(r.ReadU32().status().IsInvalidArgument());
}

TEST(BytesTest, LengthPrefixedRoundTrip) {
  Bytes out;
  PutLengthPrefixed(out.empty() ? &out : &out, std::string_view("hello"));
  PutLengthPrefixed(&out, Bytes{9, 8, 7});
  ByteReader r(out);
  EXPECT_EQ(*r.ReadLengthPrefixedString(), "hello");
  EXPECT_EQ(*r.ReadLengthPrefixed(), (Bytes{9, 8, 7}));
}

TEST(BytesTest, LengthPrefixedTruncatedBody) {
  Bytes out;
  PutU32(&out, 100);  // claims 100 bytes, provides none
  ByteReader r(out);
  EXPECT_FALSE(r.ReadLengthPrefixed().ok());
}

TEST(RandomTest, DeterministicFromSeed) {
  Random a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random r(2);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random r(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnceWithItsSlot) {
  constexpr int kTasks = 64;
  std::vector<std::atomic<int>> runs(kTasks);
  std::vector<int> slots(kTasks, -2);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back([&runs, &slots, i] {
      ++runs[i];
      slots[i] = common::ThreadPool::current_slot();
    });
  }
  common::ThreadPool::Shared().RunTasks(tasks);
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
    EXPECT_EQ(slots[i], i) << "task " << i;
  }
  EXPECT_EQ(common::ThreadPool::current_slot(), -1);
}

TEST(ThreadPoolTest, ConsecutiveBatchesReuseThePool) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) tasks.push_back([&count] { ++count; });
    common::ThreadPool::Shared().RunTasks(tasks);
    ASSERT_EQ(count.load(), 8) << "round " << round;
  }
}

TEST(ThreadPoolTest, NestedRunTasksExecutesInline) {
  std::atomic<int> inner_total{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&inner_total] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 3; ++j) inner.push_back([&inner_total] { ++inner_total; });
      common::ThreadPool::Shared().RunTasks(inner);
    });
  }
  common::ThreadPool::Shared().RunTasks(outer);
  EXPECT_EQ(inner_total.load(), 12);
}

TEST(ThreadPoolTest, EffectiveWorkersHonorsRequestAndCap) {
  // The explicit cap is itself clamped to what the machine offers
  // (pool threads + the participating caller).
  const int machine = static_cast<int>(common::ThreadPool::Shared().size()) + 1;
  common::ThreadPool::set_max_workers(0);
  EXPECT_EQ(common::ThreadPool::EffectiveWorkers(1), 1);
  EXPECT_GE(common::ThreadPool::EffectiveWorkers(1000), 1);
  EXPECT_LE(common::ThreadPool::EffectiveWorkers(1000), machine);
  common::ThreadPool::set_max_workers(2);
  EXPECT_EQ(common::ThreadPool::EffectiveWorkers(1000), std::min(2, machine));
  EXPECT_EQ(common::ThreadPool::EffectiveWorkers(1), 1);
  common::ThreadPool::set_max_workers(0);
}

}  // namespace
}  // namespace ironsafe
