#include <gtest/gtest.h>

#include <cstring>

#include "net/secure_channel.h"
#include "net/wire.h"
#include "sql/column_batch.h"

namespace ironsafe::net {
namespace {

class SecureChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    crypto::Drbg drbg_a(ToBytes("alice")), drbg_b(ToBytes("bob"));
    Handshake a(&drbg_a), b(&drbg_b);
    auto hello_a = a.Start();
    auto hello_b = b.Start();
    ASSERT_TRUE(hello_a.ok() && hello_b.ok());
    auto chan_a = a.Finish(*hello_b, /*is_initiator=*/true);
    auto chan_b = b.Finish(*hello_a, /*is_initiator=*/false);
    ASSERT_TRUE(chan_a.ok() && chan_b.ok());
    a_ = std::move(*chan_a);
    b_ = std::move(*chan_b);
  }

  std::unique_ptr<SecureChannel> a_, b_;
};

TEST_F(SecureChannelTest, RoundTripBothDirections) {
  auto f1 = a_->Send(ToBytes("query"), nullptr);
  ASSERT_TRUE(f1.ok());
  auto p1 = b_->Receive(*f1, nullptr);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p1, ToBytes("query"));

  auto f2 = b_->Send(ToBytes("rows"), nullptr);
  auto p2 = a_->Receive(*f2, nullptr);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*p2, ToBytes("rows"));
}

TEST_F(SecureChannelTest, SessionIdsAgree) {
  EXPECT_EQ(a_->session_id(), b_->session_id());
}

TEST_F(SecureChannelTest, WireIsCiphertext) {
  Bytes plaintext = ToBytes("SELECT c_name FROM customer");
  auto frame = a_->Send(plaintext, nullptr);
  ASSERT_TRUE(frame.ok());
  std::string wire(frame->begin(), frame->end());
  EXPECT_EQ(wire.find("customer"), std::string::npos);
}

TEST_F(SecureChannelTest, TamperDetected) {
  auto frame = a_->Send(ToBytes("data"), nullptr);
  (*frame)[frame->size() / 2] ^= 1;
  EXPECT_TRUE(b_->Receive(*frame, nullptr).status().IsCorruption());
}

TEST_F(SecureChannelTest, ReplayDetected) {
  auto frame = a_->Send(ToBytes("pay $100"), nullptr);
  ASSERT_TRUE(b_->Receive(*frame, nullptr).ok());
  // Same frame again: the receive sequence number advanced.
  EXPECT_TRUE(b_->Receive(*frame, nullptr).status().IsCorruption());
}

TEST_F(SecureChannelTest, TamperedThenLegitFrameStillAuthenticates) {
  // Regression: a rejected frame must not consume the receive sequence
  // number. An adversary injecting garbage in front of a legitimate
  // frame would otherwise permanently desync the channel.
  auto frame = a_->Send(ToBytes("data"), nullptr);
  ASSERT_TRUE(frame.ok());
  Bytes tampered = *frame;
  tampered[tampered.size() / 2] ^= 1;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(b_->Receive(tampered, nullptr).status().IsCorruption());
  }
  auto got = b_->Receive(*frame, nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, ToBytes("data"));
  // And the channel keeps working afterwards.
  auto next = a_->Send(ToBytes("more"), nullptr);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(b_->Receive(*next, nullptr).ok());
}

TEST_F(SecureChannelTest, ReorderDetected) {
  auto f1 = a_->Send(ToBytes("first"), nullptr);
  auto f2 = a_->Send(ToBytes("second"), nullptr);
  EXPECT_TRUE(b_->Receive(*f2, nullptr).status().IsCorruption());
  EXPECT_TRUE(b_->Receive(*f1, nullptr).ok());
}

TEST_F(SecureChannelTest, NetworkCostCharged) {
  sim::CostModel cm;
  Bytes payload(1 << 20, 0xAA);
  ASSERT_TRUE(a_->Send(payload, &cm).ok());
  EXPECT_GT(cm.network_bytes(), payload.size());  // + AEAD overhead
}

TEST_F(SecureChannelTest, CloseFailsSubsequentSendAndReceive) {
  // Keep a valid frame from before the close to prove Receive rejects it
  // under the dead keys rather than decrypting with stale material.
  auto inbound = b_->Send(ToBytes("late frame"), nullptr);
  ASSERT_TRUE(inbound.ok());

  a_->Close();
  EXPECT_TRUE(a_->closed());
  EXPECT_TRUE(a_->Send(ToBytes("x"), nullptr)
                  .status()
                  .code() == StatusCode::kFailedPrecondition);
  EXPECT_TRUE(a_->Receive(*inbound, nullptr).status().code() ==
              StatusCode::kFailedPrecondition);
  // The session id was zeroized with the keys.
  EXPECT_EQ(a_->session_id(), Bytes(a_->session_id().size(), 0));
  // Idempotent: a second Close is a no-op, and the peer is unaffected.
  a_->Close();
  auto f = b_->Send(ToBytes("peer still works"), nullptr);
  EXPECT_TRUE(f.ok());
}

TEST_F(SecureChannelTest, CloseIsOneSided) {
  b_->Close();
  EXPECT_FALSE(a_->closed());
  // a_ can still seal; nobody can open it (b_'s recv keys are gone).
  auto frame = a_->Send(ToBytes("into the void"), nullptr);
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(b_->Receive(*frame, nullptr).ok());
}

TEST(HandshakeTest, EavesdropperCannotDecrypt) {
  crypto::Drbg d1(ToBytes("a")), d2(ToBytes("b")), d3(ToBytes("eve"));
  Handshake a(&d1), b(&d2), eve(&d3);
  auto ha = a.Start();
  auto hb = b.Start();
  auto he = eve.Start();
  auto chan_a = a.Finish(*hb, true);
  // Eve saw both hellos but knows neither private key: she derives a
  // different channel and cannot open A's frames.
  auto chan_eve = eve.Finish(*ha, false);
  auto frame = (*chan_a)->Send(ToBytes("secret"), nullptr);
  EXPECT_FALSE((*chan_eve)->Receive(*frame, nullptr).ok());
}

TEST(HandshakeTest, FromSessionKeyPairInterops) {
  auto pair = Handshake::FromSessionKey(Bytes(32, 0x11));
  ASSERT_TRUE(pair.ok());
  auto frame = pair->first->Send(ToBytes("hi"), nullptr);
  auto back = pair->second->Receive(*frame, nullptr);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, ToBytes("hi"));
}

// RFC 7748 §6.1: a peer hello carrying a low-order point (u = 0 or u = 1)
// forces an all-zero shared secret; Finish must refuse it, not key a
// channel from it.
TEST(HandshakeTest, FinishRejectsLowOrderPeerKey) {
  for (uint8_t u : {uint8_t{0}, uint8_t{1}}) {
    crypto::Drbg d(ToBytes("low order"));
    Handshake h(&d);
    ASSERT_TRUE(h.Start().ok());
    Handshake::Hello hello{Bytes(32, 0)};
    hello.ephemeral_public[0] = u;
    auto chan = h.Finish(hello, true);
    ASSERT_FALSE(chan.ok()) << "u = " << int{u};
    EXPECT_EQ(chan.status().code(), StatusCode::kUnauthenticated);
  }
}

TEST(HandshakeTest, FinishBeforeStartFails) {
  crypto::Drbg d(ToBytes("x"));
  Handshake h(&d);
  Handshake::Hello hello{Bytes(32, 1)};
  EXPECT_FALSE(h.Finish(hello, true).ok());
}

TEST(WireTest, ResultRoundTrip) {
  sql::QueryResult result;
  result.schema.AddColumn(sql::Column{"id", sql::Type::kInt64});
  result.schema.AddColumn(sql::Column{"name", sql::Type::kString});
  result.schema.AddColumn(sql::Column{"d", sql::Type::kDate});
  for (int i = 0; i < 100; ++i) {
    result.rows.push_back(sql::Row{sql::Value::Int(i),
                                   sql::Value::String("row" + std::to_string(i)),
                                   sql::Value::Date(1000 + i)});
  }
  auto back = DeserializeResult(SerializeResult(result));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->schema.size(), 3u);
  EXPECT_EQ(back->schema.column(1).name, "name");
  ASSERT_EQ(back->rows.size(), 100u);
  EXPECT_EQ(back->rows[42][1].AsString(), "row42");
  EXPECT_EQ(back->rows[99][2].type(), sql::Type::kDate);
}

TEST(WireTest, EmptyResult) {
  sql::QueryResult result;
  result.schema.AddColumn(sql::Column{"x", sql::Type::kDouble});
  auto back = DeserializeResult(SerializeResult(result));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->rows.empty());
  EXPECT_EQ(back->schema.size(), 1u);
}

TEST(WireTest, UnknownColumnTypeTagIsCorruption) {
  sql::QueryResult result;
  result.schema.AddColumn(sql::Column{"x", sql::Type::kDouble});
  result.rows.push_back(sql::Row{sql::Value::Double(1.5)});
  Bytes wire = SerializeResult(result);
  // Column count (u32), then the name "x" (u32 length + 1 byte), then
  // the type tag.
  constexpr size_t kTypeTag = 4 + 4 + 1;
  ASSERT_EQ(wire[kTypeTag], static_cast<uint8_t>(sql::Type::kDouble));
  wire[kTypeTag] = 0x7F;
  auto back = DeserializeResult(wire);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption()) << back.status().ToString();
}

sql::Value DoubleFromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return sql::Value::Double(d);
}

/// Column 0 is BOOL so row 0's payload byte sits right after the header;
/// column 2 mixes INT and DOUBLE tags.
sql::QueryResult UnitRows(size_t n) {
  sql::QueryResult result;
  result.schema.AddColumn(sql::Column{"b", sql::Type::kBool});
  result.schema.AddColumn(sql::Column{"i", sql::Type::kInt64});
  result.schema.AddColumn(sql::Column{"mix", sql::Type::kDouble});
  result.schema.AddColumn(sql::Column{"s", sql::Type::kString});
  result.schema.AddColumn(sql::Column{"d", sql::Type::kDate});
  for (size_t i = 0; i < n; ++i) {
    const auto k = static_cast<int64_t>(i);
    sql::Value mix = i % 2 == 0 ? sql::Value::Int(k)
                                : sql::Value::Double(static_cast<double>(k) / 4);
    if (i % 11 == 3) mix = sql::Value::Double(-0.0);
    if (i % 13 == 5) mix = DoubleFromBits(0x7ff8000000000123ULL);
    if (i % 17 == 7) mix = sql::Value::Null();
    sql::Value str = sql::Value::String("s" + std::to_string(i));
    if (i % 5 == 0) str = sql::Value::String("");
    if (i % 97 == 1) str = sql::Value::String(std::string(3 * 1024, 'k'));
    result.rows.push_back(sql::Row{
        sql::Value::Bool(i % 3 == 0),
        i % 7 == 6 ? sql::Value::Null() : sql::Value::Int(-k),
        mix, str,
        i % 19 == 2 ? sql::Value::Null() : sql::Value::Date(9000 + k)});
  }
  return result;
}

void ExpectSameCol(const sql::ColumnBatch::Col& want,
                   const sql::ColumnBatch::Col& got, const std::string& at) {
  EXPECT_EQ(got.tags, want.tags) << at;
  EXPECT_EQ(got.nums, want.nums) << at;
  EXPECT_EQ(got.strs, want.strs) << at;
  EXPECT_EQ(got.has_null, want.has_null) << at;
  EXPECT_EQ(got.has_string, want.has_string) << at;
  EXPECT_EQ(got.uniform(), want.uniform()) << at;
  EXPECT_EQ(got.first_tag(), want.first_tag()) << at;
}

TEST(WireTest, DecodedUnitsEqualAppendedUnits) {
  for (size_t n : {0, 1, 1023, 1024, 1025, 2049}) {
    SCOPED_TRACE("rows " + std::to_string(n));
    sql::QueryResult result = UnitRows(n);
    sql::MemoryTable appended("t", {result.schema, {}});
    for (const sql::Row& row : result.rows) {
      ASSERT_TRUE(appended.Append(row, nullptr).ok());
    }
    Bytes wire = SerializeResult(result);
    if (n > 0) {
      // Any nonzero bool payload byte decodes as true.
      const size_t payload = SerializeResult({result.schema, {}}).size() + 3;
      ASSERT_EQ(wire[payload], 1);
      wire[payload] = 2;
    }
    auto decoded = DeserializeBatches(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->schema.ToString(), result.schema.ToString());
    EXPECT_EQ(decoded->row_count(), n);
    ASSERT_EQ(decoded->units.size(), appended.morsel_units());
    for (size_t u = 0; u < decoded->units.size(); ++u) {
      const sql::ColumnBatch& got = *decoded->units[u];
      auto want_unit = appended.DecodeMorselBatch(u, nullptr);
      ASSERT_TRUE(want_unit.ok());
      const sql::ColumnBatch& want = *want_unit->batch;
      ASSERT_EQ(got.rows(), want.rows()) << "unit " << u;
      ASSERT_EQ(got.num_cols(), want.num_cols());
      for (size_t c = 0; c < got.num_cols(); ++c) {
        ExpectSameCol(want.col(c), got.col(c),
                      "unit " + std::to_string(u) + " col " +
                          std::to_string(c));
      }
      for (size_t r = 0; r < got.rows(); ++r) {
        EXPECT_EQ(got.row_bytes(r), want.row_bytes(r)) << "row " << r;
        EXPECT_EQ(got.row_bytes(r),
                  sql::RowBytes(
                      result.rows[u * sql::MemoryTable::kRowsPerMorsel + r]));
      }
      EXPECT_EQ(got.total_row_bytes(), want.total_row_bytes());
    }
  }
}

TEST(WireTest, GarbageRejected) {
  EXPECT_FALSE(DeserializeResult(ToBytes("not a record batch")).ok());
  EXPECT_FALSE(DeserializeResult({}).ok());
}

}  // namespace
}  // namespace ironsafe::net
