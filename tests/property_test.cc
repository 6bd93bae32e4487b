// Property-style tests: randomized sweeps over the invariants the
// system depends on, driven by the deterministic PRNG so failures are
// reproducible from the printed seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/random.h"
#include "crypto/aead.h"
#include "crypto/aes.h"
#include "crypto/dispatch.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "net/secure_channel.h"
#include "net/wire.h"
#include "securestore/merkle_tree.h"
#include "securestore/secure_store.h"
#include "tee/rpmb.h"
#include "sql/column_batch.h"
#include "sql/eval.h"
#include "sql/parser.h"
#include "sql/value.h"
#include "sql/vector_eval.h"

namespace ironsafe {
namespace {

Bytes RandomBytes(Random* rng, size_t len) {
  Bytes out(len);
  for (auto& b : out) b = static_cast<uint8_t>(rng->Uniform(256));
  return out;
}

// ---------------- crypto round-trip properties ----------------

class CryptoProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CryptoProperty, AesCbcRoundTripsRandomSizes) {
  Random rng(GetParam());
  Bytes key = RandomBytes(&rng, rng.Bernoulli(0.5) ? 16 : 32);
  Bytes iv = RandomBytes(&rng, 16);
  for (int i = 0; i < 20; ++i) {
    Bytes pt = RandomBytes(&rng, rng.Uniform(600));
    auto ct = crypto::AesCbcEncrypt(key, iv, pt);
    ASSERT_TRUE(ct.ok());
    EXPECT_NE(*ct, pt);
    auto back = crypto::AesCbcDecrypt(key, iv, *ct);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, pt) << "seed " << GetParam() << " iter " << i;
  }
}

TEST_P(CryptoProperty, CtrIsInvolutive) {
  Random rng(GetParam());
  Bytes key = RandomBytes(&rng, 32);
  Bytes nonce = RandomBytes(&rng, 16);
  Bytes data = RandomBytes(&rng, 1 + rng.Uniform(5000));
  auto once = crypto::AesCtr(key, nonce, data);
  auto twice = crypto::AesCtr(key, nonce, *once);
  EXPECT_EQ(*twice, data);
}

TEST_P(CryptoProperty, AeadRejectsEveryTruncation) {
  Random rng(GetParam());
  auto aead = crypto::Aead::Create(RandomBytes(&rng, 64));
  Bytes sealed = *aead->Seal(RandomBytes(&rng, 16), {}, RandomBytes(&rng, 100));
  for (size_t keep = 0; keep < sealed.size(); keep += 7) {
    Bytes truncated(sealed.begin(), sealed.begin() + keep);
    EXPECT_FALSE(aead->Open({}, truncated).ok()) << keep;
  }
}

TEST_P(CryptoProperty, SignaturesBindMessageAndKey) {
  Random rng(GetParam());
  auto kp1 = *crypto::Ed25519KeyPairFromSeed(RandomBytes(&rng, 32));
  auto kp2 = *crypto::Ed25519KeyPairFromSeed(RandomBytes(&rng, 32));
  for (int i = 0; i < 5; ++i) {
    Bytes msg = RandomBytes(&rng, rng.Uniform(300));
    Bytes sig = *crypto::Ed25519Sign(kp1.private_key, msg);
    EXPECT_TRUE(crypto::Ed25519Verify(kp1.public_key, msg, sig));
    EXPECT_FALSE(crypto::Ed25519Verify(kp2.public_key, msg, sig));
    if (!msg.empty()) {
      Bytes other = msg;
      other[rng.Uniform(other.size())] ^= 0x01;
      EXPECT_FALSE(crypto::Ed25519Verify(kp1.public_key, other, sig));
    }
  }
}

TEST_P(CryptoProperty, HmacIsDeterministicAndKeySeparated) {
  Random rng(GetParam());
  Bytes k1 = RandomBytes(&rng, 32), k2 = RandomBytes(&rng, 32);
  Bytes msg = RandomBytes(&rng, rng.Uniform(1000));
  EXPECT_EQ(crypto::HmacSha256(k1, msg), crypto::HmacSha256(k1, msg));
  EXPECT_NE(crypto::HmacSha256(k1, msg), crypto::HmacSha256(k2, msg));
}

// The AES-NI and SHA-NI paths must give the portable code's bytes for
// every key, IV and length: 0-40 blocks covers empty input, the
// single-block tail and several full 8-block pipeline groups. CTR runs
// both out of place and in place, and some counters start just below the
// 64-bit wrap.
TEST_P(CryptoProperty, HardwareAesMatchesPortable) {
  const crypto::internal::AesImpl* hardware = crypto::internal::HardwareAes();
  if (hardware == nullptr) GTEST_SKIP() << "CPU has no AES-NI";
  Random rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    Bytes key = RandomBytes(&rng, rng.Bernoulli(0.5) ? 16 : 32);
    Bytes iv = RandomBytes(&rng, 16);
    if (trial % 2 == 1) std::fill(iv.begin() + 8, iv.end() - 1, 0xff);
    auto hw = crypto::internal::CreateAes(key, *hardware);
    auto sw = crypto::internal::CreateAes(key, crypto::internal::kPortableAes);
    ASSERT_TRUE(hw.ok() && sw.ok());
    for (size_t blocks = 0; blocks <= 40; ++blocks) {
      const size_t len = 16 * blocks;
      Bytes pt = RandomBytes(&rng, len);
      Bytes hw_out(len), sw_out(len);
      hw->EncryptBlocks(pt.data(), hw_out.data(), blocks);
      sw->EncryptBlocks(pt.data(), sw_out.data(), blocks);
      ASSERT_EQ(hw_out, sw_out) << "encrypt, blocks " << blocks;
      hw->DecryptBlocks(pt.data(), hw_out.data(), blocks);
      sw->DecryptBlocks(pt.data(), sw_out.data(), blocks);
      ASSERT_EQ(hw_out, sw_out) << "decrypt, blocks " << blocks;

      // CBC (the padded ciphertext is one block longer than `len`).
      Bytes msg = RandomBytes(&rng, len == 0 ? 0 : len - rng.Uniform(16));
      auto hw_ct = crypto::AesCbcEncrypt(*hw, iv, msg);
      auto sw_ct = crypto::AesCbcEncrypt(*sw, iv, msg);
      ASSERT_TRUE(hw_ct.ok() && sw_ct.ok());
      ASSERT_EQ(*hw_ct, *sw_ct) << "cbc, bytes " << msg.size();
      auto hw_pt = crypto::AesCbcDecrypt(*hw, iv, *sw_ct);
      auto sw_pt = crypto::AesCbcDecrypt(*sw, iv, *hw_ct);
      ASSERT_TRUE(hw_pt.ok() && sw_pt.ok());
      EXPECT_EQ(*hw_pt, msg);
      EXPECT_EQ(*sw_pt, msg);

      // CTR, including a partial last block; the hardware side in place.
      Bytes data = RandomBytes(&rng, len + rng.Uniform(16));
      Bytes sw_ctr(data.size());
      sw->CtrXor(iv.data(), data.data(), sw_ctr.data(), data.size());
      Bytes in_place = data;
      hw->CtrXor(iv.data(), in_place.data(), in_place.data(), in_place.size());
      ASSERT_EQ(in_place, sw_ctr) << "ctr, bytes " << data.size();
    }
  }
}

TEST_P(CryptoProperty, HardwareSha256MatchesPortable) {
  const crypto::internal::Sha256Impl* hardware =
      crypto::internal::HardwareSha256();
  if (hardware == nullptr) GTEST_SKIP() << "CPU has no SHA-NI";
  Random rng(GetParam());
  for (int i = 0; i < 20; ++i) {
    Bytes msg = RandomBytes(&rng, rng.Uniform(3000));
    size_t split = msg.empty() ? 0 : rng.Uniform(msg.size());
    crypto::Sha256 hw = crypto::internal::MakeSha256(*hardware);
    crypto::Sha256 sw =
        crypto::internal::MakeSha256(crypto::internal::kPortableSha256);
    hw.Update(msg.data(), split);
    hw.Update(msg.data() + split, msg.size() - split);
    sw.Update(msg);
    EXPECT_EQ(hw.Final(), sw.Final()) << "bytes " << msg.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CryptoProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---------------- trust-boundary adversary properties ----------------

TEST_P(CryptoProperty, ChannelRejectsEverySingleByteFlip) {
  Random rng(GetParam());
  auto pair = net::Handshake::FromSessionKey(RandomBytes(&rng, 32));
  ASSERT_TRUE(pair.ok());
  auto& sender = pair->first;
  auto& receiver = pair->second;
  for (int trial = 0; trial < 40; ++trial) {
    Bytes plaintext = RandomBytes(&rng, 1 + rng.Uniform(300));
    auto frame = sender->Send(plaintext, nullptr);
    ASSERT_TRUE(frame.ok());
    Bytes mutated = *frame;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    EXPECT_TRUE(receiver->Receive(mutated, nullptr).status().IsCorruption())
        << "trial " << trial << " flip at " << pos;
    // Rejection is transactional: the untampered frame still lands.
    auto got = receiver->Receive(*frame, nullptr);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, plaintext);
  }
}

TEST_P(CryptoProperty, RpmbRejectsEveryStaleCounterReplay) {
  Random rng(GetParam());
  tee::RpmbDevice device;
  Bytes key = RandomBytes(&rng, 32);
  ASSERT_TRUE(device.ProgramKey(key).ok());
  for (int trial = 0; trial < 30; ++trial) {
    auto slot = static_cast<uint32_t>(rng.Uniform(tee::RpmbDevice::kNumSlots));
    Bytes data = RandomBytes(&rng, 1 + rng.Uniform(64));
    uint32_t counter = device.write_counter();
    Bytes mac = tee::RpmbDevice::MakeWriteMac(key, slot, counter, data);
    ASSERT_TRUE(device.AuthenticatedWrite(slot, data, counter, mac).ok());
    // Replaying the identical, correctly-MACed frame must always fail:
    // the counter it binds is now stale.
    EXPECT_TRUE(device.AuthenticatedWrite(slot, data, counter, mac)
                    .IsUnauthenticated())
        << "trial " << trial;
    EXPECT_EQ(device.write_counter(), counter + 1)
        << "a rejected replay must not advance the counter";
  }
}

TEST_P(CryptoProperty, MerkleDetectsAnySingleLeafMutation) {
  Random rng(GetParam());
  const uint64_t n = 2 + rng.Uniform(60);
  securestore::MerkleTree tree(RandomBytes(&rng, 32), n);
  std::vector<Bytes> leaves(n);
  for (uint64_t i = 0; i < n; ++i) {
    leaves[i] = RandomBytes(&rng, 32);
    tree.UpdateLeaf(i, leaves[i]);
  }
  for (int trial = 0; trial < 60; ++trial) {
    uint64_t idx = rng.Uniform(n);
    Bytes mutated = leaves[idx];
    size_t byte = rng.Uniform(mutated.size());
    mutated[byte] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
    EXPECT_TRUE(tree.VerifyLeaf(idx, mutated).IsCorruption())
        << "leaf " << idx << " byte " << byte;
    EXPECT_TRUE(tree.VerifyLeaf(idx, leaves[idx]).ok());
  }
}

// ---------------- merkle / secure store properties ----------------

class StoreProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreProperty, MerkleVerifiesAllLeavesAfterRandomUpdates) {
  Random rng(GetParam());
  const uint64_t n = 1 + rng.Uniform(100);
  Bytes tree_key = RandomBytes(&rng, 32);
  securestore::MerkleTree tree(tree_key, n);
  std::vector<Bytes> leaves(n);
  for (uint64_t i = 0; i < n; ++i) {
    leaves[i] = RandomBytes(&rng, 64);
    tree.UpdateLeaf(i, leaves[i]);
  }
  // Random overwrite pass.
  for (int i = 0; i < 50; ++i) {
    uint64_t idx = rng.Uniform(n);
    leaves[idx] = RandomBytes(&rng, 64);
    tree.UpdateLeaf(idx, leaves[idx]);
  }
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(tree.VerifyLeaf(i, leaves[i]).ok()) << i;
    Bytes wrong = leaves[i];
    wrong[0] ^= 1;
    EXPECT_FALSE(tree.VerifyLeaf(i, wrong).ok()) << i;
  }
  // A tree rebuilt from the serialized leaves agrees on the root and
  // verifies the same leaves.
  auto rebuilt =
      securestore::MerkleTree::Deserialize(tree_key, tree.SerializeLeaves());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->Root(), tree.Root());
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(rebuilt->VerifyLeaf(i, leaves[i]).ok());
  }
}

TEST_P(StoreProperty, SecureStoreSurvivesRandomWorkload) {
  Random rng(GetParam());
  tee::DeviceManufacturer mfg(RandomBytes(&rng, 8));
  tee::TrustZoneDevice device(RandomBytes(&rng, 8), mfg, {"n", "eu", 1});
  securestore::SecureStorageTa ta(&device);
  storage::BlockDevice disk;

  std::map<uint64_t, uint8_t> expected;
  {
    auto store = *securestore::SecureStore::Create(&disk, &ta);
    store->BeginBatch();
    for (int i = 0; i < 120; ++i) {
      uint64_t idx = rng.Uniform(40);
      auto fill = static_cast<uint8_t>(rng.Uniform(256));
      ASSERT_TRUE(store->WritePage(idx, Bytes(4096, fill)).ok());
      expected[idx] = fill;
    }
    ASSERT_TRUE(store->EndBatch().ok());
  }
  // Reopen (reboot) and check every page.
  auto store = securestore::SecureStore::Open(&disk, &ta);
  ASSERT_TRUE(store.ok());
  for (const auto& [idx, fill] : expected) {
    auto page = (*store)->ReadPage(idx);
    ASSERT_TRUE(page.ok()) << idx;
    EXPECT_EQ(*page, Bytes(4096, fill)) << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreProperty, ::testing::Values(11, 17, 23));

// ---------------- SQL value / date properties ----------------

TEST(ValueOrderProperty, CompareIsAntisymmetricAndTransitiveOnSamples) {
  Random rng(99);
  std::vector<sql::Value> values;
  for (int i = 0; i < 40; ++i) {
    switch (rng.Uniform(5)) {
      case 0: values.push_back(sql::Value::Null()); break;
      case 1: values.push_back(sql::Value::Int(rng.UniformRange(-50, 50))); break;
      case 2: values.push_back(sql::Value::Double(rng.NextDouble() * 10)); break;
      case 3: values.push_back(sql::Value::Date(rng.UniformRange(0, 10000))); break;
      default:
        values.push_back(
            sql::Value::String(std::string(1 + rng.Uniform(4),
                        static_cast<char>('a' + rng.Uniform(26)))));
    }
  }
  for (const auto& a : values) {
    EXPECT_EQ(a.Compare(a), 0);
    for (const auto& b : values) {
      EXPECT_EQ(a.Compare(b) < 0, b.Compare(a) > 0);
      if (a.Compare(b) == 0) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " vs " << b.ToString();
      }
    }
  }
}

TEST(DateProperty, RoundTripsAcrossTwoCenturies) {
  for (int64_t days = -365 * 30; days < 365 * 60; days += 13) {
    std::string iso = sql::FormatDate(days);
    auto back = sql::ParseDate(iso);
    ASSERT_TRUE(back.ok()) << iso;
    EXPECT_EQ(*back, days) << iso;
  }
}

TEST(DateProperty, AddMonthsComposes) {
  int64_t d = *sql::ParseDate("1994-07-17");
  EXPECT_EQ(sql::AddMonths(sql::AddMonths(d, 5), 7), sql::AddMonths(d, 12));
  EXPECT_EQ(sql::DateYear(sql::AddMonths(d, 12)), 1995);
}

TEST(LikeProperty, PercentIsReflexivePrefixSuffix) {
  Random rng(7);
  for (int i = 0; i < 100; ++i) {
    std::string s(rng.Uniform(12), 'x');
    for (auto& c : s) c = static_cast<char>('a' + rng.Uniform(3));
    EXPECT_TRUE(sql::LikeMatch(s, s));
    EXPECT_TRUE(sql::LikeMatch(s, s + "%"));
    EXPECT_TRUE(sql::LikeMatch(s, "%" + s));
    size_t cut = rng.Uniform(s.size() + 1);
    EXPECT_TRUE(sql::LikeMatch(s, s.substr(0, cut) + "%"));
    EXPECT_TRUE(sql::LikeMatch(s, "%" + s.substr(cut)));
  }
}

// ---------------- parser fixpoint property ----------------

TEST(ParserProperty, PrintedFormIsAFixpoint) {
  const char* queries[] = {
      "SELECT a + b * c FROM t WHERE x BETWEEN 1 AND 2 OR y LIKE 'a%'",
      "SELECT count(DISTINCT k), sum(v) / count(*) FROM t GROUP BY g HAVING "
      "sum(v) > 10 ORDER BY g DESC LIMIT 5",
      "SELECT * FROM a, b WHERE a.x = b.y AND a.z IN (1, 2, 3)",
      "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t WHERE EXISTS "
      "(SELECT 1 FROM u WHERE u.k = t.k)",
      "SELECT x FROM (SELECT y AS x FROM inner_t WHERE y > 0) d WHERE x < 9",
  };
  for (const char* q : queries) {
    auto first = sql::ParseSelect(q);
    ASSERT_TRUE(first.ok()) << q;
    std::string p1 = (*first)->ToString();
    auto second = sql::ParseSelect(p1);
    ASSERT_TRUE(second.ok()) << p1;
    EXPECT_EQ((*second)->ToString(), p1);
  }
}

// ---------------- the row format: one writer, one reader ----------------

double DoubleFromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// A random cell of a column that mostly holds `type` and sometimes any
/// of the six types (mixed tags): NULLs, -0.0 and NaN payloads, empty
/// strings and strings over 255 bytes.
sql::Value RandomCell(Random* rng, int type) {
  if (rng->Bernoulli(0.2)) type = static_cast<int>(rng->Uniform(6));
  switch (static_cast<sql::Type>(type)) {
    case sql::Type::kNull:
      return sql::Value::Null();
    case sql::Type::kBool:
      return sql::Value::Bool(rng->Bernoulli(0.5));
    case sql::Type::kInt64:
      return sql::Value::Int(static_cast<int64_t>(rng->Next()));
    case sql::Type::kDouble:
      switch (rng->Uniform(4)) {
        case 0:
          return sql::Value::Double(-0.0);
        case 1:  // a quiet NaN with a payload
          return sql::Value::Double(
              DoubleFromBits(0x7ff8000000000000ull | rng->Uniform(1u << 20)));
        case 2:
          return sql::Value::Double(rng->NextDouble() * 1e6 - 5e5);
        default:
          return sql::Value::Double(DoubleFromBits(rng->Next()));
      }
    case sql::Type::kString: {
      const size_t len = rng->Bernoulli(0.2)   ? 0
                         : rng->Bernoulli(0.3) ? 256 + rng->Uniform(300)
                                               : rng->Uniform(24);
      std::string str(len, ' ');
      for (char& ch : str) ch = static_cast<char>(rng->Uniform(256));
      return sql::Value::String(std::move(str));
    }
    case sql::Type::kDate:
      return sql::Value::Date(rng->UniformRange(-20000, 40000));
  }
  return sql::Value::Null();
}

/// A random unit of `cols` columns and up to 300 rows (sometimes none),
/// built by AppendRow, by Gather of another unit's rows, or by
/// FromColumns (typed columns and boxed ones).
std::shared_ptr<const sql::ColumnBatch> RandomUnit(Random* rng, size_t cols) {
  const size_t rows = rng->Bernoulli(0.1) ? 0 : 1 + rng->Uniform(300);
  std::vector<int> types(cols);
  for (int& t : types) t = static_cast<int>(rng->Uniform(6));
  auto built = std::make_shared<sql::ColumnBatch>(cols);
  for (size_t r = 0; r < rows; ++r) {
    sql::Row row;
    for (size_t c = 0; c < cols; ++c) row.push_back(RandomCell(rng, types[c]));
    built->AppendRow(row);
  }
  switch (rng->Uniform(3)) {
    case 0:
      return built;
    case 1: {
      std::vector<sql::RowRef> refs;
      for (size_t r = 0; r < rows; ++r) {
        refs.push_back(sql::RowRef{built.get(),
                                   static_cast<uint32_t>(rng->Uniform(rows))});
      }
      return sql::ColumnBatch::Gather(refs, cols);
    }
    default: {
      std::vector<sql::VecCol> vcols(cols);
      for (size_t c = 0; c < cols; ++c) {
        const bool typed = rng->Bernoulli(0.5);
        vcols[c].kind = !typed ? sql::VecCol::Kind::kGeneric
                        : rng->Bernoulli(0.3) ? sql::VecCol::Kind::kF64
                        : rng->Bernoulli(0.5) ? sql::VecCol::Kind::kDate
                                              : sql::VecCol::Kind::kI64;
        for (size_t r = 0; r < rows; ++r) {
          if (typed) {
            vcols[c].nums.push_back(static_cast<int64_t>(rng->Next()));
          } else {
            vcols[c].vals.push_back(RandomCell(rng, types[c]));
          }
        }
      }
      return sql::ColumnBatch::FromColumns(&vcols, rows);
    }
  }
}

class RowFormatProperty : public ::testing::TestWithParam<uint64_t> {};

// The batch writer equals the row writer row by row, and the one reader
// gives back every cell and the flags and sizes of the selected rows.
TEST_P(RowFormatProperty, BatchEncoderEqualsRowEncoderAndRoundTrips) {
  Random rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const size_t cols = 1 + rng.Uniform(6);
    auto unit = RandomUnit(&rng, cols);
    sql::SelVec sel;  // gapped: each row kept with probability 1/2
    for (uint32_t r = 0; r < unit->rows(); ++r) {
      if (rng.Bernoulli(0.5)) sel.push_back(r);
    }
    if (trial % 8 == 0) sel.clear();

    Bytes expected;
    sql::Row row;
    for (uint32_t r : sel) {
      unit->MaterializeRow(r, &row);
      sql::SerializeRow(row, &expected);
    }
    ASSERT_EQ(unit->SerializedSize(sel), expected.size()) << "trial " << trial;
    Bytes written(unit->SerializedSize(sel));
    uint8_t* end = unit->SerializeRows(sel, written.data());
    ASSERT_EQ(end, written.data() + written.size());
    ASSERT_EQ(written, expected) << "trial " << trial;

    sql::ColumnBatch decoded(cols);
    sql::ColumnBatch reference(cols);  // the selected rows, cell by cell
    ByteReader reader(written);
    for (uint32_t r : sel) {
      ASSERT_TRUE(decoded.AppendSerialized(&reader).ok()) << "trial " << trial;
      reference.AppendFrom(*unit, r);
    }
    ASSERT_TRUE(reader.AtEnd());
    ASSERT_EQ(decoded.rows(), sel.size());
    for (size_t c = 0; c < cols; ++c) {
      const sql::ColumnBatch::Col& got = decoded.col(c);
      const sql::ColumnBatch::Col& want = reference.col(c);
      EXPECT_EQ(got.tags, want.tags) << "trial " << trial << " col " << c;
      EXPECT_EQ(got.nums, want.nums) << "trial " << trial << " col " << c;
      EXPECT_EQ(got.has_null, want.has_null);
      EXPECT_EQ(got.has_string, want.has_string);
      EXPECT_EQ(got.uniform(), want.uniform());
      for (size_t i = 0; i < sel.size() && got.has_string; ++i) {
        EXPECT_EQ(got.strs[i], unit->col(c).has_string
                                   ? unit->col(c).strs[sel[i]]
                                   : std::string());
      }
    }
    for (size_t i = 0; i < sel.size(); ++i) {
      EXPECT_EQ(decoded.row_bytes(i), unit->row_bytes(sel[i]));
    }
    EXPECT_EQ(decoded.total_row_bytes(), reference.total_row_bytes());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowFormatProperty,
                         ::testing::Values(1, 2, 3, 4));

// ---------------- wire format fuzz-ish robustness ----------------

TEST(WireProperty, RandomMutationsNeverCrashAndUsuallyFail) {
  Random rng(42);
  sql::QueryResult result;
  result.schema.AddColumn(sql::Column{"a", sql::Type::kInt64});
  result.schema.AddColumn(sql::Column{"s", sql::Type::kString});
  for (int i = 0; i < 20; ++i) {
    result.rows.push_back(
        sql::Row{sql::Value::Int(i), sql::Value::String("v" + std::to_string(i))});
  }
  Bytes wire = net::SerializeResult(result);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = wire;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<uint8_t>(rng.Uniform(256));
    // Must never crash; may legitimately succeed if the mutation hits a
    // value byte, but must not produce a structurally broken result.
    auto r = net::DeserializeResult(mutated);
    if (r.ok()) {
      EXPECT_EQ(r->schema.size(), 2u);
      for (const auto& row : r->rows) EXPECT_EQ(row.size(), 2u);
    }
  }
}

}  // namespace
}  // namespace ironsafe
