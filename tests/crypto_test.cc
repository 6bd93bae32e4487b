#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/aead.h"
#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/dispatch.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"

namespace ironsafe::crypto {
namespace {

Bytes Hx(std::string_view h) {
  auto r = HexDecode(h);
  EXPECT_TRUE(r.ok()) << h;
  return *r;
}

// ---------- SHA-256 (FIPS 180-4 / NIST CAVP vectors) ----------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexEncode(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexEncode(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HexEncode(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexEncode(h.Final()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes data = ToBytes("the quick brown fox jumps over the lazy dog");
  for (size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.Update(data.data(), split);
    h.Update(data.data() + split, data.size() - split);
    EXPECT_EQ(h.Final(), Sha256::Hash(data)) << "split=" << split;
  }
}

TEST(Sha256Test, EmptyUpdateAfterPartialBlockIsANoOp) {
  Sha256 h;
  h.Update("ab");
  h.Update(nullptr, 0);
  h.Update("c");
  EXPECT_EQ(h.Final(), Sha256::Hash("abc"));
}

// ---------- SHA-512 ----------

TEST(Sha512Test, EmptyString) {
  EXPECT_EQ(HexEncode(Sha512::Hash("")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512Test, Abc) {
  EXPECT_EQ(HexEncode(Sha512::Hash("abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, LongMessage) {
  EXPECT_EQ(
      HexEncode(Sha512::Hash(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512Test, IncrementalAcrossBlockBoundary) {
  std::string big(300, 'x');
  Sha512 one;
  one.Update(big);
  Sha512 two;
  two.Update(big.substr(0, 127));
  two.Update(big.substr(127));
  EXPECT_EQ(one.Final(), two.Final());
}

TEST(Sha512Test, EmptyUpdateAfterPartialBlockIsANoOp) {
  Sha512 h;
  h.Update("ab");
  h.Update(nullptr, 0);
  h.Update("c");
  EXPECT_EQ(h.Final(), Sha512::Hash("abc"));
}

// ---------- HMAC (RFC 4231) ----------

TEST(HmacTest, Rfc4231Case1Sha256) {
  Bytes key(20, 0x0b);
  Bytes msg = ToBytes("Hi There");
  EXPECT_EQ(HexEncode(HmacSha256(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case1Sha512) {
  Bytes key(20, 0x0b);
  Bytes msg = ToBytes("Hi There");
  EXPECT_EQ(HexEncode(HmacSha512(key, msg)),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
            "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854");
}

TEST(HmacTest, Rfc4231Case2JeffersonKey) {
  Bytes key = ToBytes("Jefe");
  Bytes msg = ToBytes("what do ya want for nothing?");
  EXPECT_EQ(HexEncode(HmacSha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  Bytes msg = ToBytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(HexEncode(HmacSha256(key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, VerifyDetectsTamper) {
  Bytes key = ToBytes("secret");
  Bytes msg = ToBytes("message");
  Bytes mac = HmacSha256(key, msg);
  EXPECT_TRUE(VerifyHmacSha256(key, msg, mac));
  mac[0] ^= 1;
  EXPECT_FALSE(VerifyHmacSha256(key, msg, mac));
}

TEST(HmacTest, IncrementalPiecesMatchOneShot) {
  Bytes key = ToBytes("incremental key");
  Bytes msg(300);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i * 7);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                     size_t{128}, size_t{299}, size_t{300}}) {
    Hmac<Sha256> mac256(key);
    mac256.Update(msg.data(), cut);
    mac256.Update(msg.data() + cut, msg.size() - cut);
    EXPECT_EQ(mac256.Final(), HmacSha256(key, msg)) << "cut " << cut;
    Hmac<Sha512> mac512(key);
    mac512.Update(msg.data(), cut);
    mac512.Update(msg.data() + cut, msg.size() - cut);
    EXPECT_EQ(mac512.Final(), HmacSha512(key, msg)) << "cut " << cut;
  }
}

TEST(HkdfTest, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = Hx("000102030405060708090a0b0c");
  Bytes info = Hx("f0f1f2f3f4f5f6f7f8f9");
  Bytes okm = HkdfSha256(salt, ikm, info, 42);
  EXPECT_EQ(HexEncode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, Rfc5869Case3EmptySaltInfo) {
  Bytes ikm(22, 0x0b);
  Bytes okm = HkdfSha256({}, ikm, {}, 42);
  EXPECT_EQ(HexEncode(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

// ---------- AES (FIPS 197 Appendix C) ----------

TEST(AesTest, Fips197Aes128Block) {
  Bytes key = Hx("000102030405060708090a0b0c0d0e0f");
  Bytes pt = Hx("00112233445566778899aabbccddeeff");
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ct, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes->DecryptBlock(ct, back);
  EXPECT_EQ(HexEncode(back, 16), HexEncode(pt));
}

TEST(AesTest, Fips197Aes256Block) {
  Bytes key =
      Hx("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes pt = Hx("00112233445566778899aabbccddeeff");
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ct, 16), "8ea2b7ca516745bfeafc49904b496089");
  uint8_t back[16];
  aes->DecryptBlock(ct, back);
  EXPECT_EQ(HexEncode(back, 16), HexEncode(pt));
}

TEST(AesTest, RejectsBadKeySize) {
  EXPECT_FALSE(Aes::Create(Bytes(17, 0)).ok());
  EXPECT_FALSE(Aes::Create(Bytes(24, 0)).ok());  // AES-192 unsupported
}

// NIST SP 800-38A F.2.5: AES-256-CBC.
TEST(AesTest, Sp80038aCbc256) {
  Bytes key =
      Hx("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  Bytes iv = Hx("000102030405060708090a0b0c0d0e0f");
  Bytes pt = Hx("6bc1bee22e409f96e93d7e117393172a");
  auto ct = AesCbcEncrypt(key, iv, pt);
  ASSERT_TRUE(ct.ok());
  // First block must match the NIST vector (ours adds a padding block).
  EXPECT_EQ(HexEncode(ct->data(), 16),
            "f58c4c04d6e5f1ba779eabfb5f7bfbd6");
  auto back = AesCbcDecrypt(key, iv, *ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST(AesTest, CbcRoundTripVariousLengths) {
  Bytes key(32, 0x42);
  Bytes iv(16, 0x24);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 4096u}) {
    Bytes pt(len);
    for (size_t i = 0; i < len; ++i) pt[i] = static_cast<uint8_t>(i * 7);
    auto ct = AesCbcEncrypt(key, iv, pt);
    ASSERT_TRUE(ct.ok());
    auto back = AesCbcDecrypt(key, iv, *ct);
    ASSERT_TRUE(back.ok()) << len;
    EXPECT_EQ(*back, pt) << len;
  }
}

TEST(AesTest, CbcDecryptDetectsCorruptPadding) {
  Bytes key(32, 1), iv(16, 2);
  auto ct = AesCbcEncrypt(key, iv, ToBytes("attack at dawn"));
  ASSERT_TRUE(ct.ok());
  (*ct)[ct->size() - 1] ^= 0xff;
  auto back = AesCbcDecrypt(key, iv, *ct);
  // Either padding failure (likely) or garbage plaintext; must not be OK
  // with original content.
  if (back.ok()) {
    EXPECT_NE(*back, ToBytes("attack at dawn"));
  }
}

// NIST SP 800-38A F.5.5: AES-256-CTR.
TEST(AesTest, Sp80038aCtr256) {
  Bytes key =
      Hx("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  Bytes nonce = Hx("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Bytes pt = Hx("6bc1bee22e409f96e93d7e117393172a");
  auto ct = AesCtr(key, nonce, pt);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(HexEncode(*ct), "601ec313775789a5b7a7f504bbf3d228");
  auto back = AesCtr(key, nonce, *ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

// ---------- Known answers on every implementation ----------
//
// Each vector runs on the portable code and, when the CPU has the
// instructions, on AES-NI / SHA-NI (crypto/dispatch.h).

}  // namespace

// GoogleTest lists each parameter next to the test name. Print the
// implementation's name, not its address, which moves from run to run,
// so that every build lists the same test names.
namespace internal {
void PrintTo(const AesImpl* impl, std::ostream* os) { *os << impl->name; }
void PrintTo(const Sha256Impl* impl, std::ostream* os) { *os << impl->name; }
}  // namespace internal

namespace {

std::vector<const internal::AesImpl*> AesImpls() {
  std::vector<const internal::AesImpl*> impls = {&internal::kPortableAes};
  if (internal::HardwareAes() != nullptr) {
    impls.push_back(internal::HardwareAes());
  }
  return impls;
}

std::vector<const internal::Sha256Impl*> Sha256Impls() {
  std::vector<const internal::Sha256Impl*> impls = {&internal::kPortableSha256};
  if (internal::HardwareSha256() != nullptr) {
    impls.push_back(internal::HardwareSha256());
  }
  return impls;
}

template <typename Impl>
std::string ImplName(const ::testing::TestParamInfo<const Impl*>& info) {
  return info.param->name;
}

class AesKat : public ::testing::TestWithParam<const internal::AesImpl*> {
 protected:
  Aes Make(const Bytes& key) {
    auto aes = internal::CreateAes(key, *GetParam());
    EXPECT_TRUE(aes.ok());
    return *aes;
  }
};

TEST_P(AesKat, Fips197Blocks) {
  Bytes pt = Hx("00112233445566778899aabbccddeeff");
  struct {
    const char* key;
    const char* ct;
  } cases[] = {
      {"000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
       "8ea2b7ca516745bfeafc49904b496089"},
  };
  for (const auto& c : cases) {
    Aes aes = Make(Hx(c.key));
    uint8_t ct[16], back[16];
    aes.EncryptBlock(pt.data(), ct);
    EXPECT_EQ(HexEncode(ct, 16), c.ct);
    aes.DecryptBlock(ct, back);
    EXPECT_EQ(HexEncode(back, 16), HexEncode(pt));
  }
}

// NIST SP 800-38A F.1 plaintext, shared by the CBC and CTR vectors.
constexpr const char* kSp80038aPlaintext =
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710";

// F.2.1/F.2.2 (CBC-AES128) and F.2.5/F.2.6 (CBC-AES256), all four blocks.
TEST_P(AesKat, Sp80038aCbcAllBlocks) {
  Bytes iv = Hx("000102030405060708090a0b0c0d0e0f");
  Bytes pt = Hx(kSp80038aPlaintext);
  struct {
    const char* key;
    const char* ct;
  } cases[] = {
      {"2b7e151628aed2a6abf7158809cf4f3c",
       "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2"
       "73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7"},
      {"603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
       "f58c4c04d6e5f1ba779eabfb5f7bfbd69cfc4e967edb808d679f777bc6702c7d"
       "39f23369a9d9bacfa530e26304231461b2eb05e2c39be9fcda6c19078c6a9d1b"},
  };
  for (const auto& c : cases) {
    Aes aes = Make(Hx(c.key));
    auto ct = AesCbcEncrypt(aes, iv, pt);
    ASSERT_TRUE(ct.ok());
    // The four NIST blocks, then the PKCS#7 padding block.
    ASSERT_EQ(ct->size(), pt.size() + 16);
    EXPECT_EQ(HexEncode(ct->data(), pt.size()), c.ct);
    auto back = AesCbcDecrypt(aes, iv, *ct);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, pt);

    // Decryption of the bare NIST ciphertext: P_i = D(C_i) ^ C_{i-1}.
    Bytes nist_ct = Hx(c.ct);
    Bytes plain(nist_ct.size());
    aes.DecryptBlocks(nist_ct.data(), plain.data(), 4);
    for (size_t i = 0; i < plain.size(); ++i) {
      plain[i] ^= i < 16 ? iv[i] : nist_ct[i - 16];
    }
    EXPECT_EQ(plain, pt);
  }
}

// F.5.5/F.5.6 (CTR-AES256), all four blocks, out of place and in place.
TEST_P(AesKat, Sp80038aCtr256AllBlocks) {
  Aes aes = Make(
      Hx("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"));
  Bytes counter = Hx("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Bytes pt = Hx(kSp80038aPlaintext);
  const std::string expected =
      "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5"
      "2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6";
  Bytes ct(pt.size());
  aes.CtrXor(counter.data(), pt.data(), ct.data(), pt.size());
  EXPECT_EQ(HexEncode(ct), expected);
  aes.CtrXor(counter.data(), ct.data(), ct.data(), ct.size());
  EXPECT_EQ(ct, pt);
}

// CTR keystream block j is the portable AES of the counter with its low
// 64 bits (big-endian, bytes 8-15) advanced by j modulo 2^64 and bytes
// 0-7 untouched. The counter starts 3 blocks below the wrap, so the wrap
// falls inside the first 8-block group of the AES-NI path. Every length
// (a partial block, one block less or more, the 8-block group plus one,
// and a long message with a partial tail) runs out of place and in place.
TEST_P(AesKat, CtrWrapsLow64BitsLikePortableBlocks) {
  const Bytes key =
      Hx("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  Aes aes = Make(key);
  auto portable = internal::CreateAes(key, internal::kPortableAes);
  ASSERT_TRUE(portable.ok());
  Bytes counter = Hx("0102030405060708fffffffffffffffd");
  for (size_t len : {1, 15, 17, 129, 65541}) {
    Bytes in(len);
    for (size_t i = 0; i < len; ++i) in[i] = static_cast<uint8_t>(i * 131 + 7);
    Bytes expected(len);
    for (size_t j = 0; j * 16 < len; ++j) {
      uint64_t low = 0xfffffffffffffffdull + j;
      uint8_t block[16];
      std::copy(counter.begin(), counter.begin() + 8, block);
      for (int i = 0; i < 8; ++i) {
        block[8 + i] = static_cast<uint8_t>(low >> (56 - 8 * i));
      }
      portable->EncryptBlock(block, block);
      for (size_t i = 0; i < 16 && j * 16 + i < len; ++i) {
        expected[j * 16 + i] = in[j * 16 + i] ^ block[i];
      }
    }
    Bytes out(len);
    aes.CtrXor(counter.data(), in.data(), out.data(), len);
    EXPECT_EQ(out, expected) << "out of place, " << len << " bytes";
    Bytes in_place = in;
    aes.CtrXor(counter.data(), in_place.data(), in_place.data(), len);
    EXPECT_EQ(in_place, expected) << "in place, " << len << " bytes";
  }
}

INSTANTIATE_TEST_SUITE_P(Impls, AesKat, ::testing::ValuesIn(AesImpls()),
                         ImplName<internal::AesImpl>);

class Sha256Kat
    : public ::testing::TestWithParam<const internal::Sha256Impl*> {};

TEST_P(Sha256Kat, ShortVectors) {
  struct {
    const char* msg;
    const char* digest;
  } cases[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
  };
  for (const auto& c : cases) {
    Sha256 h = internal::MakeSha256(*GetParam());
    h.Update(std::string_view(c.msg));
    EXPECT_EQ(HexEncode(h.Final()), c.digest) << c.msg;
  }
}

// One million 'a's, in one call and through odd-sized Update splits that
// straddle block boundaries every way.
TEST_P(Sha256Kat, MillionAsAnySplit) {
  const std::string million(1000000, 'a');
  const std::string expected =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  Sha256 whole = internal::MakeSha256(*GetParam());
  whole.Update(million);
  EXPECT_EQ(HexEncode(whole.Final()), expected);

  const size_t splits[] = {1, 3, 63, 64, 65, 127, 1000, 4097, 65537};
  Sha256 pieces = internal::MakeSha256(*GetParam());
  size_t off = 0;
  for (size_t i = 0; off < million.size(); ++i) {
    size_t n = std::min(splits[i % std::size(splits)], million.size() - off);
    pieces.Update(std::string_view(million).substr(off, n));
    off += n;
  }
  EXPECT_EQ(HexEncode(pieces.Final()), expected);
}

INSTANTIATE_TEST_SUITE_P(Impls, Sha256Kat, ::testing::ValuesIn(Sha256Impls()),
                         ImplName<internal::Sha256Impl>);

// ---------- ChaCha20 (RFC 7539 §2.4.2) ----------

TEST(ChaCha20Test, Rfc7539Encryption) {
  Bytes key =
      Hx("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = Hx("000000000000004a00000000");
  Bytes pt = ToBytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  auto ct = ChaCha20(key, nonce, 1, pt);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(HexEncode(ct->data(), 16), "6e2e359a2568f98041ba0728dd0d6981");
  auto back = ChaCha20(key, nonce, 1, *ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST(DrbgTest, DeterministicAndDistinct) {
  Drbg a(ToBytes("seed")), b(ToBytes("seed")), c(ToBytes("other"));
  Bytes ra = a.Generate(64), rb = b.Generate(64), rc = c.Generate(64);
  EXPECT_EQ(ra, rb);
  EXPECT_NE(ra, rc);
}

TEST(DrbgTest, StreamsAreNonRepeating) {
  Drbg d(ToBytes("x"));
  Bytes first = d.Generate(32);
  Bytes second = d.Generate(32);
  EXPECT_NE(first, second);
}

// ---------- Ed25519 (RFC 8032 §7.1) ----------

TEST(Ed25519Test, Rfc8032TestVector1) {
  Bytes seed =
      Hx("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  auto kp = Ed25519KeyPairFromSeed(seed);
  ASSERT_TRUE(kp.ok());
  EXPECT_EQ(HexEncode(kp->public_key),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
  auto sig = Ed25519Sign(kp->private_key, {});
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(HexEncode(*sig),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(Ed25519Verify(kp->public_key, {}, *sig));
}

TEST(Ed25519Test, Rfc8032TestVector2) {
  Bytes seed =
      Hx("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  auto kp = Ed25519KeyPairFromSeed(seed);
  ASSERT_TRUE(kp.ok());
  EXPECT_EQ(HexEncode(kp->public_key),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
  Bytes msg = Hx("72");
  auto sig = Ed25519Sign(kp->private_key, msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(HexEncode(*sig),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(Ed25519Verify(kp->public_key, msg, *sig));
}

TEST(Ed25519Test, Rfc8032TestVector3) {
  Bytes seed =
      Hx("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
  auto kp = Ed25519KeyPairFromSeed(seed);
  ASSERT_TRUE(kp.ok());
  Bytes msg = Hx("af82");
  auto sig = Ed25519Sign(kp->private_key, msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(HexEncode(*sig),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a");
  EXPECT_TRUE(Ed25519Verify(kp->public_key, msg, *sig));
}

TEST(Ed25519Test, Rfc8032Test1024) {
  Bytes seed =
      Hx("f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5");
  Bytes msg = Hx(
      "08b8b2b733424243760fe426a4b54908632110a66c2f6591eabd3345e3e4eb98"
      "fa6e264bf09efe12ee50f8f54e9f77b1e355f6c50544e23fb1433ddf73be84d8"
      "79de7c0046dc4996d9e773f4bc9efe5738829adb26c81b37c93a1b270b20329d"
      "658675fc6ea534e0810a4432826bf58c941efb65d57a338bbd2e26640f89ffbc"
      "1a858efcb8550ee3a5e1998bd177e93a7363c344fe6b199ee5d02e82d522c4fe"
      "ba15452f80288a821a579116ec6dad2b3b310da903401aa62100ab5d1a36553e"
      "06203b33890cc9b832f79ef80560ccb9a39ce767967ed628c6ad573cb116dbef"
      "efd75499da96bd68a8a97b928a8bbc103b6621fcde2beca1231d206be6cd9ec7"
      "aff6f6c94fcd7204ed3455c68c83f4a41da4af2b74ef5c53f1d8ac70bdcb7ed1"
      "85ce81bd84359d44254d95629e9855a94a7c1958d1f8ada5d0532ed8a5aa3fb2"
      "d17ba70eb6248e594e1a2297acbbb39d502f1a8c6eb6f1ce22b3de1a1f40cc24"
      "554119a831a9aad6079cad88425de6bde1a9187ebb6092cf67bf2b13fd65f270"
      "88d78b7e883c8759d2c4f5c65adb7553878ad575f9fad878e80a0c9ba63bcbcc"
      "2732e69485bbc9c90bfbd62481d9089beccf80cfe2df16a2cf65bd92dd597b07"
      "07e0917af48bbb75fed413d238f5555a7a569d80c3414a8d0859dc65a46128ba"
      "b27af87a71314f318c782b23ebfe808b82b0ce26401d2e22f04d83d1255dc51a"
      "ddd3b75a2b1ae0784504df543af8969be3ea7082ff7fc9888c144da2af58429e"
      "c96031dbcad3dad9af0dcbaaaf268cb8fcffead94f3c7ca495e056a9b47acdb7"
      "51fb73e666c6c655ade8297297d07ad1ba5e43f1bca32301651339e22904cc8c"
      "42f58c30c04aafdb038dda0847dd988dcda6f3bfd15c4b4c4525004aa06eeff8"
      "ca61783aacec57fb3d1f92b0fe2fd1a85f6724517b65e614ad6808d6f6ee34df"
      "f7310fdc82aebfd904b01e1dc54b2927094b2db68d6f903b68401adebf5a7e08"
      "d78ff4ef5d63653a65040cf9bfd4aca7984a74d37145986780fc0b16ac451649"
      "de6188a7dbdf191f64b5fc5e2ab47b57f7f7276cd419c17a3ca8e1b939ae49e4"
      "88acba6b965610b5480109c8b17b80e1b7b750dfc7598d5d5011fd2dcc5600a3"
      "2ef5b52a1ecc820e308aa342721aac0943bf6686b64b2579376504ccc493d97e"
      "6aed3fb0f9cd71a43dd497f01f17c0e2cb3797aa2a2f256656168e6c496afc5f"
      "b93246f6b1116398a346f1a641f3b041e989f7914f90cc2c7fff357876e506b5"
      "0d334ba77c225bc307ba537152f3f1610e4eafe595f6d9d90d11faa933a15ef1"
      "369546868a7f3a45a96768d40fd9d03412c091c6315cf4fde7cb68606937380d"
      "b2eaaa707b4c4185c32eddcdd306705e4dc1ffc872eeee475a64dfac86aba41c"
      "0618983f8741c5ef68d3a101e8a3b8cac60c905c15fc910840b94c00a0b9d0");
  ASSERT_EQ(msg.size(), 1023u);
  auto kp = Ed25519KeyPairFromSeed(seed);
  ASSERT_TRUE(kp.ok());
  EXPECT_EQ(HexEncode(kp->public_key),
            "278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e");
  auto sig = Ed25519Sign(kp->private_key, msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(HexEncode(*sig),
            "0aab4c900501b3e24d7cdf4663326a3a87df5e4843b2cbdb67cbf6e460fec350"
            "aa5371b1508f9f4528ecea23c436d94b5e8fcd4f681e30a6ac00a9704a188a03");
  EXPECT_TRUE(Ed25519Verify(kp->public_key, msg, *sig));
}

TEST(Ed25519Test, Rfc8032TestShaAbc) {
  Bytes seed =
      Hx("833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42");
  Bytes msg = Sha512::Hash(ToBytes("abc"));
  auto kp = Ed25519KeyPairFromSeed(seed);
  ASSERT_TRUE(kp.ok());
  EXPECT_EQ(HexEncode(kp->public_key),
            "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf");
  auto sig = Ed25519Sign(kp->private_key, msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(HexEncode(*sig),
            "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589"
            "09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704");
  EXPECT_TRUE(Ed25519Verify(kp->public_key, msg, *sig));
}

TEST(Ed25519Test, VerifyRejectsTamperedMessage) {
  auto kp = Ed25519KeyPairFromSeed(Bytes(32, 0x11));
  ASSERT_TRUE(kp.ok());
  Bytes msg = ToBytes("query: SELECT * FROM orders");
  auto sig = Ed25519Sign(kp->private_key, msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(Ed25519Verify(kp->public_key, msg, *sig));

  Bytes tampered = msg;
  tampered[7] ^= 1;
  EXPECT_FALSE(Ed25519Verify(kp->public_key, tampered, *sig));
}

TEST(Ed25519Test, VerifyRejectsTamperedSignature) {
  auto kp = Ed25519KeyPairFromSeed(Bytes(32, 0x22));
  ASSERT_TRUE(kp.ok());
  Bytes msg = ToBytes("attestation quote");
  auto sig = Ed25519Sign(kp->private_key, msg);
  ASSERT_TRUE(sig.ok());
  for (size_t i : {0u, 31u, 32u, 63u}) {
    Bytes bad = *sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(Ed25519Verify(kp->public_key, msg, bad)) << "byte " << i;
  }
}

TEST(Ed25519Test, VerifyRejectsWrongKey) {
  auto kp1 = Ed25519KeyPairFromSeed(Bytes(32, 1));
  auto kp2 = Ed25519KeyPairFromSeed(Bytes(32, 2));
  Bytes msg = ToBytes("m");
  auto sig = Ed25519Sign(kp1->private_key, msg);
  EXPECT_FALSE(Ed25519Verify(kp2->public_key, msg, *sig));
}

// RFC 8032 §5.1.7: S must be below the group order L. S + L names the same
// point [S]B, so accepting it would give every signature a second encoding.
TEST(Ed25519Test, VerifyRejectsNonCanonicalS) {
  static constexpr uint8_t kL[32] = {
      0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
      0xa2, 0xde, 0xf9, 0xde, 0x14, 0,    0,    0,    0,    0,    0,
      0,    0,    0,    0,    0,    0,    0,    0,    0,    0x10};
  auto kp = Ed25519KeyPairFromSeed(Bytes(32, 0x33));
  ASSERT_TRUE(kp.ok());
  Bytes msg = ToBytes("audit log head");
  auto sig = Ed25519Sign(kp->private_key, msg);
  ASSERT_TRUE(sig.ok());
  ASSERT_TRUE(Ed25519Verify(kp->public_key, msg, *sig));
  Bytes malleated = *sig;
  unsigned carry = 0;
  for (size_t i = 0; i < 32; ++i) {
    unsigned sum = malleated[32 + i] + kL[i] + carry;
    malleated[32 + i] = static_cast<uint8_t>(sum);
    carry = sum >> 8;
  }
  ASSERT_EQ(carry, 0u);
  EXPECT_FALSE(Ed25519Verify(kp->public_key, msg, malleated));
}

// RFC 8032 §5.1.3 decoding plus small-order rejection: each of these
// public keys is the identity or a small-order point, so with R = the
// identity and S = 0 it would "verify" every message.
TEST(Ed25519Test, RejectsNonCanonicalAndSmallOrderKeys) {
  auto encoding = [](uint8_t first, uint8_t fill, uint8_t last) {
    Bytes b(32, fill);
    b[0] = first;
    b[31] = last;
    return b;
  };
  const Bytes identity = encoding(0x01, 0x00, 0x00);
  const Bytes y_p_plus_1 = encoding(0xee, 0xff, 0x7f);  // identity, y >= p
  const Bytes keys[] = {
      y_p_plus_1,
      identity,
      encoding(0x01, 0x00, 0x80),  // x = 0 with the sign bit set
      encoding(0xec, 0xff, 0x7f),  // y = -1: order 2
      encoding(0x00, 0x00, 0x00),  // y = 0: order 4
  };
  Bytes forged = identity;
  forged.resize(64, 0);  // R = identity, S = 0
  for (const Bytes& key : keys) {
    for (int m = 0; m < 8; ++m) {
      EXPECT_FALSE(Ed25519Verify(key, ToBytes("m" + std::to_string(m)), forged))
          << HexEncode(key) << " message " << m;
    }
  }
  // R is compared bytewise with the canonical encoding of R', so its
  // y = p + 1 form never matches, even for the point it names.
  Bytes noncanonical_r = y_p_plus_1;
  noncanonical_r.resize(64, 0);
  auto kp = Ed25519KeyPairFromSeed(Bytes(32, 0x44));
  ASSERT_TRUE(kp.ok());
  EXPECT_FALSE(Ed25519Verify(identity, ToBytes("m"), noncanonical_r));
  EXPECT_FALSE(Ed25519Verify(kp->public_key, ToBytes("m"), noncanonical_r));
  auto sig = Ed25519Sign(kp->private_key, ToBytes("m"));
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(Ed25519Verify(kp->public_key, ToBytes("m"), *sig));
}

// Pins the exact bytes of 256 seeded key derivations, signatures and
// X25519 calls (random message lengths, u-coordinates with bit 255 set and
// unreduced): any change to the curve arithmetic that alters one output
// byte changes the digest. The digest was recorded from the earlier
// TweetNaCl-style radix-2^16 implementation of the same functions.
TEST(Ed25519Test, FrozenOutputsOfSeededCalls) {
  Drbg drbg(ToBytes("curve25519 frozen outputs"));
  Sha256 digest;
  for (int i = 0; i < 256; ++i) {
    Bytes seed = drbg.Generate(32);
    auto kp = Ed25519KeyPairFromSeed(seed);
    ASSERT_TRUE(kp.ok());
    Bytes msg = drbg.Generate(drbg.Generate(1)[0]);
    auto sig = Ed25519Sign(kp->private_key, msg);
    ASSERT_TRUE(sig.ok());
    Bytes u = drbg.Generate(32);
    auto shared = X25519(seed, u);
    ASSERT_TRUE(shared.ok());
    digest.Update(kp->public_key);
    digest.Update(*sig);
    digest.Update(*shared);
  }
  EXPECT_EQ(HexEncode(digest.Final()),
            "e6166907b3e6041e750ea27770218e51d29ab77351512e12ea3c5f9a0897b85e");
}

// ---------- X25519 (RFC 7748 §5.2 / §6.1) ----------

TEST(X25519Test, Rfc7748Vector1) {
  Bytes scalar =
      Hx("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  Bytes point =
      Hx("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  auto out = X25519(scalar, point);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(HexEncode(*out),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519Test, Rfc7748Vector2) {
  // The u-coordinate has bit 255 set: X25519 must mask it off.
  Bytes scalar =
      Hx("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  Bytes point =
      Hx("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  auto out = X25519(scalar, point);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(HexEncode(*out),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

// RFC 7748 §5.2 iteration: k = u = 9, then k, u = X25519(k, u), k.
TEST(X25519Test, Rfc7748Iterated) {
  Bytes k(32, 0), u(32, 0);
  k[0] = u[0] = 9;
  for (int i = 1; i <= 1000; ++i) {
    auto next = X25519(k, u);
    ASSERT_TRUE(next.ok());
    u = k;
    k = *next;
    if (i == 1) {
      EXPECT_EQ(HexEncode(k),
                "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
    }
  }
  EXPECT_EQ(HexEncode(k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

TEST(X25519Test, Rfc7748DiffieHellman) {
  Bytes alice_priv =
      Hx("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  Bytes bob_priv =
      Hx("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  auto alice_pub = X25519Base(alice_priv);
  auto bob_pub = X25519Base(bob_priv);
  ASSERT_TRUE(alice_pub.ok() && bob_pub.ok());
  EXPECT_EQ(HexEncode(*alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(HexEncode(*bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  auto k1 = X25519(alice_priv, *bob_pub);
  auto k2 = X25519(bob_priv, *alice_pub);
  ASSERT_TRUE(k1.ok() && k2.ok());
  EXPECT_EQ(*k1, *k2);
  EXPECT_EQ(HexEncode(*k1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

// ---------- AEAD ----------

TEST(AeadTest, SealOpenRoundTrip) {
  auto aead = Aead::Create(Bytes(64, 0x55));
  ASSERT_TRUE(aead.ok());
  Bytes nonce(16, 9);
  Bytes aad = ToBytes("session=42");
  Bytes pt = ToBytes("SELECT * FROM lineitem");
  auto sealed = aead->Seal(nonce, aad, pt);
  ASSERT_TRUE(sealed.ok());
  auto opened = aead->Open(aad, *sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST(AeadTest, SealIsNonceCtrCiphertextAndHmacTag) {
  // The wire format, built from the one-shot primitives: nonce ||
  // AES-CTR(enc_key) || HMAC-SHA256(mac_key, nonce || aad_len || aad ||
  // ciphertext).
  Bytes key(64);
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i);
  Bytes enc_key(key.begin(), key.begin() + 32);
  Bytes mac_key(key.begin() + 32, key.end());
  Bytes nonce(16, 0xa5);
  Bytes aad = ToBytes("aad of 13 byt");
  Bytes pt(1000);
  for (size_t i = 0; i < pt.size(); ++i) pt[i] = static_cast<uint8_t>(i * 31);
  Bytes ct = *AesCtr(enc_key, nonce, pt);
  Bytes mac_input = nonce;
  PutU64(&mac_input, aad.size());
  Append(&mac_input, aad);
  Append(&mac_input, ct);
  Bytes expected = nonce;
  Append(&expected, ct);
  Append(&expected, HmacSha256(mac_key, mac_input));

  auto aead = Aead::Create(key);
  ASSERT_TRUE(aead.ok());
  auto sealed = aead->Seal(nonce, aad, pt);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, expected);
  auto opened = aead->Open(aad, expected);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST(AeadTest, OpenRejectsCiphertextTamper) {
  auto aead = Aead::Create(Bytes(64, 0x55));
  Bytes sealed = *aead->Seal(Bytes(16, 1), {}, ToBytes("data"));
  for (size_t i = 0; i < sealed.size(); ++i) {
    Bytes bad = sealed;
    bad[i] ^= 1;
    EXPECT_TRUE(aead->Open({}, bad).status().IsCorruption()) << "byte " << i;
  }
}

TEST(AeadTest, OpenRejectsAadMismatch) {
  auto aead = Aead::Create(Bytes(64, 0x55));
  Bytes sealed = *aead->Seal(Bytes(16, 1), ToBytes("aad1"), ToBytes("data"));
  EXPECT_FALSE(aead->Open(ToBytes("aad2"), sealed).ok());
}

TEST(AeadTest, OpenRejectsShortInput) {
  auto aead = Aead::Create(Bytes(64, 0));
  EXPECT_TRUE(aead->Open({}, Bytes(10, 0)).status().IsCorruption());
}

TEST(AeadTest, DifferentKeysCannotOpen) {
  auto a1 = Aead::Create(Bytes(64, 1));
  auto a2 = Aead::Create(Bytes(64, 2));
  Bytes sealed = *a1->Seal(Bytes(16, 0), {}, ToBytes("secret"));
  EXPECT_FALSE(a2->Open({}, sealed).ok());
}

TEST(AeadTest, EmptyPlaintext) {
  auto aead = Aead::Create(Bytes(64, 7));
  auto sealed = aead->Seal(Bytes(16, 0), {}, {});
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed->size(), Aead::kOverhead);
  auto opened = aead->Open({}, *sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

}  // namespace
}  // namespace ironsafe::crypto
