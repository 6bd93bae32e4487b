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
