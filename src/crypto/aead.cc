#include "crypto/aead.h"

#include <algorithm>

#include "crypto/aes.h"
#include "crypto/hmac.h"

namespace ironsafe::crypto {

Result<Aead> Aead::Create(const Bytes& key) {
  if (key.size() != kKeySize) {
    return Status::InvalidArgument("AEAD key must be 64 bytes");
  }
  Bytes enc_key(key.begin(), key.begin() + 32);
  Bytes mac_key(key.begin() + 32, key.end());
  return Aead(std::move(enc_key), std::move(mac_key));
}

namespace {
/// HMAC over nonce || aad_len(u64 LE) || aad || ciphertext, each piece
/// read where it lies.
Bytes Tag(const Bytes& mac_key, const uint8_t* nonce, const Bytes& aad,
          const uint8_t* ciphertext, size_t ciphertext_len) {
  Hmac<Sha256> mac(mac_key);
  mac.Update(nonce, Aead::kNonceSize);
  Bytes aad_len;
  PutU64(&aad_len, aad.size());
  mac.Update(aad_len);
  mac.Update(aad);
  mac.Update(ciphertext, ciphertext_len);
  return mac.Final();
}
}  // namespace

Result<Bytes> Aead::Seal(const Bytes& nonce, const Bytes& aad,
                         const Bytes& plaintext) const {
  if (nonce.size() != kNonceSize) {
    return Status::InvalidArgument("AEAD nonce must be 16 bytes");
  }
  ASSIGN_OR_RETURN(Aes aes, Aes::Create(enc_key_));
  Bytes out(kOverhead + plaintext.size());
  std::copy(nonce.begin(), nonce.end(), out.begin());
  uint8_t* ciphertext = out.data() + kNonceSize;
  aes.CtrXor(nonce.data(), plaintext.data(), ciphertext, plaintext.size());
  Bytes tag = Tag(mac_key_, nonce.data(), aad, ciphertext, plaintext.size());
  std::copy(tag.begin(), tag.end(), out.end() - kTagSize);
  return out;
}

Result<Bytes> Aead::Open(const Bytes& aad, const Bytes& sealed) const {
  if (sealed.size() < kOverhead) {
    return Status::Corruption("sealed message too short");
  }
  const uint8_t* nonce = sealed.data();
  const uint8_t* ciphertext = nonce + kNonceSize;
  size_t ciphertext_len = sealed.size() - kOverhead;
  Bytes expected = Tag(mac_key_, nonce, aad, ciphertext, ciphertext_len);
  if (!ConstantTimeEqual(expected.data(), ciphertext + ciphertext_len,
                         kTagSize)) {
    return Status::Corruption("AEAD tag mismatch");
  }
  ASSIGN_OR_RETURN(Aes aes, Aes::Create(enc_key_));
  Bytes plaintext(ciphertext_len);
  aes.CtrXor(nonce, ciphertext, plaintext.data(), ciphertext_len);
  return plaintext;
}

void Aead::Zeroize() {
  std::fill(enc_key_.begin(), enc_key_.end(), uint8_t{0});
  std::fill(mac_key_.begin(), mac_key_.end(), uint8_t{0});
}

}  // namespace ironsafe::crypto
