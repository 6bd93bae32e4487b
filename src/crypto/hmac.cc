#include "crypto/hmac.h"

namespace ironsafe::crypto {

template <typename Hash>
Hmac<Hash>::Hmac(const Bytes& key) {
  constexpr size_t kBlock = Hash::kBlockSize;
  Bytes k = key;
  if (k.size() > kBlock) k = Hash::Hash(k);
  k.resize(kBlock, 0);

  Bytes ipad(kBlock), opad(kBlock);
  for (size_t i = 0; i < kBlock; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_.Update(ipad);
  outer_.Update(opad);
}

template <typename Hash>
Bytes Hmac<Hash>::Final() {
  outer_.Update(inner_.Final());
  return outer_.Final();
}

template class Hmac<Sha256>;
template class Hmac<Sha512>;

Bytes HmacSha256(const Bytes& key, const Bytes& message) {
  Hmac<Sha256> mac(key);
  mac.Update(message);
  return mac.Final();
}

Bytes HmacSha512(const Bytes& key, const Bytes& message) {
  Hmac<Sha512> mac(key);
  mac.Update(message);
  return mac.Final();
}

bool VerifyHmacSha256(const Bytes& key, const Bytes& message,
                      const Bytes& mac) {
  return ConstantTimeEqual(HmacSha256(key, message), mac);
}

bool VerifyHmacSha512(const Bytes& key, const Bytes& message,
                      const Bytes& mac) {
  return ConstantTimeEqual(HmacSha512(key, message), mac);
}

Bytes HkdfSha256(const Bytes& salt, const Bytes& ikm, const Bytes& info,
                 size_t length) {
  // Extract.
  Bytes prk = HmacSha256(salt.empty() ? Bytes(Sha256::kDigestSize, 0) : salt,
                         ikm);
  // Expand.
  Bytes okm;
  Bytes t;
  uint8_t counter = 1;
  while (okm.size() < length) {
    Bytes block = t;
    Append(&block, info);
    block.push_back(counter++);
    t = HmacSha256(prk, block);
    Append(&okm, t);
  }
  okm.resize(length);
  return okm;
}

}  // namespace ironsafe::crypto
