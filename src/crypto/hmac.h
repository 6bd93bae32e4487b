#ifndef IRONSAFE_CRYPTO_HMAC_H_
#define IRONSAFE_CRYPTO_HMAC_H_

#include "common/bytes.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"

namespace ironsafe::crypto {

/// Incremental HMAC (RFC 2104) over `Hash` (Sha256 or Sha512): the
/// message may arrive in any number of Update pieces, straight from where
/// they lie. Keys of any length are handled per the RFC (hashed if longer
/// than a block). Final() may be called once.
template <typename Hash>
class Hmac {
 public:
  explicit Hmac(const Bytes& key);

  void Update(const uint8_t* data, size_t len) { inner_.Update(data, len); }
  void Update(const Bytes& data) { inner_.Update(data); }

  Bytes Final();

 private:
  Hash inner_;  ///< keyed with ipad
  Hash outer_;  ///< keyed with opad
};

/// One-shot HMAC-SHA-256 / HMAC-SHA-512.
Bytes HmacSha256(const Bytes& key, const Bytes& message);
Bytes HmacSha512(const Bytes& key, const Bytes& message);

/// Verifies in constant time. Returns true iff mac == HMAC(key, message).
bool VerifyHmacSha256(const Bytes& key, const Bytes& message, const Bytes& mac);
bool VerifyHmacSha512(const Bytes& key, const Bytes& message, const Bytes& mac);

/// HKDF (RFC 5869) with HMAC-SHA-256: extract-then-expand key derivation.
/// Returns `length` bytes of output keying material.
Bytes HkdfSha256(const Bytes& salt, const Bytes& ikm, const Bytes& info,
                 size_t length);

}  // namespace ironsafe::crypto

#endif  // IRONSAFE_CRYPTO_HMAC_H_
