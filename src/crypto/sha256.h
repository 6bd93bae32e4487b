#ifndef IRONSAFE_CRYPTO_SHA256_H_
#define IRONSAFE_CRYPTO_SHA256_H_

#include <cstdint>
#include <cstddef>

#include "common/bytes.h"

namespace ironsafe::crypto {

class Sha256;
namespace internal {
struct Sha256Impl;
Sha256 MakeSha256(const Sha256Impl& impl);
}  // namespace internal

/// Incremental SHA-256 (FIPS 180-4). Compresses on SHA-NI when the CPU
/// has it (checked once per process), else on portable code; both give
/// identical digests.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();

  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  /// Finalizes and returns the 32-byte digest. The object must not be
  /// reused after Final() without Reset().
  Bytes Final();

  void Reset();

  /// One-shot convenience.
  static Bytes Hash(const Bytes& data);
  static Bytes Hash(std::string_view data);

 private:
  friend Sha256 internal::MakeSha256(const internal::Sha256Impl& impl);
  explicit Sha256(const internal::Sha256Impl* impl);

  const internal::Sha256Impl* impl_;
  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
};

}  // namespace ironsafe::crypto

#endif  // IRONSAFE_CRYPTO_SHA256_H_
