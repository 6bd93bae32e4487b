#ifndef IRONSAFE_CRYPTO_DISPATCH_H_
#define IRONSAFE_CRYPTO_DISPATCH_H_

// Internal to src/crypto and its tests: the implementations behind the
// AES block function and the SHA-256 compression function, and the
// one-time CPU check that picks between them. Every implementation
// produces identical bytes; they differ only in speed (and, for AES, in
// cache-timing exposure: the portable AES indexes S-box tables with
// secret bytes). Other code uses Aes::Create and Sha256 and never names
// an implementation.

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/aes.h"
#include "crypto/sha256.h"

namespace ironsafe::crypto::internal {

/// An AES implementation over round keys laid out as 16-byte rows.
struct AesImpl {
  const char* name;
  /// Expands a 16- or 32-byte key into `enc` (rounds + 1 round keys in
  /// FIPS 197 byte order) and `dec` (the equivalent inverse cipher's
  /// schedule, in the order decryption applies it).
  void (*expand)(const uint8_t* key, size_t key_len, uint8_t (*enc)[16],
                 uint8_t (*dec)[16]);
  /// Encrypts (decrypts) `blocks` independent 16-byte blocks; `in` may
  /// equal `out`.
  void (*encrypt)(const uint8_t (*keys)[16], int rounds, const uint8_t* in,
                  uint8_t* out, size_t blocks);
  void (*decrypt)(const uint8_t (*keys)[16], int rounds, const uint8_t* in,
                  uint8_t* out, size_t blocks);
  /// XORs `len` bytes of `in` with the CTR keystream under `keys` (the
  /// encryption schedule) into `out`; `in` may equal `out`. Bytes 8-15 of
  /// `counter` are a big-endian 64-bit block counter that wraps with no
  /// carry into bytes 0-7.
  void (*ctr)(const uint8_t (*keys)[16], int rounds, const uint8_t* counter,
              const uint8_t* in, uint8_t* out, size_t len);
};

/// A SHA-256 compression function: folds `blocks` consecutive 64-byte
/// blocks into `state`.
struct Sha256Impl {
  const char* name;
  void (*compress)(uint32_t state[8], const uint8_t* data, size_t blocks);
};

/// Table-driven C++; runs on any CPU.
extern const AesImpl kPortableAes;
extern const Sha256Impl kPortableSha256;

/// AES-NI and SHA-NI; nullptr when the CPU lacks the instructions. The
/// cpuid check runs once per process.
const AesImpl* HardwareAes();
const Sha256Impl* HardwareSha256();

/// The hardware implementation when the CPU has it, else the portable one.
const AesImpl& DefaultAes();
const Sha256Impl& DefaultSha256();

/// Aes::Create and Sha256() on a chosen implementation.
Result<Aes> CreateAes(const Bytes& key, const AesImpl& impl);
Sha256 MakeSha256(const Sha256Impl& impl);

}  // namespace ironsafe::crypto::internal

#endif  // IRONSAFE_CRYPTO_DISPATCH_H_
