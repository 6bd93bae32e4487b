#ifndef IRONSAFE_CRYPTO_AES_H_
#define IRONSAFE_CRYPTO_AES_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"

namespace ironsafe::crypto {

class Aes;
namespace internal {
struct AesImpl;
Result<Aes> CreateAes(const Bytes& key, const AesImpl& impl);
}  // namespace internal

/// AES block cipher (FIPS 197) supporting 128- and 256-bit keys. Runs on
/// AES-NI when the CPU has it (checked once per process), else on
/// portable table-driven code; both give identical bytes.
class Aes {
 public:
  static constexpr size_t kBlockSize = 16;

  /// Key must be 16 or 32 bytes.
  static Result<Aes> Create(const Bytes& key);

  void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const {
    EncryptBlocks(in, out, 1);
  }
  void DecryptBlock(const uint8_t in[16], uint8_t out[16]) const {
    DecryptBlocks(in, out, 1);
  }

  /// Encrypts (decrypts) `blocks` independent 16-byte blocks, the parallel
  /// core of CBC decryption and CTR; the hardware path keeps eight blocks
  /// in flight. `in` may equal `out`.
  void EncryptBlocks(const uint8_t* in, uint8_t* out, size_t blocks) const;
  void DecryptBlocks(const uint8_t* in, uint8_t* out, size_t blocks) const;

  /// XORs `len` bytes of `in` with the CTR keystream starting at
  /// `counter` (big-endian counter in the low 8 bytes, wrapping with no
  /// carry into the high 8) into `out`; `in` may equal `out`. The
  /// hardware path builds eight counter blocks in registers and XORs the
  /// input in-lane; the portable one makes the keystream in fixed stack
  /// chunks.
  void CtrXor(const uint8_t counter[16], const uint8_t* in, uint8_t* out,
              size_t len) const;

 private:
  static constexpr int kMaxRounds = 14;

  friend Result<Aes> internal::CreateAes(const Bytes& key,
                                         const internal::AesImpl& impl);
  explicit Aes(const internal::AesImpl* impl) : impl_(impl) {}

  const internal::AesImpl* impl_;
  int rounds_ = 0;
  /// Round keys as 16-byte rows: enc_keys_[r] is added after round r;
  /// dec_keys_ is the equivalent inverse cipher's schedule, in use order.
  alignas(16) uint8_t enc_keys_[kMaxRounds + 1][16] = {};
  alignas(16) uint8_t dec_keys_[kMaxRounds + 1][16] = {};
};

/// AES-CBC with PKCS#7 padding. `iv` must be 16 bytes. The paper's secure
/// storage encrypts each 4 KiB page with AES-256-CBC and a random IV.
Result<Bytes> AesCbcEncrypt(const Bytes& key, const Bytes& iv,
                            const Bytes& plaintext);
Result<Bytes> AesCbcDecrypt(const Bytes& key, const Bytes& iv,
                            const Bytes& ciphertext);
/// The same under an already expanded key.
Result<Bytes> AesCbcEncrypt(const Aes& aes, const Bytes& iv,
                            const Bytes& plaintext);
Result<Bytes> AesCbcDecrypt(const Aes& aes, const Bytes& iv,
                            const Bytes& ciphertext);

/// AES-CTR keystream encryption (encrypt == decrypt). `nonce` must be
/// 16 bytes (big-endian counter in the low 8 bytes).
Result<Bytes> AesCtr(const Bytes& key, const Bytes& nonce, const Bytes& data);

}  // namespace ironsafe::crypto

#endif  // IRONSAFE_CRYPTO_AES_H_
