#ifndef IRONSAFE_COMMON_BYTES_H_
#define IRONSAFE_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace ironsafe {

/// Owned byte buffer used throughout crypto/storage/networking code.
using Bytes = std::vector<uint8_t>;

/// Builds a Bytes from a string (no encoding change).
Bytes ToBytes(std::string_view s);

/// Builds a std::string view copy of a byte buffer.
std::string ToString(const Bytes& b);

/// Lowercase hex encoding, e.g. {0xde, 0xad} -> "dead".
std::string HexEncode(const uint8_t* data, size_t len);
std::string HexEncode(const Bytes& b);

/// Parses lowercase/uppercase hex; fails on odd length or non-hex chars.
Result<Bytes> HexDecode(std::string_view hex);

/// Constant-time equality for MACs and keys (length leaks, contents do not).
bool ConstantTimeEqual(const Bytes& a, const Bytes& b);
bool ConstantTimeEqual(const uint8_t* a, const uint8_t* b, size_t len);

/// Little-endian fixed-width integer codecs: Put* appends to `out`,
/// StoreLE writes at `p`, LoadLE and Get* read at `p`.
void PutU16(Bytes* out, uint16_t v);
void PutU32(Bytes* out, uint32_t v);
void PutU64(Bytes* out, uint64_t v);

template <typename T>
inline void StoreLE(uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
}

template <typename T>
inline T LoadLE(const uint8_t* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(p[i]) << (8 * i);
  }
  return v;
}

inline uint16_t GetU16(const uint8_t* p) { return LoadLE<uint16_t>(p); }
inline uint32_t GetU32(const uint8_t* p) { return LoadLE<uint32_t>(p); }
inline uint64_t GetU64(const uint8_t* p) { return LoadLE<uint64_t>(p); }

/// Appends `src` to `out`.
void Append(Bytes* out, const Bytes& src);
void Append(Bytes* out, const uint8_t* data, size_t len);
void Append(Bytes* out, std::string_view s);

/// Length-prefixed (u32) string/bytes codec used by message serializers.
void PutLengthPrefixed(Bytes* out, const Bytes& v);
void PutLengthPrefixed(Bytes* out, std::string_view v);

/// Cursor-style reader over a byte buffer for deserialization.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& data) : data_(data.data()), len_(data.size()) {}
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }
  /// The unread bytes, for a decoder that bounds-checks inline against
  /// remaining(); Skip(n) then consumes n <= remaining() of them.
  const uint8_t* cursor() const { return data_ + pos_; }
  void Skip(size_t n) { pos_ += n; }

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<Bytes> ReadBytes(size_t n);
  Result<Bytes> ReadLengthPrefixed();
  Result<std::string> ReadLengthPrefixedString();

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace ironsafe

#endif  // IRONSAFE_COMMON_BYTES_H_
