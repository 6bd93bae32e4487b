#include "common/bytes.h"

namespace ironsafe {

Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string ToString(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string HexEncode(const uint8_t* data, size_t len) {
  std::string out;
  out.reserve(len * 2);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kHexDigits[data[i] >> 4]);
    out.push_back(kHexDigits[data[i] & 0xf]);
  }
  return out;
}

std::string HexEncode(const Bytes& b) { return HexEncode(b.data(), b.size()); }

Result<Bytes> HexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexNibble(hex[i]);
    int lo = HexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("non-hex character in input");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

bool ConstantTimeEqual(const uint8_t* a, const uint8_t* b, size_t len) {
  uint8_t diff = 0;
  for (size_t i = 0; i < len; ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

bool ConstantTimeEqual(const Bytes& a, const Bytes& b) {
  if (a.size() != b.size()) return false;
  return ConstantTimeEqual(a.data(), b.data(), a.size());
}

void PutU16(Bytes* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(Bytes* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(Bytes* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Append(Bytes* out, const Bytes& src) {
  out->insert(out->end(), src.begin(), src.end());
}

void Append(Bytes* out, const uint8_t* data, size_t len) {
  out->insert(out->end(), data, data + len);
}

void Append(Bytes* out, std::string_view s) {
  out->insert(out->end(), s.begin(), s.end());
}

void PutLengthPrefixed(Bytes* out, const Bytes& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  Append(out, v);
}

void PutLengthPrefixed(Bytes* out, std::string_view v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  Append(out, v);
}

Result<uint8_t> ByteReader::ReadU8() {
  if (remaining() < 1) return Status::InvalidArgument("truncated u8");
  return data_[pos_++];
}

Result<uint16_t> ByteReader::ReadU16() {
  if (remaining() < 2) return Status::InvalidArgument("truncated u16");
  uint16_t v = GetU16(data_ + pos_);
  pos_ += 2;
  return v;
}

Result<uint32_t> ByteReader::ReadU32() {
  if (remaining() < 4) return Status::InvalidArgument("truncated u32");
  uint32_t v = GetU32(data_ + pos_);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  if (remaining() < 8) return Status::InvalidArgument("truncated u64");
  uint64_t v = GetU64(data_ + pos_);
  pos_ += 8;
  return v;
}

Result<Bytes> ByteReader::ReadBytes(size_t n) {
  if (remaining() < n) return Status::InvalidArgument("truncated bytes");
  Bytes out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

Result<Bytes> ByteReader::ReadLengthPrefixed() {
  ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  return ReadBytes(n);
}

Result<std::string> ByteReader::ReadLengthPrefixedString() {
  ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  if (remaining() < n) return Status::InvalidArgument("truncated bytes");
  std::string out(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return out;
}

}  // namespace ironsafe
