#include "crypto/aes.h"

#include <algorithm>
#include <cstring>

#include "crypto/dispatch.h"

#if defined(__x86_64__) || defined(__i386__)
#include <wmmintrin.h>
#define IRONSAFE_HAVE_AESNI 1
#endif

namespace ironsafe::crypto {

namespace {

// ---------------------------------------------------------------------------
// Portable implementation. kSbox/kInvSbox are indexed with secret bytes, so
// it is not constant-time against a cache-timing attacker; it runs only on
// CPUs without AES-NI (and in the tests that compare the two).
// ---------------------------------------------------------------------------

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

constexpr uint8_t kRcon[15] = {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80,
                               0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a};

uint8_t Xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

uint32_t SubWord(uint32_t w) {
  return static_cast<uint32_t>(kSbox[w >> 24]) << 24 |
         static_cast<uint32_t>(kSbox[(w >> 16) & 0xff]) << 16 |
         static_cast<uint32_t>(kSbox[(w >> 8) & 0xff]) << 8 |
         static_cast<uint32_t>(kSbox[w & 0xff]);
}

uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

void AddRoundKey(uint8_t state[16], const uint8_t rk[16]) {
  for (int i = 0; i < 16; ++i) state[i] ^= rk[i];
}

void SubBytes(uint8_t state[16]) {
  for (int i = 0; i < 16; ++i) state[i] = kSbox[state[i]];
}

void InvSubBytes(uint8_t state[16]) {
  for (int i = 0; i < 16; ++i) state[i] = kInvSbox[state[i]];
}

// State layout is column-major: state[4*c + r] is row r, column c.
void ShiftRows(uint8_t s[16]) {
  uint8_t t;
  // Row 1: shift left by 1.
  t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
  // Row 2: shift left by 2.
  std::swap(s[2], s[10]);
  std::swap(s[6], s[14]);
  // Row 3: shift left by 3 (== right by 1).
  t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
}

void InvShiftRows(uint8_t s[16]) {
  uint8_t t;
  t = s[13]; s[13] = s[9]; s[9] = s[5]; s[5] = s[1]; s[1] = t;
  std::swap(s[2], s[10]);
  std::swap(s[6], s[14]);
  t = s[3]; s[3] = s[7]; s[7] = s[11]; s[11] = s[15]; s[15] = t;
}

void MixColumns(uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = s + 4 * c;
    uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<uint8_t>(Xtime(a0) ^ (Xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<uint8_t>(a0 ^ Xtime(a1) ^ (Xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<uint8_t>(a0 ^ a1 ^ Xtime(a2) ^ (Xtime(a3) ^ a3));
    col[3] = static_cast<uint8_t>((Xtime(a0) ^ a0) ^ a1 ^ a2 ^ Xtime(a3));
  }
}

// Multiples 9, 11, 13, 14 of one byte from a fixed chain of three xtimes.
struct InvMultiples {
  uint8_t m9, m11, m13, m14;
};

InvMultiples InvMul(uint8_t a) {
  uint8_t x2 = Xtime(a), x4 = Xtime(x2), x8 = Xtime(x4);
  return {static_cast<uint8_t>(x8 ^ a), static_cast<uint8_t>(x8 ^ x2 ^ a),
          static_cast<uint8_t>(x8 ^ x4 ^ a),
          static_cast<uint8_t>(x8 ^ x4 ^ x2)};
}

void InvMixColumns(uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = s + 4 * c;
    InvMultiples a0 = InvMul(col[0]), a1 = InvMul(col[1]),
                 a2 = InvMul(col[2]), a3 = InvMul(col[3]);
    col[0] = static_cast<uint8_t>(a0.m14 ^ a1.m11 ^ a2.m13 ^ a3.m9);
    col[1] = static_cast<uint8_t>(a0.m9 ^ a1.m14 ^ a2.m11 ^ a3.m13);
    col[2] = static_cast<uint8_t>(a0.m13 ^ a1.m9 ^ a2.m14 ^ a3.m11);
    col[3] = static_cast<uint8_t>(a0.m11 ^ a1.m13 ^ a2.m9 ^ a3.m14);
  }
}

void ExpandPortable(const uint8_t* key, size_t key_len, uint8_t (*enc)[16],
                    uint8_t (*dec)[16]) {
  const int nk = static_cast<int>(key_len / 4);
  const int rounds = nk + 6;
  const int total = 4 * (rounds + 1);

  uint32_t w[4 * 15] = {};
  for (int i = 0; i < nk; ++i) {
    w[i] = static_cast<uint32_t>(key[4 * i]) << 24 |
           static_cast<uint32_t>(key[4 * i + 1]) << 16 |
           static_cast<uint32_t>(key[4 * i + 2]) << 8 |
           static_cast<uint32_t>(key[4 * i + 3]);
  }
  for (int i = nk; i < total; ++i) {
    uint32_t temp = w[i - 1];
    if (i % nk == 0) {
      temp = SubWord(RotWord(temp)) ^
             (static_cast<uint32_t>(kRcon[i / nk - 1]) << 24);
    } else if (nk > 6 && i % nk == 4) {
      temp = SubWord(temp);
    }
    w[i] = w[i - nk] ^ temp;
  }
  for (int i = 0; i < total; ++i) {
    uint8_t* row = enc[i / 4] + 4 * (i % 4);
    row[0] = static_cast<uint8_t>(w[i] >> 24);
    row[1] = static_cast<uint8_t>(w[i] >> 16);
    row[2] = static_cast<uint8_t>(w[i] >> 8);
    row[3] = static_cast<uint8_t>(w[i]);
  }
  // Equivalent inverse cipher (FIPS 197 §5.3.5): the middle round keys
  // pass through InvMixColumns so decryption rounds mirror encryption's.
  std::memcpy(dec[0], enc[rounds], 16);
  for (int r = 1; r < rounds; ++r) {
    std::memcpy(dec[r], enc[rounds - r], 16);
    InvMixColumns(dec[r]);
  }
  std::memcpy(dec[rounds], enc[0], 16);
}

void EncryptPortable(const uint8_t (*keys)[16], int rounds, const uint8_t* in,
                     uint8_t* out, size_t blocks) {
  for (; blocks > 0; --blocks, in += 16, out += 16) {
    uint8_t state[16];
    std::memcpy(state, in, 16);
    AddRoundKey(state, keys[0]);
    for (int round = 1; round < rounds; ++round) {
      SubBytes(state);
      ShiftRows(state);
      MixColumns(state);
      AddRoundKey(state, keys[round]);
    }
    SubBytes(state);
    ShiftRows(state);
    AddRoundKey(state, keys[rounds]);
    std::memcpy(out, state, 16);
  }
}

void DecryptPortable(const uint8_t (*keys)[16], int rounds, const uint8_t* in,
                     uint8_t* out, size_t blocks) {
  for (; blocks > 0; --blocks, in += 16, out += 16) {
    uint8_t state[16];
    std::memcpy(state, in, 16);
    AddRoundKey(state, keys[0]);
    for (int round = 1; round < rounds; ++round) {
      InvSubBytes(state);
      InvShiftRows(state);
      InvMixColumns(state);
      AddRoundKey(state, keys[round]);
    }
    InvSubBytes(state);
    InvShiftRows(state);
    AddRoundKey(state, keys[rounds]);
    std::memcpy(out, state, 16);
  }
}

// ---------------------------------------------------------------------------
// AES-NI implementation: key expansion with AESKEYGENASSIST/AESIMC, and
// eight independent blocks in flight so the AESENC/AESDEC latency overlaps.
// ---------------------------------------------------------------------------

#ifdef IRONSAFE_HAVE_AESNI

constexpr size_t kLanes = 8;

__attribute__((target("aes"))) __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

__attribute__((target("aes"))) void Store(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// One key-expansion step: prefix-XOR the previous words, then fold in the
// (already lane-broadcast) AESKEYGENASSIST word.
__attribute__((target("aes"))) __m128i ExpandStep(__m128i key,
                                                  __m128i assist) {
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

// The next round key from `prev` (the key Nk words back) and `last` (the
// latest one): AESKEYGENASSIST takes its round constant as an immediate,
// and kLane picks RotWord(SubWord(w)) ^ rcon (0xff) or SubWord(w) (0xaa).
template <int kRcon, int kLane>
__attribute__((target("aes"))) __m128i NextKey(__m128i prev, __m128i last) {
  return ExpandStep(
      prev, _mm_shuffle_epi32(_mm_aeskeygenassist_si128(last, kRcon), kLane));
}

__attribute__((target("aes"))) void ExpandAesNi(const uint8_t* key,
                                                size_t key_len,
                                                uint8_t (*enc)[16],
                                                uint8_t (*dec)[16]) {
  __m128i k[15];
  int rounds = 10;
  k[0] = Load(key);
  if (key_len == 16) {
    k[1] = NextKey<0x01, 0xff>(k[0], k[0]);
    k[2] = NextKey<0x02, 0xff>(k[1], k[1]);
    k[3] = NextKey<0x04, 0xff>(k[2], k[2]);
    k[4] = NextKey<0x08, 0xff>(k[3], k[3]);
    k[5] = NextKey<0x10, 0xff>(k[4], k[4]);
    k[6] = NextKey<0x20, 0xff>(k[5], k[5]);
    k[7] = NextKey<0x40, 0xff>(k[6], k[6]);
    k[8] = NextKey<0x80, 0xff>(k[7], k[7]);
    k[9] = NextKey<0x1b, 0xff>(k[8], k[8]);
    k[10] = NextKey<0x36, 0xff>(k[9], k[9]);
  } else {
    rounds = 14;
    k[1] = Load(key + 16);
    k[2] = NextKey<0x01, 0xff>(k[0], k[1]);
    k[3] = NextKey<0x00, 0xaa>(k[1], k[2]);
    k[4] = NextKey<0x02, 0xff>(k[2], k[3]);
    k[5] = NextKey<0x00, 0xaa>(k[3], k[4]);
    k[6] = NextKey<0x04, 0xff>(k[4], k[5]);
    k[7] = NextKey<0x00, 0xaa>(k[5], k[6]);
    k[8] = NextKey<0x08, 0xff>(k[6], k[7]);
    k[9] = NextKey<0x00, 0xaa>(k[7], k[8]);
    k[10] = NextKey<0x10, 0xff>(k[8], k[9]);
    k[11] = NextKey<0x00, 0xaa>(k[9], k[10]);
    k[12] = NextKey<0x20, 0xff>(k[10], k[11]);
    k[13] = NextKey<0x00, 0xaa>(k[11], k[12]);
    k[14] = NextKey<0x40, 0xff>(k[12], k[13]);
  }
  for (int r = 0; r <= rounds; ++r) Store(enc[r], k[r]);
  Store(dec[0], k[rounds]);
  for (int r = 1; r < rounds; ++r) {
    Store(dec[r], _mm_aesimc_si128(k[rounds - r]));
  }
  Store(dec[rounds], k[0]);
}

// One AESENC/AESDEC round and the final AESENCLAST/AESDECLAST round.
template <bool kDecrypt>
__attribute__((target("aes"))) __m128i Round(__m128i block, __m128i key) {
  if constexpr (kDecrypt) return _mm_aesdec_si128(block, key);
  return _mm_aesenc_si128(block, key);
}

template <bool kDecrypt>
__attribute__((target("aes"))) __m128i LastRound(__m128i block, __m128i key) {
  if constexpr (kDecrypt) return _mm_aesdeclast_si128(block, key);
  return _mm_aesenclast_si128(block, key);
}

template <bool kDecrypt>
__attribute__((target("aes"))) void CryptAesNi(const uint8_t (*keys)[16],
                                               int rounds, const uint8_t* in,
                                               uint8_t* out, size_t blocks) {
  __m128i k[15];
  for (int r = 0; r <= rounds; ++r) k[r] = Load(keys[r]);
  for (; blocks >= kLanes; blocks -= kLanes) {
    __m128i b[kLanes];
#pragma GCC unroll 8
    for (size_t i = 0; i < kLanes; ++i) {
      b[i] = _mm_xor_si128(Load(in + 16 * i), k[0]);
    }
    for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 8
      for (size_t i = 0; i < kLanes; ++i) b[i] = Round<kDecrypt>(b[i], k[r]);
    }
#pragma GCC unroll 8
    for (size_t i = 0; i < kLanes; ++i) {
      Store(out + 16 * i, LastRound<kDecrypt>(b[i], k[rounds]));
    }
    in += 16 * kLanes;
    out += 16 * kLanes;
  }
  for (; blocks > 0; --blocks, in += 16, out += 16) {
    __m128i b = _mm_xor_si128(Load(in), k[0]);
    for (int r = 1; r < rounds; ++r) b = Round<kDecrypt>(b, k[r]);
    Store(out, LastRound<kDecrypt>(b, k[rounds]));
  }
}

// The CTR block for counter value `low`: bytes 0-7 as given (`high`, in
// memory order), bytes 8-15 `low` big-endian.
__attribute__((target("aes"))) __m128i CounterBlock(int64_t high,
                                                    uint64_t low) {
  return _mm_set_epi64x(static_cast<int64_t>(__builtin_bswap64(low)), high);
}

// CTR with eight counter blocks in flight: the counters are built in
// registers, encrypted together, and the input is XORed in-lane.
__attribute__((target("aes"))) void CtrAesNi(const uint8_t (*keys)[16],
                                             int rounds,
                                             const uint8_t* counter,
                                             const uint8_t* in, uint8_t* out,
                                             size_t len) {
  __m128i k[15];
  for (int r = 0; r <= rounds; ++r) k[r] = Load(keys[r]);
  int64_t high;
  std::memcpy(&high, counter, 8);
  uint64_t low = 0;
  for (int i = 8; i < 16; ++i) low = low << 8 | counter[i];
  for (; len >= 16 * kLanes; len -= 16 * kLanes) {
    __m128i b[kLanes];
#pragma GCC unroll 8
    for (size_t i = 0; i < kLanes; ++i) {
      b[i] = _mm_xor_si128(CounterBlock(high, low + i), k[0]);
    }
    low += kLanes;
    for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 8
      for (size_t i = 0; i < kLanes; ++i) b[i] = _mm_aesenc_si128(b[i], k[r]);
    }
#pragma GCC unroll 8
    for (size_t i = 0; i < kLanes; ++i) {
      b[i] = _mm_aesenclast_si128(b[i], k[rounds]);
      Store(out + 16 * i, _mm_xor_si128(b[i], Load(in + 16 * i)));
    }
    in += 16 * kLanes;
    out += 16 * kLanes;
  }
  for (; len > 0; ++low) {
    __m128i b = _mm_xor_si128(CounterBlock(high, low), k[0]);
    for (int r = 1; r < rounds; ++r) b = _mm_aesenc_si128(b, k[r]);
    b = _mm_aesenclast_si128(b, k[rounds]);
    if (len < 16) {
      alignas(16) uint8_t keystream[16];
      Store(keystream, b);
      for (size_t i = 0; i < len; ++i) out[i] = in[i] ^ keystream[i];
      return;
    }
    Store(out, _mm_xor_si128(b, Load(in)));
    in += 16;
    out += 16;
    len -= 16;
  }
}

constexpr internal::AesImpl kAesNi = {"aes_ni", ExpandAesNi,
                                      CryptAesNi<false>, CryptAesNi<true>,
                                      CtrAesNi};

#endif  // IRONSAFE_HAVE_AESNI

// out[i] = a[i] ^ b[i]; `out` may equal `a`.
void XorBytes(const uint8_t* a, const uint8_t* b, uint8_t* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t x, y;
    std::memcpy(&x, a + i, 8);
    std::memcpy(&y, b + i, 8);
    x ^= y;
    std::memcpy(out + i, &x, 8);
  }
  for (; i < n; ++i) out[i] = a[i] ^ b[i];
}

void CtrPortable(const uint8_t (*keys)[16], int rounds, const uint8_t* counter,
                 const uint8_t* in, uint8_t* out, size_t len) {
  // The keystream is made a chunk at a time on the stack, so memory stays
  // bounded however long the message is.
  constexpr size_t kChunkBlocks = 32;
  constexpr size_t kBlock = Aes::kBlockSize;
  alignas(16) uint8_t keystream[kChunkBlocks * kBlock];
  uint64_t low = 0;
  for (int i = 8; i < 16; ++i) low = low << 8 | counter[i];
  while (len > 0) {
    size_t n = std::min(len, sizeof(keystream));
    size_t blocks = (n + kBlock - 1) / kBlock;
    for (size_t b = 0; b < blocks; ++b, ++low) {
      uint8_t* block = keystream + kBlock * b;
      std::memcpy(block, counter, 8);
      for (int i = 0; i < 8; ++i) {
        block[8 + i] = static_cast<uint8_t>(low >> (56 - 8 * i));
      }
    }
    EncryptPortable(keys, rounds, keystream, keystream, blocks);
    XorBytes(in, keystream, out, n);
    in += n;
    out += n;
    len -= n;
  }
}

}  // namespace

namespace internal {

const AesImpl kPortableAes = {"portable", ExpandPortable, EncryptPortable,
                              DecryptPortable, CtrPortable};

const AesImpl* HardwareAes() {
#ifdef IRONSAFE_HAVE_AESNI
  static const AesImpl* const impl = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") ? &kAesNi : nullptr;
  }();
  return impl;
#else
  return nullptr;
#endif
}

const AesImpl& DefaultAes() {
  const AesImpl* hardware = HardwareAes();
  return hardware != nullptr ? *hardware : kPortableAes;
}

Result<Aes> CreateAes(const Bytes& key, const AesImpl& impl) {
  if (key.size() != 16 && key.size() != 32) {
    return Status::InvalidArgument("AES key must be 16 or 32 bytes");
  }
  Aes aes(&impl);
  aes.rounds_ = static_cast<int>(key.size() / 4) + 6;
  impl.expand(key.data(), key.size(), aes.enc_keys_, aes.dec_keys_);
  return aes;
}

}  // namespace internal

Result<Aes> Aes::Create(const Bytes& key) {
  return internal::CreateAes(key, internal::DefaultAes());
}

void Aes::EncryptBlocks(const uint8_t* in, uint8_t* out, size_t blocks) const {
  impl_->encrypt(enc_keys_, rounds_, in, out, blocks);
}

void Aes::DecryptBlocks(const uint8_t* in, uint8_t* out, size_t blocks) const {
  impl_->decrypt(dec_keys_, rounds_, in, out, blocks);
}

void Aes::CtrXor(const uint8_t counter[16], const uint8_t* in, uint8_t* out,
                 size_t len) const {
  impl_->ctr(enc_keys_, rounds_, counter, in, out, len);
}

Result<Bytes> AesCbcEncrypt(const Aes& aes, const Bytes& iv,
                            const Bytes& plaintext) {
  if (iv.size() != Aes::kBlockSize) {
    return Status::InvalidArgument("CBC IV must be 16 bytes");
  }
  // PKCS#7 pad, then chain in place.
  size_t pad = Aes::kBlockSize - plaintext.size() % Aes::kBlockSize;
  Bytes out(plaintext.size() + pad, static_cast<uint8_t>(pad));
  std::copy(plaintext.begin(), plaintext.end(), out.begin());
  const uint8_t* prev = iv.data();
  for (size_t off = 0; off < out.size(); off += Aes::kBlockSize) {
    uint8_t* block = out.data() + off;
    XorBytes(block, prev, block, Aes::kBlockSize);
    aes.EncryptBlock(block, block);
    prev = block;
  }
  return out;
}

Result<Bytes> AesCbcDecrypt(const Aes& aes, const Bytes& iv,
                            const Bytes& ciphertext) {
  if (iv.size() != Aes::kBlockSize) {
    return Status::InvalidArgument("CBC IV must be 16 bytes");
  }
  if (ciphertext.empty() || ciphertext.size() % Aes::kBlockSize != 0) {
    return Status::InvalidArgument("CBC ciphertext not block aligned");
  }
  // Every block decrypts independently; the chaining XOR follows.
  Bytes out(ciphertext.size());
  aes.DecryptBlocks(ciphertext.data(), out.data(),
                    ciphertext.size() / Aes::kBlockSize);
  XorBytes(out.data(), iv.data(), out.data(), Aes::kBlockSize);
  XorBytes(out.data() + Aes::kBlockSize, ciphertext.data(),
           out.data() + Aes::kBlockSize, ciphertext.size() - Aes::kBlockSize);

  uint8_t pad = out.back();
  if (pad == 0 || pad > Aes::kBlockSize || pad > out.size()) {
    return Status::Corruption("bad PKCS#7 padding");
  }
  for (size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) return Status::Corruption("bad PKCS#7 padding");
  }
  out.resize(out.size() - pad);
  return out;
}

Result<Bytes> AesCbcEncrypt(const Bytes& key, const Bytes& iv,
                            const Bytes& plaintext) {
  ASSIGN_OR_RETURN(Aes aes, Aes::Create(key));
  return AesCbcEncrypt(aes, iv, plaintext);
}

Result<Bytes> AesCbcDecrypt(const Bytes& key, const Bytes& iv,
                            const Bytes& ciphertext) {
  ASSIGN_OR_RETURN(Aes aes, Aes::Create(key));
  return AesCbcDecrypt(aes, iv, ciphertext);
}

Result<Bytes> AesCtr(const Bytes& key, const Bytes& nonce, const Bytes& data) {
  if (nonce.size() != Aes::kBlockSize) {
    return Status::InvalidArgument("CTR nonce must be 16 bytes");
  }
  ASSIGN_OR_RETURN(Aes aes, Aes::Create(key));
  Bytes out(data.size());
  aes.CtrXor(nonce.data(), data.data(), out.data(), data.size());
  return out;
}

}  // namespace ironsafe::crypto
