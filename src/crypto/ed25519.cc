// Ed25519 (RFC 8032) and X25519 (RFC 7748) on one portable field
// implementation: GF(2^255 - 19) in five 51-bit limbs (uint64_t) with
// unsigned __int128 products, a dedicated squaring, and the fixed addition
// chains for inversion and for the square-root exponent. Edwards points use
// extended coordinates with the dbl-2008-hwcd doubling and the
// add-2008-hwcd-3 addition, both complete on this curve.
//
// Every [s]B -- key derivation, R = [r]B when signing, [S]B when
// verifying, and X25519Base -- reads a table of j * 256^i * B (j = 1..8,
// i = 0..31) with signed radix-16 digits of s: 64 mixed additions and 4
// doublings. The table and the curve constants (d, 2d, sqrt(-1), B itself)
// are computed once per process from their definitions by this field code.
//
// Secret scalars choose no branch and no memory index: the table lookup
// scans all eight entries of a row and keeps one with masks, and the X25519
// Montgomery ladder swaps with masks. Ed25519Verify handles only public
// values and runs variable-time. Validated against the RFC 8032 / RFC 7748
// vectors in tests/crypto_test.cc.

#include "crypto/ed25519.h"

#include <cstring>

#include "crypto/sha512.h"

namespace ironsafe::crypto {

namespace {

using i64 = int64_t;
using u128 = unsigned __int128;

// ---- GF(2^255 - 19): h = v[0] + v[1] 2^51 + ... + v[4] 2^204 ----
//
// Limb bounds: Mul, Sqr, MulSmall, Sub and Carry return limbs below 2^52.
// Add does not carry, so a sum of up to three such elements stays below
// 2^54, which Mul and Sqr accept. Sub's subtrahend must stay below
// 2^53 - 76 (a sum of at most two).

struct Fe {
  uint64_t v[5];
};

constexpr uint64_t kMask51 = (uint64_t{1} << 51) - 1;

constexpr Fe kZero = {{0, 0, 0, 0, 0}};
constexpr Fe kOne = {{1, 0, 0, 0, 0}};

// One carry step on every limb at once (no serial chain): limbs below 2^64
// come back below 2^51 + 19 * 2^13.
Fe Carry(const Fe& h) {
  return {{(h.v[0] & kMask51) + 19 * (h.v[4] >> 51),
           (h.v[1] & kMask51) + (h.v[0] >> 51),
           (h.v[2] & kMask51) + (h.v[1] >> 51),
           (h.v[3] & kMask51) + (h.v[2] >> 51),
           (h.v[4] & kMask51) + (h.v[3] >> 51)}};
}

Fe Add(const Fe& f, const Fe& g) {
  return {{f.v[0] + g.v[0], f.v[1] + g.v[1], f.v[2] + g.v[2], f.v[3] + g.v[3],
           f.v[4] + g.v[4]}};
}

// f + 4p - g, so no limb goes negative.
Fe Sub(const Fe& f, const Fe& g) {
  constexpr uint64_t k4p0 = 4 * (kMask51 - 18);
  constexpr uint64_t k4p = 4 * kMask51;
  return Carry({{f.v[0] + k4p0 - g.v[0], f.v[1] + k4p - g.v[1],
                 f.v[2] + k4p - g.v[2], f.v[3] + k4p - g.v[3],
                 f.v[4] + k4p - g.v[4]}});
}

Fe Neg(const Fe& f) { return Sub(kZero, f); }

// Folds five 128-bit column sums into 51-bit limbs (2^255 = 19 mod p).
inline Fe CarryWide(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4) {
  Fe h{};
  r1 += static_cast<uint64_t>(r0 >> 51);
  h.v[0] = static_cast<uint64_t>(r0) & kMask51;
  r2 += static_cast<uint64_t>(r1 >> 51);
  h.v[1] = static_cast<uint64_t>(r1) & kMask51;
  r3 += static_cast<uint64_t>(r2 >> 51);
  h.v[2] = static_cast<uint64_t>(r2) & kMask51;
  r4 += static_cast<uint64_t>(r3 >> 51);
  h.v[3] = static_cast<uint64_t>(r3) & kMask51;
  h.v[0] += 19 * static_cast<uint64_t>(r4 >> 51);
  h.v[4] = static_cast<uint64_t>(r4) & kMask51;
  h.v[1] += h.v[0] >> 51;
  h.v[0] &= kMask51;
  return h;
}

Fe Mul(const Fe& f, const Fe& g) {
  const uint64_t f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3],
                 f4 = f.v[4];
  const uint64_t g0 = g.v[0], g1 = g.v[1], g2 = g.v[2], g3 = g.v[3],
                 g4 = g.v[4];
  const uint64_t g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3,
                 g4_19 = 19 * g4;
  auto m = [](uint64_t a, uint64_t b) { return static_cast<u128>(a) * b; };
  return CarryWide(
      m(f0, g0) + m(f1, g4_19) + m(f2, g3_19) + m(f3, g2_19) + m(f4, g1_19),
      m(f0, g1) + m(f1, g0) + m(f2, g4_19) + m(f3, g3_19) + m(f4, g2_19),
      m(f0, g2) + m(f1, g1) + m(f2, g0) + m(f3, g4_19) + m(f4, g3_19),
      m(f0, g3) + m(f1, g2) + m(f2, g1) + m(f3, g0) + m(f4, g4_19),
      m(f0, g4) + m(f1, g3) + m(f2, g2) + m(f3, g1) + m(f4, g0));
}

Fe Sqr(const Fe& f) {
  const uint64_t f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3],
                 f4 = f.v[4];
  const uint64_t d0 = 2 * f0, d1 = 2 * f1, d2 = 2 * f2;
  const uint64_t f3_19 = 19 * f3, f4_19 = 19 * f4;
  auto m = [](uint64_t a, uint64_t b) { return static_cast<u128>(a) * b; };
  return CarryWide(m(f0, f0) + m(d1, f4_19) + m(d2, f3_19),
                   m(d0, f1) + m(d2, f4_19) + m(f3, f3_19),
                   m(d0, f2) + m(f1, f1) + m(2 * f3, f4_19),
                   m(d0, f3) + m(d1, f2) + m(f4, f4_19),
                   m(d0, f4) + m(d1, f3) + m(f2, f2));
}

Fe SqrN(Fe f, int n) {
  for (int i = 0; i < n; ++i) f = Sqr(f);
  return f;
}

Fe MulSmall(const Fe& f, uint32_t k) {
  auto m = [k](uint64_t a) { return static_cast<u128>(a) * k; };
  return CarryWide(m(f.v[0]), m(f.v[1]), m(f.v[2]), m(f.v[3]), m(f.v[4]));
}

// z^(2^250 - 1), the shared prefix of both exponent chains; *z11 = z^11.
Fe Pow22501(const Fe& z, Fe* z11) {
  const Fe z2 = Sqr(z);
  const Fe z9 = Mul(SqrN(z2, 2), z);
  *z11 = Mul(z9, z2);
  const Fe z2_5_0 = Mul(Sqr(*z11), z9);
  const Fe z2_10_0 = Mul(SqrN(z2_5_0, 5), z2_5_0);
  const Fe z2_20_0 = Mul(SqrN(z2_10_0, 10), z2_10_0);
  const Fe z2_40_0 = Mul(SqrN(z2_20_0, 20), z2_20_0);
  const Fe z2_50_0 = Mul(SqrN(z2_40_0, 10), z2_10_0);
  const Fe z2_100_0 = Mul(SqrN(z2_50_0, 50), z2_50_0);
  const Fe z2_200_0 = Mul(SqrN(z2_100_0, 100), z2_100_0);
  return Mul(SqrN(z2_200_0, 50), z2_50_0);
}

// z^(p - 2) = z^(2^255 - 21); maps 0 to 0.
Fe Invert(const Fe& z) {
  Fe z11 = kZero;
  const Fe t = Pow22501(z, &z11);
  return Mul(SqrN(t, 5), z11);
}

// z^((p - 5) / 8) = z^(2^252 - 3), the square-root exponent.
Fe Pow2523(const Fe& z) {
  Fe z11 = kZero;
  const Fe t = Pow22501(z, &z11);
  return Mul(SqrN(t, 2), z);
}

// Reads 255 bits (bit 255 is ignored); the value may be >= p.
Fe FromBytes(const uint8_t* s) {
  return {{GetU64(s) & kMask51, (GetU64(s + 6) >> 3) & kMask51,
           (GetU64(s + 12) >> 6) & kMask51, (GetU64(s + 19) >> 1) & kMask51,
           (GetU64(s + 24) >> 12) & kMask51}};
}

// Writes the canonical (fully reduced) encoding.
void ToBytes(uint8_t* out, const Fe& f) {
  Fe h = Carry(Carry(f));
  // q = 1 iff h >= p, found from the carry out of h + 19.
  uint64_t q = (h.v[0] + 19) >> 51;
  for (int i = 1; i < 5; ++i) q = (h.v[i] + q) >> 51;
  h.v[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    h.v[i + 1] += h.v[i] >> 51;
    h.v[i] &= kMask51;
  }
  h.v[4] &= kMask51;
  const uint64_t w[4] = {h.v[0] | (h.v[1] << 51), (h.v[1] >> 13) | (h.v[2] << 38),
                         (h.v[2] >> 26) | (h.v[3] << 25),
                         (h.v[3] >> 39) | (h.v[4] << 12)};
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<uint8_t>(w[i / 8] >> (8 * (i % 8)));
  }
}

bool IsNegative(const Fe& f) {
  uint8_t s[32];
  ToBytes(s, f);
  return (s[0] & 1) != 0;
}

bool Equal(const Fe& f, const Fe& g) {
  uint8_t a[32], b[32];
  ToBytes(a, f);
  ToBytes(b, g);
  return ConstantTimeEqual(a, b, 32);
}

// mask is all-ones or zero.
void CMov(Fe* f, const Fe& g, uint64_t mask) {
  for (int i = 0; i < 5; ++i) f->v[i] ^= mask & (f->v[i] ^ g.v[i]);
}

void CSwap(Fe* f, Fe* g, uint64_t mask) {
  for (int i = 0; i < 5; ++i) {
    const uint64_t t = mask & (f->v[i] ^ g->v[i]);
    f->v[i] ^= t;
    g->v[i] ^= t;
  }
}

// ---- Edwards points: -x^2 + y^2 = 1 + d x^2 y^2 ----

struct P3 {  // extended: x = X/Z, y = Y/Z, xy = T/Z
  Fe x, y, z, t;
};
struct Precomp {  // affine table entry
  Fe yplusx, yminusx, xy2d;
};
struct Cached {  // an addend in extended coordinates
  Fe yplusx, yminusx, z, t2d;
};

constexpr P3 kIdentity = {kZero, kOne, kOne, kZero};

// The products that finish an addition or a doubling, in the
// add-2008-hwcd names: X = EF, Y = GH, Z = FG, T = EH.
P3 Complete(const Fe& e, const Fe& f, const Fe& g, const Fe& h) {
  return {Mul(e, f), Mul(g, h), Mul(f, g), Mul(e, h)};
}

// dbl-2008-hwcd with a = -1 and F, H negated, which negates all four
// coordinates: the same point. T is not read.
P3 Dbl(const P3& p) {
  const Fe xx = Sqr(p.x);
  const Fe yy = Sqr(p.y);
  const Fe zz = Sqr(p.z);
  const Fe aa = Sqr(Add(p.x, p.y));
  const Fe sum = Add(yy, xx);
  const Fe diff = Sub(yy, xx);
  return Complete(Sub(aa, sum), Sub(Add(zz, zz), diff), diff, sum);
}

// p + q with q affine (add-2008-hwcd-3, Z2 = 1).
P3 MAdd(const P3& p, const Precomp& q) {
  const Fe a = Mul(Sub(p.y, p.x), q.yminusx);
  const Fe b = Mul(Add(p.y, p.x), q.yplusx);
  const Fe c = Mul(q.xy2d, p.t);
  const Fe d = Add(p.z, p.z);
  return Complete(Sub(b, a), Sub(d, c), Add(d, c), Add(b, a));
}

P3 AddCached(const P3& p, const Cached& q) {
  const Fe a = Mul(Sub(p.y, p.x), q.yminusx);
  const Fe b = Mul(Add(p.y, p.x), q.yplusx);
  const Fe c = Mul(q.t2d, p.t);
  const Fe zz = Mul(p.z, q.z);
  const Fe d = Add(zz, zz);
  return Complete(Sub(b, a), Sub(d, c), Add(d, c), Add(b, a));
}

P3 Dbl4(P3 p) {
  for (int i = 0; i < 4; ++i) p = Dbl(p);
  return p;
}

void Pack(uint8_t* out, const P3& p) {
  const Fe zi = Invert(p.z);
  ToBytes(out, Mul(p.y, zi));
  out[31] ^= static_cast<uint8_t>(IsNegative(Mul(p.x, zi)) << 7);
}

// ---- Curve constants and the fixed-base table, built once ----

struct Curve {
  Fe d, d2, sqrtm1;
  Precomp base[32][8];  // base[i][j] = (j + 1) * 256^i * B
};

Cached ToCached(const P3& p, const Fe& d2) {
  return {Add(p.y, p.x), Sub(p.y, p.x), p.z, Mul(p.t, d2)};
}

Cached NegCached(const Cached& c) {
  return {c.yminusx, c.yplusx, c.z, Neg(c.t2d)};
}

// Decodes a point (RFC 8032 §5.1.3, variable-time) using curve constants
// d and sqrt(-1). Returns false when y >= p, when y has no matching x,
// and when x = 0 comes with the sign bit set.
bool Decompress(P3* p, const uint8_t* s, const Fe& d, const Fe& sqrtm1) {
  p->y = FromBytes(s);
  uint8_t canonical[32];
  ToBytes(canonical, p->y);
  canonical[31] |= s[31] & 0x80;
  if (std::memcmp(canonical, s, 32) != 0) return false;
  p->z = kOne;
  const Fe yy = Sqr(p->y);
  const Fe u = Sub(yy, kOne);          // y^2 - 1
  const Fe v = Add(Mul(yy, d), kOne);  // d y^2 + 1
  const Fe v3 = Mul(Sqr(v), v);
  // x = u v^3 (u v^7)^((p-5)/8)
  Fe x = Mul(Mul(u, v3), Pow2523(Mul(u, Mul(Sqr(v3), v))));
  const Fe vxx = Mul(Sqr(x), v);
  if (!Equal(vxx, u)) {
    if (!Equal(vxx, Neg(u))) return false;
    x = Mul(x, sqrtm1);
  }
  const bool sign = (s[31] >> 7) != 0;
  if (sign && Equal(x, kZero)) return false;
  if (IsNegative(x) != sign) x = Neg(x);
  p->x = x;
  p->t = Mul(x, p->y);
  return true;
}

Precomp ToPrecomp(const P3& p, const Fe& d2) {
  const Fe zi = Invert(p.z);
  const Fe x = Mul(p.x, zi);
  const Fe y = Mul(p.y, zi);
  return {Add(y, x), Sub(y, x), Mul(Mul(x, y), d2)};
}

Curve MakeCurve() {
  Curve c{};
  c.d = Neg(Mul(Fe{{121665}}, Invert(Fe{{121666}})));  // -121665/121666
  c.d2 = Add(c.d, c.d);
  const Fe two = {{2}};
  c.sqrtm1 = Mul(Sqr(Pow2523(two)), two);  // 2^((p-1)/4)
  uint8_t b_enc[32];  // B: y = 4/5, x even
  std::memset(b_enc, 0x66, sizeof b_enc);
  b_enc[0] = 0x58;
  P3 row = kIdentity;
  (void)Decompress(&row, b_enc, c.d, c.sqrtm1);
  for (auto& entries : c.base) {
    const Cached step = ToCached(row, c.d2);
    P3 acc = row;
    for (int j = 0; j < 8; ++j) {
      entries[j] = ToPrecomp(acc, c.d2);
      acc = AddCached(acc, step);
    }
    for (int k = 0; k < 2; ++k) row = Dbl4(row);
  }
  return c;
}

const Curve& Constants() {
  static const Curve curve = MakeCurve();
  return curve;
}

// Signed radix-16 digits e[0..63] in [-8, 8] with a = sum e[i] 16^i.
// Requires a < 2^255 (bit 255 clear).
void Recode(int e[64], const uint8_t* a) {
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = a[i] & 15;
    e[2 * i + 1] = a[i] >> 4;
  }
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] += carry;
    carry = (e[i] + 8) >> 4;
    e[i] -= carry * 16;
  }
  e[63] += carry;
}

// |b| * row[0] negated when b < 0, the identity when b == 0; reads every
// entry and selects with masks.
Precomp Select(const Precomp row[8], int b) {
  const uint32_t negative = static_cast<uint32_t>(b) >> 31;
  const uint32_t babs = (static_cast<uint32_t>(b) ^ (0u - negative)) + negative;
  Precomp t = {kOne, kOne, kZero};
  for (uint32_t j = 0; j < 8; ++j) {
    const uint64_t eq = 0 - ((static_cast<uint64_t>(babs ^ (j + 1)) - 1) >> 63);
    CMov(&t.yplusx, row[j].yplusx, eq);
    CMov(&t.yminusx, row[j].yminusx, eq);
    CMov(&t.xy2d, row[j].xy2d, eq);
  }
  const uint64_t neg_mask = 0 - static_cast<uint64_t>(negative);
  CSwap(&t.yplusx, &t.yminusx, neg_mask);
  CMov(&t.xy2d, Neg(t.xy2d), neg_mask);
  return t;
}

// [a]B in constant time; a < 2^255.
P3 ScalarMultBase(const uint8_t* a) {
  const Curve& c = Constants();
  int e[64];
  Recode(e, a);
  P3 h = kIdentity;
  for (int i = 1; i < 64; i += 2) h = MAdd(h, Select(c.base[i / 2], e[i]));
  h = Dbl4(h);
  for (int i = 0; i < 64; i += 2) h = MAdd(h, Select(c.base[i / 2], e[i]));
  return h;
}

// [a]P, variable-time: for public scalars only. a < 2^255.
P3 ScalarMultVartime(const P3& p, const uint8_t* a) {
  const Fe& d2 = Constants().d2;
  Cached multiples[8];  // multiples[j] = (j + 1) P
  multiples[0] = ToCached(p, d2);
  P3 acc = p;
  for (int j = 1; j < 8; ++j) {
    acc = AddCached(acc, multiples[0]);
    multiples[j] = ToCached(acc, d2);
  }
  int e[64];
  Recode(e, a);
  P3 h = kIdentity;
  for (int i = 63; i >= 0; --i) {
    h = Dbl4(h);
    if (e[i] > 0) h = AddCached(h, multiples[e[i] - 1]);
    if (e[i] < 0) h = AddCached(h, NegCached(multiples[-e[i] - 1]));
  }
  return h;
}

// ---- Scalar arithmetic mod the group order L ----

const uint64_t kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                         0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                         0,    0,    0,    0,    0,    0,    0,    0,
                         0,    0,    0,    0,    0,    0,    0,    0x10};

void ModL(uint8_t* r, i64 x[64]) {
  i64 carry;
  for (int i = 63; i >= 32; --i) {
    carry = 0;
    int j;
    for (j = i - 32; j < i - 12; ++j) {
      x[j] += carry - 16 * x[i] * static_cast<i64>(kL[j - (i - 32)]);
      carry = (x[j] + 128) >> 8;
      x[j] -= carry << 8;
    }
    x[j] += carry;
    x[i] = 0;
  }
  carry = 0;
  for (int j = 0; j < 32; ++j) {
    x[j] += carry - (x[31] >> 4) * static_cast<i64>(kL[j]);
    carry = x[j] >> 8;
    x[j] &= 255;
  }
  for (int j = 0; j < 32; ++j) x[j] -= carry * static_cast<i64>(kL[j]);
  for (int i = 0; i < 32; ++i) {
    x[i + 1] += x[i] >> 8;
    r[i] = static_cast<uint8_t>(x[i] & 255);
  }
}

void Reduce(uint8_t* r) {
  i64 x[64];
  for (int i = 0; i < 64; ++i) x[i] = r[i];
  for (int i = 0; i < 64; ++i) r[i] = 0;
  ModL(r, x);
}

// RFC 8032 §5.1.7: S must be below L (variable-time; S is public).
bool IsCanonicalScalar(const uint8_t* s) {
  for (int i = 31; i >= 0; --i) {
    if (s[i] != kL[i]) return s[i] < kL[i];
  }
  return false;
}

Bytes HashConcat(const uint8_t* a, size_t alen, const Bytes& b) {
  Sha512 h;
  h.Update(a, alen);
  h.Update(b);
  return h.Final();
}

void Clamp(uint8_t* k) {
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;
}

}  // namespace

Result<Ed25519KeyPair> Ed25519KeyPairFromSeed(const Bytes& seed) {
  if (seed.size() != 32) {
    return Status::InvalidArgument("Ed25519 seed must be 32 bytes");
  }
  Bytes d = Sha512::Hash(seed);
  Clamp(d.data());

  Bytes pk(32);
  Pack(pk.data(), ScalarMultBase(d.data()));

  Ed25519KeyPair kp;
  kp.public_key = pk;
  kp.private_key = seed;
  Append(&kp.private_key, pk);
  return kp;
}

Result<Bytes> Ed25519Sign(const Bytes& private_key, const Bytes& message) {
  if (private_key.size() != 64) {
    return Status::InvalidArgument("Ed25519 private key must be 64 bytes");
  }
  Bytes d = Sha512::Hash(Bytes(private_key.begin(), private_key.begin() + 32));
  Clamp(d.data());

  // r = H(prefix || message) mod L
  Bytes r = HashConcat(d.data() + 32, 32, message);
  Reduce(r.data());

  Bytes sig(64);
  Pack(sig.data(), ScalarMultBase(r.data()));

  // h = H(R || A || message) mod L
  Sha512 hh;
  hh.Update(sig.data(), 32);
  hh.Update(private_key.data() + 32, 32);
  hh.Update(message);
  Bytes h = hh.Final();
  Reduce(h.data());

  // S = r + h * a mod L
  i64 x[64];
  for (int i = 0; i < 64; ++i) x[i] = 0;
  for (int i = 0; i < 32; ++i) x[i] = r[i];
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      x[i + j] += static_cast<i64>(h[i]) * static_cast<i64>(d[j]);
    }
  }
  ModL(sig.data() + 32, x);
  return sig;
}

bool Ed25519Verify(const Bytes& public_key, const Bytes& message,
                   const Bytes& signature) {
  if (public_key.size() != 32 || signature.size() != 64) return false;
  if (!IsCanonicalScalar(signature.data() + 32)) return false;

  const Curve& c = Constants();
  P3 a = kIdentity;
  if (!Decompress(&a, public_key.data(), c.d, c.sqrtm1)) return false;
  // A small-order key ([8]A = identity: x = 0, y = z) verifies forged
  // signatures, as libsodium also holds; no key made from a seed has one.
  const P3 a8 = Dbl(Dbl(Dbl(a)));
  if (Equal(a8.x, kZero) && Equal(a8.y, a8.z)) return false;
  a.x = Neg(a.x);
  a.t = Neg(a.t);

  Sha512 hh;
  hh.Update(signature.data(), 32);
  hh.Update(public_key);
  hh.Update(message);
  Bytes h = hh.Final();
  Reduce(h.data());

  // R' = [h](-A) + [S]B must encode to R.
  const P3 sb = ScalarMultBase(signature.data() + 32);
  const P3 r = AddCached(ScalarMultVartime(a, h.data()), ToCached(sb, c.d2));
  uint8_t t[32];
  Pack(t, r);
  return std::memcmp(signature.data(), t, 32) == 0;
}

Result<Bytes> X25519(const Bytes& scalar, const Bytes& point) {
  if (scalar.size() != 32 || point.size() != 32) {
    return Status::InvalidArgument("X25519 inputs must be 32 bytes");
  }
  uint8_t k[32];
  std::memcpy(k, scalar.data(), 32);
  Clamp(k);

  // RFC 7748 §5 Montgomery ladder; a24 = (A - 2) / 4 = 121665.
  const Fe x1 = FromBytes(point.data());
  Fe x2 = kOne, z2 = kZero, x3 = x1, z3 = kOne;
  uint64_t swap = 0;
  for (int t = 254; t >= 0; --t) {
    const uint64_t bit = (k[t >> 3] >> (t & 7)) & 1;
    swap ^= bit;
    CSwap(&x2, &x3, 0 - swap);
    CSwap(&z2, &z3, 0 - swap);
    swap = bit;
    const Fe a = Add(x2, z2);
    const Fe aa = Sqr(a);
    const Fe b = Sub(x2, z2);
    const Fe bb = Sqr(b);
    const Fe e = Sub(aa, bb);
    const Fe da = Mul(Sub(x3, z3), a);
    const Fe cb = Mul(Add(x3, z3), b);
    x3 = Sqr(Add(da, cb));
    z3 = Mul(x1, Sqr(Sub(da, cb)));
    x2 = Mul(aa, bb);
    z2 = Mul(e, Add(aa, MulSmall(e, 121665)));
  }
  CSwap(&x2, &x3, 0 - swap);
  CSwap(&z2, &z3, 0 - swap);
  Bytes out(32);
  ToBytes(out.data(), Mul(x2, Invert(z2)));
  return out;
}

Result<Bytes> X25519Base(const Bytes& scalar) {
  if (scalar.size() != 32) {
    return Status::InvalidArgument("X25519 inputs must be 32 bytes");
  }
  uint8_t k[32];
  std::memcpy(k, scalar.data(), 32);
  Clamp(k);
  // The Edwards point [k]B maps to the Montgomery u = (1 + y) / (1 - y).
  const P3 p = ScalarMultBase(k);
  Bytes out(32);
  ToBytes(out.data(), Mul(Add(p.z, p.y), Invert(Sub(p.z, p.y))));
  return out;
}

}  // namespace ironsafe::crypto
