#include "sql/vector_kernels.h"

#include "common/bytes.h"

namespace ironsafe::sql::vec {

namespace {
template <typename T, typename Op>
size_t FilterImpl(const T* vals, Op pass, uint32_t* sel, size_t n) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t idx = sel[i];
    if (pass(vals[idx])) sel[out++] = idx;
  }
  return out;
}

template <typename T>
size_t FilterCmp(const T* vals, CmpOp op, const T& rhs, uint32_t* sel,
                 size_t n) {
  switch (op) {
    case CmpOp::kEq:
      return FilterImpl(vals, [&](const T& v) { return v == rhs; }, sel, n);
    case CmpOp::kNe:
      return FilterImpl(vals, [&](const T& v) { return v != rhs; }, sel, n);
    case CmpOp::kLt:
      return FilterImpl(vals, [&](const T& v) { return v < rhs; }, sel, n);
    case CmpOp::kLe:
      return FilterImpl(vals, [&](const T& v) { return v <= rhs; }, sel, n);
    case CmpOp::kGt:
      return FilterImpl(vals, [&](const T& v) { return v > rhs; }, sel, n);
    case CmpOp::kGe:
      return FilterImpl(vals, [&](const T& v) { return v >= rhs; }, sel, n);
  }
  return 0;
}
}  // namespace

size_t FilterI64(const int64_t* vals, CmpOp op, int64_t rhs, uint32_t* sel,
                 size_t n) {
  return FilterCmp(vals, op, rhs, sel, n);
}

size_t FilterI64AsF64(const int64_t* vals, CmpOp op, double rhs,
                      uint32_t* sel, size_t n) {
  switch (op) {
    case CmpOp::kEq:
      return FilterImpl(
          vals, [&](int64_t v) { return static_cast<double>(v) == rhs; }, sel,
          n);
    case CmpOp::kNe:
      return FilterImpl(
          vals, [&](int64_t v) { return static_cast<double>(v) != rhs; }, sel,
          n);
    case CmpOp::kLt:
      return FilterImpl(
          vals, [&](int64_t v) { return static_cast<double>(v) < rhs; }, sel,
          n);
    case CmpOp::kLe:
      return FilterImpl(
          vals, [&](int64_t v) { return static_cast<double>(v) <= rhs; }, sel,
          n);
    case CmpOp::kGt:
      return FilterImpl(
          vals, [&](int64_t v) { return static_cast<double>(v) > rhs; }, sel,
          n);
    case CmpOp::kGe:
      return FilterImpl(
          vals, [&](int64_t v) { return static_cast<double>(v) >= rhs; }, sel,
          n);
  }
  return 0;
}

size_t FilterF64(const int64_t* bits, CmpOp op, double rhs, uint32_t* sel,
                 size_t n) {
  switch (op) {
    case CmpOp::kEq:
      return FilterImpl(
          bits, [&](int64_t b) { return F64FromBits(b) == rhs; }, sel, n);
    case CmpOp::kNe:
      return FilterImpl(
          bits, [&](int64_t b) { return F64FromBits(b) != rhs; }, sel, n);
    case CmpOp::kLt:
      return FilterImpl(
          bits, [&](int64_t b) { return F64FromBits(b) < rhs; }, sel, n);
    case CmpOp::kLe:
      return FilterImpl(
          bits, [&](int64_t b) { return F64FromBits(b) <= rhs; }, sel, n);
    case CmpOp::kGt:
      return FilterImpl(
          bits, [&](int64_t b) { return F64FromBits(b) > rhs; }, sel, n);
    case CmpOp::kGe:
      return FilterImpl(
          bits, [&](int64_t b) { return F64FromBits(b) >= rhs; }, sel, n);
  }
  return 0;
}

size_t FilterStr(const std::string* vals, CmpOp op, const std::string& rhs,
                 uint32_t* sel, size_t n) {
  return FilterCmp(vals, op, rhs, sel, n);
}

size_t FilterBetweenI64(const int64_t* vals, int64_t lo, int64_t hi,
                        uint32_t* sel, size_t n) {
  return FilterImpl(
      vals, [&](int64_t v) { return v >= lo && v <= hi; }, sel, n);
}

size_t FilterBetweenF64(const int64_t* bits, double lo, double hi,
                        uint32_t* sel, size_t n) {
  return FilterImpl(
      bits,
      [&](int64_t b) {
        double v = F64FromBits(b);
        return v >= lo && v <= hi;
      },
      sel, n);
}

namespace {
template <typename T, typename Op>
void ArithColsImpl(const T* a, Op f, const T* b, const uint32_t* sel,
                   size_t n, T* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = f(a[sel[i]], b[sel[i]]);
}
}  // namespace

void ArithI64Cols(const int64_t* a, ArithOp op, const int64_t* b,
                  const uint32_t* sel, size_t n, int64_t* dst) {
  switch (op) {
    case ArithOp::kAdd:
      return ArithColsImpl(
          a, [](int64_t x, int64_t y) { return x + y; }, b, sel, n, dst);
    case ArithOp::kSub:
      return ArithColsImpl(
          a, [](int64_t x, int64_t y) { return x - y; }, b, sel, n, dst);
    case ArithOp::kMul:
      return ArithColsImpl(
          a, [](int64_t x, int64_t y) { return x * y; }, b, sel, n, dst);
  }
}

void ArithF64Cols(const int64_t* a_bits, ArithOp op, const int64_t* b_bits,
                  const uint32_t* sel, size_t n, int64_t* dst_bits) {
  auto run = [&](auto f) {
    for (size_t i = 0; i < n; ++i) {
      dst_bits[i] = BitsFromF64(
          f(F64FromBits(a_bits[sel[i]]), F64FromBits(b_bits[sel[i]])));
    }
  };
  switch (op) {
    case ArithOp::kAdd:
      return run([](double x, double y) { return x + y; });
    case ArithOp::kSub:
      return run([](double x, double y) { return x - y; });
    case ArithOp::kMul:
      return run([](double x, double y) { return x * y; });
  }
}

void AppendKeyF64(std::vector<uint8_t>* key, double v) {
  key->push_back(1);  // normalized-numeric tag
  // -0.0 == 0.0, so both must key (group, join, dedupe) alike.
  PutU64(key, static_cast<uint64_t>(BitsFromF64(v == 0 ? 0.0 : v)));
}

void AppendKeyDate(std::vector<uint8_t>* key, int64_t days) {
  key->push_back(5);  // serialized date tag
  PutU64(key, static_cast<uint64_t>(days));
}

uint64_t HashBytes(const uint8_t* data, size_t n) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

}  // namespace ironsafe::sql::vec
