#ifndef IRONSAFE_SQL_VECTOR_KERNELS_H_
#define IRONSAFE_SQL_VECTOR_KERNELS_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

/// Tight loops over raw column arrays — the innermost layer of the
/// vectorized engine. Everything here works on unboxed payloads
/// (int64/double-bit/std::string arrays plus selection vectors); boxed
/// dynamically-typed cells are banned in this file by ironsafe_lint
/// (rule vector-kernel-boxing), which is what keeps the kernels
/// allocation-free on the hot path. Callers (vector_eval.cc) prove the
/// uniform-type preconditions before dispatching here.
namespace ironsafe::sql::vec {

/// Comparison operator of a filter kernel. Semantics equal the scalar
/// engine's three-way compare: integers compare as int64, any double
/// operand promotes both sides to double, strings compare bytewise.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

enum class ArithOp { kAdd, kSub, kMul };

inline double F64FromBits(int64_t bits) {
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

inline int64_t BitsFromF64(double d) {
  int64_t bits;
  std::memcpy(&bits, &d, 8);
  return bits;
}

// ---- Filter kernels ----
// Each scans the active indices sel[0..n) over the payload array,
// compacts the passing indices to the front of `sel` and returns the
// new active count. Order is preserved.

size_t FilterI64(const int64_t* vals, CmpOp op, int64_t rhs, uint32_t* sel,
                 size_t n);
/// Integer payloads compared as doubles (mixed int-column vs
/// double-constant predicates).
size_t FilterI64AsF64(const int64_t* vals, CmpOp op, double rhs,
                      uint32_t* sel, size_t n);
/// `bits` holds IEEE-754 bit patterns.
size_t FilterF64(const int64_t* bits, CmpOp op, double rhs, uint32_t* sel,
                 size_t n);
size_t FilterStr(const std::string* vals, CmpOp op, const std::string& rhs,
                 uint32_t* sel, size_t n);
/// BETWEEN lo AND hi, inclusive on both ends.
size_t FilterBetweenI64(const int64_t* vals, int64_t lo, int64_t hi,
                        uint32_t* sel, size_t n);
size_t FilterBetweenF64(const int64_t* bits, double lo, double hi,
                        uint32_t* sel, size_t n);

// ---- Arithmetic kernels (projection fast paths) ----
// dst is indexed by position (0..n), not by selection index.

void ArithI64Cols(const int64_t* a, ArithOp op, const int64_t* b,
                  const uint32_t* sel, size_t n, int64_t* dst);
void ArithF64Cols(const int64_t* a_bits, ArithOp op, const int64_t* b_bits,
                  const uint32_t* sel, size_t n, int64_t* dst_bits);

// ---- Join/group key building ----
// Byte-compatible with the scalar engine's normalized keys: numerics
// (except dates) collapse to tag 0x01 + IEEE-754 bits so 3 and 3.0
// join/group together; dates and strings keep their serialized form.

void AppendKeyF64(std::vector<uint8_t>* key, double v);
inline void AppendKeyI64(std::vector<uint8_t>* key, int64_t v) {
  AppendKeyF64(key, static_cast<double>(v));
}
void AppendKeyDate(std::vector<uint8_t>* key, int64_t days);

/// FNV-1a, used by the hash-probe microbenches and key prehashing.
uint64_t HashBytes(const uint8_t* data, size_t n);

}  // namespace ironsafe::sql::vec

#endif  // IRONSAFE_SQL_VECTOR_KERNELS_H_
