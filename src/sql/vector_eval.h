#ifndef IRONSAFE_SQL_VECTOR_EVAL_H_
#define IRONSAFE_SQL_VECTOR_EVAL_H_

#include <vector>

#include "sql/column_batch.h"
#include "sql/eval.h"
#include "sql/vector_kernels.h"

namespace ironsafe::sql {

/// Result of evaluating one expression over the active rows of a batch:
/// a dense typed array when the expression hit a kernel fast path, or
/// boxed values from the scalar fallback. Indexed by selection position
/// (0..n over sel), not by batch row.
struct VecCol {
  enum class Kind { kI64, kF64, kDate, kGeneric };
  Kind kind = Kind::kGeneric;
  /// kI64/kDate payloads, or kF64 IEEE-754 bit patterns.
  std::vector<int64_t> nums;
  std::vector<Value> vals;  ///< kGeneric only

  size_t size() const {
    return kind == Kind::kGeneric ? vals.size() : nums.size();
  }
  /// Boxes the value at selection position `i`.
  Value Get(size_t i) const {
    switch (kind) {
      case Kind::kI64:
        return Value::Int(nums[i]);
      case Kind::kF64:
        return Value::Double(vec::F64FromBits(nums[i]));
      case Kind::kDate:
        return Value::Date(nums[i]);
      case Kind::kGeneric:
        return vals[i];
    }
    return Value::Null();
  }
};

/// Appends the executor's normalized grouping/join key encoding of `v`:
/// numerics (except dates) collapse to the double bit pattern so INT 3
/// and DOUBLE 3.0 group/join together; everything else uses
/// Value::Serialize. KeyOf and AppendNormalizedKey both encode with it,
/// once per key value, so it is inline.
inline void AppendKey(const Value& v, Bytes* key) {
  if (v.IsNumeric() && v.type() != Type::kDate) {
    vec::AppendKeyF64(key, v.AsDouble());
  } else {
    v.Serialize(key);
  }
}

/// AppendKey of the value at selection position `i` of `c`, without
/// boxing typed columns — byte-identical to KeyOf, so the plain hash
/// join and the oblivious sort-merge join agree on keys.
void AppendNormalizedKey(const VecCol& c, size_t i, Bytes* key);

/// AppendKey of the cell at (column `c`, row `r`) of `batch`, without
/// boxing it: what DISTINCT compares output rows by.
void AppendCellKey(const ColumnBatch& batch, size_t c, size_t r, Bytes* key);

/// Batch-at-a-time expression evaluation. Predicates with a proven
/// uniform-typed shape (non-null single-type column vs literal) run as
/// tight kernels over the raw payload arrays; everything else falls back
/// to the scalar Evaluator row by row against a scratch row, so results
/// and error behaviour match the scalar Evaluator exactly. The fallback is
/// what makes the fast paths safe to grow incrementally.
class VectorEvaluator {
 public:
  /// `fallback` must outlive this object; `outer` is the correlation
  /// scope (as in EvalScope).
  VectorEvaluator(const Evaluator* fallback, const Schema* schema,
                  const EvalScope* outer)
      : eval_(fallback), schema_(schema), outer_(outer) {}

  /// Narrows `sel` to the rows of `batch` passing `pred`.
  Status Filter(const Expr& pred, const ColumnBatch& batch, SelVec* sel);

  /// Evaluates `e` at every active row; `out` is indexed by selection
  /// position.
  Status Eval(const Expr& e, const ColumnBatch& batch, const SelVec& sel,
              VecCol* out);

 private:
  /// Returns true when the predicate ran as a kernel (sel narrowed).
  Result<bool> TryFilterFast(const Expr& pred, const ColumnBatch& batch,
                             SelVec* sel);
  /// Single column-vs-literal comparison; `flip` mirrors the operator
  /// when the literal was on the left.
  Result<bool> TryFilterCmp(const Expr& col_e, vec::CmpOp op,
                            const Value& lit, const ColumnBatch& batch,
                            SelVec* sel);
  Status FilterFallback(const Expr& pred, const ColumnBatch& batch,
                        SelVec* sel);
  Result<bool> TryEvalFast(const Expr& e, const ColumnBatch& batch,
                           const SelVec& sel, VecCol* out);
  Status EvalFallback(const Expr& e, const ColumnBatch& batch,
                      const SelVec& sel, VecCol* out);

  /// Schema index of a plain column reference usable by kernels, or -1
  /// (unknown / ambiguous / outer-scope names take the fallback, which
  /// reproduces the scalar resolution rules including its errors).
  int FastColumn(const Expr& e) const;

  const Evaluator* eval_;
  const Schema* schema_;
  const EvalScope* outer_;
  Row scratch_;
  SelVec iota_;  ///< identity selection for positional kernel calls
};

}  // namespace ironsafe::sql

#endif  // IRONSAFE_SQL_VECTOR_EVAL_H_
