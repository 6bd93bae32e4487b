#include "sql/vector_eval.h"

#include <algorithm>

namespace ironsafe::sql {

namespace {

vec::CmpOp FlipCmp(vec::CmpOp op) {
  switch (op) {
    case vec::CmpOp::kLt:
      return vec::CmpOp::kGt;
    case vec::CmpOp::kLe:
      return vec::CmpOp::kGe;
    case vec::CmpOp::kGt:
      return vec::CmpOp::kLt;
    case vec::CmpOp::kGe:
      return vec::CmpOp::kLe;
    default:
      return op;
  }
}

bool CmpOpOf(BinOp op, vec::CmpOp* out) {
  switch (op) {
    case BinOp::kEq:
      *out = vec::CmpOp::kEq;
      return true;
    case BinOp::kNe:
      *out = vec::CmpOp::kNe;
      return true;
    case BinOp::kLt:
      *out = vec::CmpOp::kLt;
      return true;
    case BinOp::kLe:
      *out = vec::CmpOp::kLe;
      return true;
    case BinOp::kGt:
      *out = vec::CmpOp::kGt;
      return true;
    case BinOp::kGe:
      *out = vec::CmpOp::kGe;
      return true;
    default:
      return false;
  }
}

bool IsIntLike(Type t) { return t == Type::kInt64 || t == Type::kDate; }

}  // namespace

void AppendNormalizedKey(const VecCol& c, size_t i, Bytes* key) {
  switch (c.kind) {
    case VecCol::Kind::kI64:
      vec::AppendKeyI64(key, c.nums[i]);
      return;
    case VecCol::Kind::kF64:
      vec::AppendKeyF64(key, vec::F64FromBits(c.nums[i]));
      return;
    case VecCol::Kind::kDate:
      vec::AppendKeyDate(key, c.nums[i]);
      return;
    case VecCol::Kind::kGeneric:
      AppendKey(c.vals[i], key);
      return;
  }
}

void AppendCellKey(const ColumnBatch& batch, size_t c, size_t r, Bytes* key) {
  const ColumnBatch::Col& col = batch.col(c);
  const uint8_t tag = col.tags[r];
  switch (static_cast<Type>(tag)) {
    case Type::kInt64:
      vec::AppendKeyI64(key, col.nums[r]);
      return;
    case Type::kDouble:
      vec::AppendKeyF64(key, vec::F64FromBits(col.nums[r]));
      return;
    default: {  // the serialized cell, as Value::Serialize writes it
      const std::string_view str =
          col.has_string ? std::string_view(col.strs[r]) : std::string_view();
      const size_t at = key->size();
      key->resize(at + CellBytes(tag, str.size()));
      WriteCell(key->data() + at, tag, col.nums[r], str);
      return;
    }
  }
}

int VectorEvaluator::FastColumn(const Expr& e) const {
  if (e.kind != ExprKind::kColumn) return -1;
  int idx = schema_->Find(e.column_name);
  return idx >= 0 ? idx : -1;
}

Status VectorEvaluator::Filter(const Expr& pred, const ColumnBatch& batch,
                               SelVec* sel) {
  if (sel->empty()) return Status::OK();
  ASSIGN_OR_RETURN(bool fast, TryFilterFast(pred, batch, sel));
  if (fast) return Status::OK();
  return FilterFallback(pred, batch, sel);
}

Result<bool> VectorEvaluator::TryFilterCmp(const Expr& col_e, vec::CmpOp op,
                                           const Value& lit,
                                           const ColumnBatch& batch,
                                           SelVec* sel) {
  int idx = FastColumn(col_e);
  if (idx < 0) return false;
  const ColumnBatch::Col& c = batch.col(idx);
  if (!c.uniform() || c.has_null) return false;
  if (lit.is_null()) {
    // Comparison with NULL is false for every row.
    sel->clear();
    return true;
  }
  auto tag = static_cast<Type>(c.first_tag());
  size_t n = sel->size();
  if (tag == Type::kString && lit.type() == Type::kString) {
    n = vec::FilterStr(c.strs.data(), op, lit.AsString(), sel->data(), n);
  } else if (IsIntLike(tag) && IsIntLike(lit.type())) {
    n = vec::FilterI64(c.nums.data(), op, lit.AsInt(), sel->data(), n);
  } else if (IsIntLike(tag) && lit.type() == Type::kDouble) {
    n = vec::FilterI64AsF64(c.nums.data(), op, lit.AsDouble(), sel->data(), n);
  } else if (tag == Type::kDouble && lit.IsNumeric() &&
             lit.type() != Type::kDate) {
    n = vec::FilterF64(c.nums.data(), op, lit.AsDouble(), sel->data(), n);
  } else {
    // Cross-type string/number/bool comparisons take the scalar path.
    return false;
  }
  sel->resize(n);
  return true;
}

Result<bool> VectorEvaluator::TryFilterFast(const Expr& pred,
                                            const ColumnBatch& batch,
                                            SelVec* sel) {
  switch (pred.kind) {
    case ExprKind::kBinary: {
      if (pred.bin_op == BinOp::kAnd) {
        RETURN_IF_ERROR(Filter(*pred.left, batch, sel));
        RETURN_IF_ERROR(Filter(*pred.right, batch, sel));
        return true;
      }
      vec::CmpOp op;
      if (!CmpOpOf(pred.bin_op, &op)) return false;
      if (pred.left->kind == ExprKind::kColumn &&
          pred.right->kind == ExprKind::kLiteral) {
        return TryFilterCmp(*pred.left, op, pred.right->literal, batch, sel);
      }
      if (pred.left->kind == ExprKind::kLiteral &&
          pred.right->kind == ExprKind::kColumn) {
        return TryFilterCmp(*pred.right, FlipCmp(op), pred.left->literal,
                            batch, sel);
      }
      return false;
    }
    case ExprKind::kBetween: {
      if (pred.args.size() != 2 ||
          pred.args[0]->kind != ExprKind::kLiteral ||
          pred.args[1]->kind != ExprKind::kLiteral) {
        return false;
      }
      int idx = FastColumn(*pred.left);
      if (idx < 0) return false;
      const ColumnBatch::Col& c = batch.col(idx);
      if (!c.uniform() || c.has_null) return false;
      const Value& lo = pred.args[0]->literal;
      const Value& hi = pred.args[1]->literal;
      if (lo.is_null() || hi.is_null()) {
        sel->clear();
        return true;
      }
      auto tag = static_cast<Type>(c.first_tag());
      size_t n = sel->size();
      if (IsIntLike(tag) && IsIntLike(lo.type()) && IsIntLike(hi.type())) {
        n = vec::FilterBetweenI64(c.nums.data(), lo.AsInt(), hi.AsInt(),
                                  sel->data(), n);
      } else if (tag == Type::kDouble && lo.IsNumeric() && hi.IsNumeric() &&
                 lo.type() != Type::kDate && hi.type() != Type::kDate) {
        n = vec::FilterBetweenF64(c.nums.data(), lo.AsDouble(), hi.AsDouble(),
                                  sel->data(), n);
      } else {
        // Mixed int/double bounds: run as two comparison kernels.
        ASSIGN_OR_RETURN(
            bool ok1, TryFilterCmp(*pred.left, vec::CmpOp::kGe, lo, batch, sel));
        if (!ok1) return false;
        ASSIGN_OR_RETURN(
            bool ok2, TryFilterCmp(*pred.left, vec::CmpOp::kLe, hi, batch, sel));
        return ok2;
      }
      sel->resize(n);
      return true;
    }
    case ExprKind::kLike: {
      if (pred.args.empty() || pred.args[0]->kind != ExprKind::kLiteral ||
          pred.args[0]->literal.type() != Type::kString) {
        return false;
      }
      int idx = FastColumn(*pred.left);
      if (idx < 0) return false;
      const ColumnBatch::Col& c = batch.col(idx);
      if (!c.UniformTag(static_cast<uint8_t>(Type::kString))) return false;
      const std::string& pat = pred.args[0]->literal.AsString();
      size_t out = 0;
      for (uint32_t i : *sel) {
        bool m = LikeMatch(c.strs[i], pat);
        if (pred.negated ? !m : m) (*sel)[out++] = i;
      }
      sel->resize(out);
      return true;
    }
    case ExprKind::kIsNull: {
      int idx = FastColumn(*pred.left);
      if (idx < 0) return false;
      const ColumnBatch::Col& c = batch.col(idx);
      if (!c.has_null) {
        // No row is NULL: IS NULL drops everything, IS NOT NULL keeps all.
        if (!pred.negated) sel->clear();
        return true;
      }
      size_t out = 0;
      for (uint32_t i : *sel) {
        bool is_null = c.tags[i] == static_cast<uint8_t>(Type::kNull);
        if (pred.negated ? !is_null : is_null) (*sel)[out++] = i;
      }
      sel->resize(out);
      return true;
    }
    default:
      return false;
  }
}

Status VectorEvaluator::FilterFallback(const Expr& pred,
                                       const ColumnBatch& batch,
                                       SelVec* sel) {
  size_t out = 0;
  for (uint32_t i : *sel) {
    batch.MaterializeRow(i, &scratch_);
    EvalScope scope{schema_, &scratch_, outer_};
    ASSIGN_OR_RETURN(bool keep, eval_->EvalBool(pred, scope));
    if (keep) (*sel)[out++] = i;
  }
  sel->resize(out);
  return Status::OK();
}

Status VectorEvaluator::Eval(const Expr& e, const ColumnBatch& batch,
                             const SelVec& sel, VecCol* out) {
  out->kind = VecCol::Kind::kGeneric;
  out->nums.clear();
  out->vals.clear();
  ASSIGN_OR_RETURN(bool fast, TryEvalFast(e, batch, sel, out));
  if (fast) return Status::OK();
  return EvalFallback(e, batch, sel, out);
}

Result<bool> VectorEvaluator::TryEvalFast(const Expr& e,
                                          const ColumnBatch& batch,
                                          const SelVec& sel, VecCol* out) {
  switch (e.kind) {
    case ExprKind::kLiteral: {
      const Value& v = e.literal;
      size_t n = sel.size();
      if (v.type() == Type::kInt64) {
        out->kind = VecCol::Kind::kI64;
        out->nums.assign(n, v.AsInt());
      } else if (v.type() == Type::kDouble) {
        out->kind = VecCol::Kind::kF64;
        out->nums.assign(n, vec::BitsFromF64(v.AsDouble()));
      } else if (v.type() == Type::kDate) {
        out->kind = VecCol::Kind::kDate;
        out->nums.assign(n, v.AsInt());
      } else {
        out->kind = VecCol::Kind::kGeneric;
        out->vals.assign(n, v);
      }
      return true;
    }
    case ExprKind::kColumn: {
      int idx = FastColumn(e);
      if (idx < 0) return false;
      const ColumnBatch::Col& c = batch.col(idx);
      if (c.uniform() && !c.has_null) {
        auto tag = static_cast<Type>(c.first_tag());
        if (tag == Type::kInt64 || tag == Type::kDouble ||
            tag == Type::kDate) {
          out->kind = tag == Type::kInt64   ? VecCol::Kind::kI64
                      : tag == Type::kDouble ? VecCol::Kind::kF64
                                             : VecCol::Kind::kDate;
          out->nums.reserve(sel.size());
          for (uint32_t i : sel) out->nums.push_back(c.nums[i]);
          return true;
        }
      }
      out->kind = VecCol::Kind::kGeneric;
      out->vals.reserve(sel.size());
      for (uint32_t i : sel) out->vals.push_back(batch.GetValue(idx, i));
      return true;
    }
    case ExprKind::kBinary: {
      vec::ArithOp op;
      switch (e.bin_op) {
        case BinOp::kAdd:
          op = vec::ArithOp::kAdd;
          break;
        case BinOp::kSub:
          op = vec::ArithOp::kSub;
          break;
        case BinOp::kMul:
          op = vec::ArithOp::kMul;
          break;
        default:
          return false;  // div/mod/compare/bool ops: scalar path
      }
      VecCol l, r;
      RETURN_IF_ERROR(Eval(*e.left, batch, sel, &l));
      if (l.kind == VecCol::Kind::kGeneric || l.kind == VecCol::Kind::kDate) {
        return false;
      }
      RETURN_IF_ERROR(Eval(*e.right, batch, sel, &r));
      if (r.kind == VecCol::Kind::kGeneric || r.kind == VecCol::Kind::kDate) {
        return false;
      }
      size_t n = sel.size();
      // Positional combine (children are already selection-compacted).
      if (iota_.size() < n) {
        size_t old = iota_.size();
        iota_.resize(n);
        for (size_t i = old; i < n; ++i) iota_[i] = static_cast<uint32_t>(i);
      }
      out->nums.resize(n);
      if (l.kind == VecCol::Kind::kI64 && r.kind == VecCol::Kind::kI64) {
        out->kind = VecCol::Kind::kI64;
        vec::ArithI64Cols(l.nums.data(), op, r.nums.data(), iota_.data(), n,
                          out->nums.data());
        return true;
      }
      // Promote any int side to doubles, then combine as f64.
      auto promote = [](VecCol* c) {
        if (c->kind == VecCol::Kind::kI64) {
          for (int64_t& v : c->nums) {
            v = vec::BitsFromF64(static_cast<double>(v));
          }
          c->kind = VecCol::Kind::kF64;
        }
      };
      promote(&l);
      promote(&r);
      out->kind = VecCol::Kind::kF64;
      vec::ArithF64Cols(l.nums.data(), op, r.nums.data(), iota_.data(), n,
                        out->nums.data());
      return true;
    }
    case ExprKind::kFunction: {
      if (e.func_name != "year" && e.func_name != "month" &&
          e.func_name != "day") {
        return false;
      }
      if (e.args.size() != 1) return false;
      int idx = FastColumn(*e.args[0]);
      if (idx < 0) return false;
      const ColumnBatch::Col& c = batch.col(idx);
      if (!c.UniformTag(static_cast<uint8_t>(Type::kDate))) return false;
      out->kind = VecCol::Kind::kI64;
      out->nums.reserve(sel.size());
      if (e.func_name == "year") {
        for (uint32_t i : sel) out->nums.push_back(DateYear(c.nums[i]));
      } else if (e.func_name == "month") {
        for (uint32_t i : sel) out->nums.push_back(DateMonth(c.nums[i]));
      } else {
        for (uint32_t i : sel) out->nums.push_back(DateDay(c.nums[i]));
      }
      return true;
    }
    default:
      return false;
  }
}

Status VectorEvaluator::EvalFallback(const Expr& e, const ColumnBatch& batch,
                                     const SelVec& sel, VecCol* out) {
  out->kind = VecCol::Kind::kGeneric;
  out->vals.clear();
  out->vals.reserve(sel.size());
  for (uint32_t i : sel) {
    batch.MaterializeRow(i, &scratch_);
    EvalScope scope{schema_, &scratch_, outer_};
    ASSIGN_OR_RETURN(Value v, eval_->Eval(e, scope));
    out->vals.push_back(std::move(v));
  }
  return Status::OK();
}

}  // namespace ironsafe::sql
