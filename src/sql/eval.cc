#include "sql/eval.h"

#include <cmath>
#include <memory>
#include <sstream>

namespace ironsafe::sql {

std::string QueryResult::ToString(size_t max_rows) const {
  std::ostringstream os;
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i) os << " | ";
    os << schema.column(i).name;
  }
  os << "\n";
  size_t shown = 0;
  for (const Row& row : rows) {
    if (shown++ >= max_rows) {
      os << "... (" << rows.size() << " rows total)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) os << " | ";
      os << row[i].ToString();
    }
    os << "\n";
  }
  return os.str();
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative matcher with backtracking on '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

Result<Value> ResolveColumn(const std::string& name, const EvalScope& scope) {
  for (const EvalScope* s = &scope; s != nullptr; s = s->parent) {
    if (s->schema == nullptr) continue;
    int idx = s->schema->Find(name);
    if (idx == -2) {
      return Status::InvalidArgument("ambiguous column: " + name);
    }
    if (idx >= 0) return (*s->row)[idx];
  }
  return Status::InvalidArgument("unknown column: " + name);
}

/// Truth value of a non-NULL predicate result.
bool IsTruthy(const Value& v) {
  if (v.type() == Type::kBool) return v.AsBool();
  if (v.IsNumeric()) return v.AsDouble() != 0;
  return !v.AsString().empty();
}

/// A predicate result in three-valued logic: NULL is unknown.
bool IsFalse(const Value& v) { return !v.is_null() && !IsTruthy(v); }
bool IsTrue(const Value& v) { return !v.is_null() && IsTruthy(v); }

/// Set-membership key. Compare-equal values share one key (INT 3 and
/// DOUBLE 3.0, -0.0 and 0.0), mirroring Value::Compare.
std::string MembershipKey(const Value& v) {
  Bytes ser;
  if (v.IsNumeric() && v.type() != Type::kDate) {
    double d = v.AsDouble();
    Value::Double(d == 0 ? 0.0 : d).Serialize(&ser);
  } else {
    v.Serialize(&ser);
  }
  return std::string(ser.begin(), ser.end());
}

/// Kleene AND/OR of two results already known not to decide the
/// connective on their own: unknown if either side is, else `value`.
Value KleeneRest(const Value& l, const Value& r, bool value) {
  if (l.is_null() || r.is_null()) return Value::Null();
  return Value::Bool(value);
}

Result<Value> Arith(BinOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (op == BinOp::kConcat) {
    if (l.type() != Type::kString || r.type() != Type::kString) {
      return Status::InvalidArgument("|| requires strings");
    }
    return Value::String(l.AsString() + r.AsString());
  }
  if (!l.IsNumeric() || !r.IsNumeric()) {
    return Status::InvalidArgument("arithmetic on non-numeric values");
  }
  // Date semantics: date +- int -> date; date - date -> int days.
  bool l_date = l.type() == Type::kDate, r_date = r.type() == Type::kDate;
  if (l_date || r_date) {
    if (op == BinOp::kSub && l_date && r_date) {
      return Value::Int(l.AsInt() - r.AsInt());
    }
    if ((op == BinOp::kAdd || op == BinOp::kSub) && l_date && !r_date) {
      int64_t days = r.AsInt();
      return Value::Date(op == BinOp::kAdd ? l.AsInt() + days
                                           : l.AsInt() - days);
    }
    if (op == BinOp::kAdd && r_date && !l_date) {
      return Value::Date(r.AsInt() + l.AsInt());
    }
    return Status::InvalidArgument("unsupported date arithmetic");
  }
  bool both_int = l.type() == Type::kInt64 && r.type() == Type::kInt64;
  switch (op) {
    case BinOp::kAdd:
      return both_int ? Value::Int(l.AsInt() + r.AsInt())
                      : Value::Double(l.AsDouble() + r.AsDouble());
    case BinOp::kSub:
      return both_int ? Value::Int(l.AsInt() - r.AsInt())
                      : Value::Double(l.AsDouble() - r.AsDouble());
    case BinOp::kMul:
      return both_int ? Value::Int(l.AsInt() * r.AsInt())
                      : Value::Double(l.AsDouble() * r.AsDouble());
    case BinOp::kDiv: {
      double d = r.AsDouble();
      if (d == 0) return Status::InvalidArgument("division by zero");
      return Value::Double(l.AsDouble() / d);
    }
    case BinOp::kMod: {
      if (!both_int) return Status::InvalidArgument("% requires integers");
      if (r.AsInt() == 0) return Status::InvalidArgument("modulo by zero");
      return Value::Int(l.AsInt() % r.AsInt());
    }
    default:
      return Status::Internal("not an arithmetic op");
  }
}

}  // namespace

Result<bool> Evaluator::EvalBool(const Expr& e, const EvalScope& scope) const {
  ASSIGN_OR_RETURN(Value v, Eval(e, scope));
  return IsTrue(v);
}

Result<Value> Evaluator::EvalBinary(const Expr& e,
                                    const EvalScope& scope) const {
  // Kleene logic; a definite false (AND) or true (OR) short-circuits.
  if (e.bin_op == BinOp::kAnd) {
    ASSIGN_OR_RETURN(Value l, Eval(*e.left, scope));
    if (IsFalse(l)) return Value::Bool(false);
    ASSIGN_OR_RETURN(Value r, Eval(*e.right, scope));
    if (IsFalse(r)) return Value::Bool(false);
    return KleeneRest(l, r, true);
  }
  if (e.bin_op == BinOp::kOr) {
    ASSIGN_OR_RETURN(Value l, Eval(*e.left, scope));
    if (IsTrue(l)) return Value::Bool(true);
    ASSIGN_OR_RETURN(Value r, Eval(*e.right, scope));
    if (IsTrue(r)) return Value::Bool(true);
    return KleeneRest(l, r, false);
  }

  ASSIGN_OR_RETURN(Value l, Eval(*e.left, scope));
  ASSIGN_OR_RETURN(Value r, Eval(*e.right, scope));

  switch (e.bin_op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      if (l.is_null() || r.is_null()) return Value::Null();
      int c = l.Compare(r);
      switch (e.bin_op) {
        case BinOp::kEq: return Value::Bool(c == 0);
        case BinOp::kNe: return Value::Bool(c != 0);
        case BinOp::kLt: return Value::Bool(c < 0);
        case BinOp::kLe: return Value::Bool(c <= 0);
        case BinOp::kGt: return Value::Bool(c > 0);
        default: return Value::Bool(c >= 0);
      }
    }
    default:
      return Arith(e.bin_op, l, r);
  }
}

Result<Value> Evaluator::EvalFunction(const Expr& e,
                                      const EvalScope& scope) const {
  std::vector<Value> args;
  args.reserve(e.args.size());
  for (const auto& a : e.args) {
    ASSIGN_OR_RETURN(Value v, Eval(*a, scope));
    args.push_back(std::move(v));
  }
  const std::string& f = e.func_name;
  auto arity = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::InvalidArgument(f + " expects " + std::to_string(n) +
                                     " arguments");
    }
    return Status::OK();
  };

  if (f == "year" || f == "month" || f == "day") {
    RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() != Type::kDate) {
      return Status::InvalidArgument(f + " expects a date");
    }
    int64_t d = args[0].AsInt();
    if (f == "year") return Value::Int(DateYear(d));
    if (f == "month") return Value::Int(DateMonth(d));
    return Value::Int(DateDay(d));
  }
  if (f == "date_add") {
    RETURN_IF_ERROR(arity(3));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() != Type::kDate) {
      return Status::InvalidArgument("date_add expects a date");
    }
    int64_t base = args[0].AsInt();
    int64_t n = args[1].AsInt();
    const std::string& unit = args[2].AsString();
    if (unit == "day") return Value::Date(base + n);
    if (unit == "month") return Value::Date(AddMonths(base, static_cast<int>(n)));
    if (unit == "year") {
      return Value::Date(AddMonths(base, static_cast<int>(n) * 12));
    }
    return Status::InvalidArgument("bad interval unit: " + unit);
  }
  if (f == "substr" || f == "substring") {
    RETURN_IF_ERROR(arity(3));
    if (args[0].is_null()) return Value::Null();
    const std::string& s = args[0].AsString();
    int64_t start = args[1].AsInt();  // 1-based
    int64_t len = args[2].AsInt();
    if (start < 1) start = 1;
    if (static_cast<size_t>(start) > s.size() || len <= 0) {
      return Value::String("");
    }
    return Value::String(s.substr(start - 1, len));
  }
  if (f == "length") {
    RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
  }
  if (f == "abs") {
    RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() == Type::kInt64) {
      return Value::Int(std::llabs(args[0].AsInt()));
    }
    return Value::Double(std::fabs(args[0].AsDouble()));
  }
  if (f == "round") {
    if (args.size() != 1 && args.size() != 2) {
      return Status::InvalidArgument("round expects 1 or 2 arguments");
    }
    if (args[0].is_null()) return Value::Null();
    int digits = args.size() == 2 ? static_cast<int>(args[1].AsInt()) : 0;
    double scale = std::pow(10.0, digits);
    return Value::Double(std::round(args[0].AsDouble() * scale) / scale);
  }
  if (f == "coalesce") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  if (f == "upper" || f == "lower") {
    RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    std::string s = args[0].AsString();
    for (char& c : s) {
      c = static_cast<char>(f == "upper"
                                ? std::toupper(static_cast<unsigned char>(c))
                                : std::tolower(static_cast<unsigned char>(c)));
    }
    return Value::String(std::move(s));
  }
  return Status::InvalidArgument("unknown function: " + f);
}

Result<Value> Evaluator::EvalSubqueryExpr(const Expr& e,
                                          const EvalScope& scope) const {
  if (subqueries_ == nullptr) {
    return Status::FailedPrecondition("no subquery runner in this context");
  }
  ASSIGN_OR_RETURN(std::shared_ptr<const QueryResult> shared,
                   subqueries_->RunSubquery(*e.subquery, &scope));
  const QueryResult& result = *shared;
  switch (e.kind) {
    case ExprKind::kScalarSubquery: {
      if (result.rows.empty()) return Value::Null();
      if (result.rows.size() > 1 || result.rows[0].size() != 1) {
        return Status::InvalidArgument(
            "scalar subquery returned more than one value");
      }
      return result.rows[0][0];
    }
    case ExprKind::kExists:
      return Value::Bool(e.negated ? result.rows.empty()
                                   : !result.rows.empty());
    case ExprKind::kInSubquery: {
      // x IN (empty) is false even for a NULL x; otherwise a NULL needle,
      // or a miss against a set holding NULL, is unknown.
      if (result.rows.empty()) return Value::Bool(e.negated);
      ASSIGN_OR_RETURN(Value needle, Eval(*e.left, scope));
      if (needle.is_null()) return Value::Null();
      auto miss = [&](bool set_has_null) {
        return set_has_null ? Value::Null() : Value::Bool(e.negated);
      };
      // For uncorrelated subqueries, build the membership set once.
      if (subqueries_->IsCached(*e.subquery)) {
        auto [it, inserted] = in_sets_.try_emplace(&e);
        InSet& set = it->second;
        if (inserted) {
          for (const Row& row : result.rows) {
            if (row.empty()) continue;
            if (row[0].is_null()) {
              set.has_null = true;
              continue;
            }
            set.values.insert(MembershipKey(row[0]));
          }
        }
        if (set.values.count(MembershipKey(needle)) > 0) {
          return Value::Bool(!e.negated);
        }
        return miss(set.has_null);
      }
      bool has_null = false;
      for (const Row& row : result.rows) {
        if (row.empty()) continue;
        if (row[0].is_null()) {
          has_null = true;
        } else if (needle.Compare(row[0]) == 0) {
          return Value::Bool(!e.negated);
        }
      }
      return miss(has_null);
    }
    default:
      return Status::Internal("not a subquery expression");
  }
}

Result<Value> Evaluator::Eval(const Expr& e, const EvalScope& scope) const {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kColumn:
      return ResolveColumn(e.column_name, scope);
    case ExprKind::kStar:
      return Status::InvalidArgument("* is only valid in SELECT lists");
    case ExprKind::kUnary: {
      if (e.un_op == UnOp::kNot) {
        ASSIGN_OR_RETURN(Value v, Eval(*e.left, scope));
        if (v.is_null()) return Value::Null();
        return Value::Bool(!IsTruthy(v));
      }
      ASSIGN_OR_RETURN(Value v, Eval(*e.left, scope));
      if (v.is_null()) return Value::Null();
      if (v.type() == Type::kInt64) return Value::Int(-v.AsInt());
      if (v.type() == Type::kDouble) return Value::Double(-v.AsDouble());
      return Status::InvalidArgument("cannot negate non-numeric value");
    }
    case ExprKind::kBinary:
      return EvalBinary(e, scope);
    case ExprKind::kFunction:
      return EvalFunction(e, scope);
    case ExprKind::kAggregate:
      return Status::InvalidArgument(
          "aggregate used outside GROUP BY context: " + e.ToString());
    case ExprKind::kCase: {
      for (const auto& [when, then] : e.when_clauses) {
        ASSIGN_OR_RETURN(bool cond, EvalBool(*when, scope));
        if (cond) return Eval(*then, scope);
      }
      if (e.else_expr) return Eval(*e.else_expr, scope);
      return Value::Null();
    }
    case ExprKind::kInList: {
      ASSIGN_OR_RETURN(Value needle, Eval(*e.left, scope));
      if (needle.is_null()) return Value::Null();
      bool has_null = false;
      for (const auto& item : e.args) {
        ASSIGN_OR_RETURN(Value v, Eval(*item, scope));
        if (v.is_null()) {
          has_null = true;
        } else if (needle.Compare(v) == 0) {
          return Value::Bool(!e.negated);
        }
      }
      return has_null ? Value::Null() : Value::Bool(e.negated);
    }
    case ExprKind::kBetween: {
      // v >= lo AND v <= hi, in Kleene logic.
      ASSIGN_OR_RETURN(Value v, Eval(*e.left, scope));
      ASSIGN_OR_RETURN(Value lo, Eval(*e.args[0], scope));
      ASSIGN_OR_RETURN(Value hi, Eval(*e.args[1], scope));
      if (v.is_null()) return Value::Null();
      Value ge = lo.is_null() ? Value::Null() : Value::Bool(v.Compare(lo) >= 0);
      Value le = hi.is_null() ? Value::Null() : Value::Bool(v.Compare(hi) <= 0);
      if (IsFalse(ge) || IsFalse(le)) return Value::Bool(false);
      return KleeneRest(ge, le, true);
    }
    case ExprKind::kLike: {
      ASSIGN_OR_RETURN(Value v, Eval(*e.left, scope));
      ASSIGN_OR_RETURN(Value p, Eval(*e.args[0], scope));
      if (v.is_null() || p.is_null()) return Value::Null();
      bool m = LikeMatch(v.AsString(), p.AsString());
      return Value::Bool(e.negated ? !m : m);
    }
    case ExprKind::kIsNull: {
      ASSIGN_OR_RETURN(Value v, Eval(*e.left, scope));
      return Value::Bool(e.negated ? !v.is_null() : v.is_null());
    }
    case ExprKind::kScalarSubquery:
    case ExprKind::kExists:
    case ExprKind::kInSubquery:
      return EvalSubqueryExpr(e, scope);
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace ironsafe::sql
