#ifndef IRONSAFE_SQL_VALUE_H_
#define IRONSAFE_SQL_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/bytes.h"
#include "common/result.h"

namespace ironsafe::sql {

/// SQL column types. Dates are stored as int64 days since 1970-01-01 but
/// keep a distinct type for formatting and date arithmetic.
enum class Type { kNull, kBool, kInt64, kDouble, kString, kDate };

std::string_view TypeName(Type t);

/// A dynamically typed SQL value. NULL is represented by Type::kNull.
class Value {
 public:
  Value() : type_(Type::kNull) {}
  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Type::kBool, b ? 1 : 0); }
  static Value Int(int64_t v) { return Value(Type::kInt64, v); }
  static Value Double(double v) { return Value(v); }
  static Value String(std::string s) { return Value(std::move(s)); }
  static Value Date(int64_t days) { return Value(Type::kDate, days); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  bool AsBool() const { return int_ != 0; }
  int64_t AsInt() const { return int_; }
  double AsDouble() const {
    return type_ == Type::kDouble ? double_ : static_cast<double>(int_);
  }
  const std::string& AsString() const { return str_; }

  /// True if the type is kInt64, kDouble or kDate (usable in arithmetic).
  bool IsNumeric() const {
    return type_ == Type::kInt64 || type_ == Type::kDouble ||
           type_ == Type::kDate;
  }

  /// SQL literal rendering: NULL, 42, 3.14, 'it''s', DATE '1995-03-15'.
  /// The parser reads the text back as the same value: a double prints
  /// as its shortest round-trip form and a string doubles its quotes.
  std::string ToString() const;

  /// Three-way comparison for ORDER BY and joins: NULL sorts first;
  /// numeric types compare by value across int/double/date.
  /// Returns <0, 0, >0. Comparing string to numeric is a programming
  /// error and compares by type id (deterministic but meaningless).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Hash consistent with operator== for numeric cross-type equality.
  size_t Hash() const;

  /// Appends the row-format encoding: a tag byte, then the payload.
  /// ColumnBatch::AppendSerialized is the decoder.
  void Serialize(Bytes* out) const;

 private:
  Value(Type t, int64_t v) : type_(t), int_(v) {}
  explicit Value(double v) : type_(Type::kDouble), double_(v) {}
  explicit Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}

  Type type_;
  int64_t int_ = 0;
  double double_ = 0;
  std::string str_;
};

/// Parses "YYYY-MM-DD" to days since epoch.
Result<int64_t> ParseDate(std::string_view iso);

/// Formats days since epoch as "YYYY-MM-DD".
std::string FormatDate(int64_t days);

/// Extracts the year / month / day from a days-since-epoch date.
int32_t DateYear(int64_t days);
int32_t DateMonth(int64_t days);
int32_t DateDay(int64_t days);

/// Date arithmetic helpers for INTERVAL support.
int64_t AddMonths(int64_t days, int months);

}  // namespace ironsafe::sql

#endif  // IRONSAFE_SQL_VALUE_H_
