#ifndef IRONSAFE_SQL_VALUE_H_
#define IRONSAFE_SQL_VALUE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
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

  /// Appends the row-format encoding (WriteCell): a tag byte, then the
  /// payload. ColumnBatch::AppendSerialized is the decoder.
  void Serialize(Bytes* out) const;
  /// CellBytes of this value.
  size_t SerializedSize() const;
  /// WriteCell of this value at `p`; returns the end of the cell.
  uint8_t* SerializeTo(uint8_t* p) const;

 private:
  Value(Type t, int64_t v) : type_(t), int_(v) {}
  explicit Value(double v) : type_(Type::kDouble), double_(v) {}
  explicit Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}

  Type type_;
  int64_t int_ = 0;
  double double_ = 0;
  std::string str_;
};

// ---- The row format's cell, defined once ----
//
// A cell is a tag byte (static_cast<uint8_t>(Type)) and its payload:
// nothing for NULL, one byte (0 or 1) for BOOL, a little-endian u64 for
// INT64, DATE and DOUBLE (its IEEE-754 bit pattern), and a little-endian
// u32 length then the bytes for STRING. Value::Serialize, SerializeRow and
// ColumnBatch::SerializeRows all write cells through WriteCell;
// ColumnBatch::AppendSerialized is the one reader.

/// Bytes of a cell tagged `tag` (a string's payload is `str_len` bytes).
/// Callers pass valid tags only.
inline size_t CellBytes(uint8_t tag, size_t str_len) {
  switch (static_cast<Type>(tag)) {
    case Type::kNull:
      return 1;
    case Type::kBool:
      return 2;
    case Type::kString:
      return 5 + str_len;
    default:
      return 9;
  }
}

/// Writes the cell (tag, payload) at `p`, which has CellBytes of room, and
/// returns its end. `num` is the BOOL/INT64/DATE value or the DOUBLE bit
/// pattern; `str` is read for STRING only.
inline uint8_t* WriteCell(uint8_t* p, uint8_t tag, int64_t num,
                          std::string_view str) {
  *p++ = tag;
  switch (static_cast<Type>(tag)) {
    case Type::kNull:
      return p;
    case Type::kBool:
      *p = num != 0 ? 1 : 0;
      return p + 1;
    case Type::kString:
      StoreLE(p, static_cast<uint32_t>(str.size()));
      if (!str.empty()) std::memcpy(p + 4, str.data(), str.size());
      return p + 4 + str.size();
    default:
      StoreLE(p, static_cast<uint64_t>(num));
      return p + 8;
  }
}

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
