#include "sql/value.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>

namespace ironsafe::sql {

std::string_view TypeName(Type t) {
  switch (t) {
    case Type::kNull:
      return "NULL";
    case Type::kBool:
      return "BOOL";
    case Type::kInt64:
      return "INT64";
    case Type::kDouble:
      return "DOUBLE";
    case Type::kString:
      return "STRING";
    case Type::kDate:
      return "DATE";
  }
  return "?";
}

std::string Value::ToString() const {
  switch (type_) {
    case Type::kNull:
      return "NULL";
    case Type::kBool:
      return int_ ? "TRUE" : "FALSE";
    case Type::kInt64:
      return std::to_string(int_);
    case Type::kDouble: {
      char buf[32];
      std::string s(buf, std::to_chars(buf, buf + sizeof(buf), double_).ptr);
      // "2" would re-parse as an INT64 literal.
      if (s.find_first_not_of("-0123456789") == std::string::npos) s += ".0";
      return s;
    }
    case Type::kString: {
      std::string s = "'";
      for (char c : str_) {
        s += c;
        if (c == '\'') s += '\'';
      }
      return s + "'";
    }
    case Type::kDate:
      return "DATE '" + FormatDate(int_) + "'";
  }
  return "?";
}

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  if (IsNumeric() && other.IsNumeric()) {
    if (type_ == Type::kDouble || other.type_ == Type::kDouble) {
      double a = AsDouble(), b = other.AsDouble();
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
    if (int_ < other.int_) return -1;
    if (int_ > other.int_) return 1;
    return 0;
  }
  if (type_ == Type::kString && other.type_ == Type::kString) {
    return str_.compare(other.str_);
  }
  if (type_ == Type::kBool && other.type_ == Type::kBool) {
    return static_cast<int>(int_) - static_cast<int>(other.int_);
  }
  // Type mismatch: deterministic order by type id.
  return static_cast<int>(type_) - static_cast<int>(other.type_);
}

size_t Value::Hash() const {
  switch (type_) {
    case Type::kNull:
      return 0x9e3779b9;
    case Type::kBool:
      return std::hash<int64_t>()(int_ ? 1 : 0) ^ 0x1234;
    case Type::kInt64:
    case Type::kDate:
      // Hash integers through double when the value is integral so that
      // Int(3) and Double(3.0) hash identically (they compare equal).
      return std::hash<double>()(static_cast<double>(int_));
    case Type::kDouble:
      return std::hash<double>()(double_);
    case Type::kString:
      return std::hash<std::string>()(str_);
  }
  return 0;
}

void Value::Serialize(Bytes* out) const {
  const size_t at = out->size();
  out->resize(at + SerializedSize());
  SerializeTo(out->data() + at);
}

size_t Value::SerializedSize() const {
  return CellBytes(static_cast<uint8_t>(type_), str_.size());
}

uint8_t* Value::SerializeTo(uint8_t* p) const {
  int64_t num = int_;
  if (type_ == Type::kDouble) {
    static_assert(sizeof(num) == sizeof(double_));
    std::memcpy(&num, &double_, sizeof(num));
  }
  return WriteCell(p, static_cast<uint8_t>(type_), num, str_);
}

// ---- Date helpers (proleptic Gregorian, civil-days algorithms) ----

namespace {
// Days from civil date; Howard Hinnant's algorithm.
int64_t DaysFromCivil(int y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097LL + static_cast<int>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = static_cast<int>(yy + (*m <= 2));
}
}  // namespace

Result<int64_t> ParseDate(std::string_view iso) {
  int y = 0;
  unsigned m = 0, d = 0;
  if (iso.size() != 10 || iso[4] != '-' || iso[7] != '-') {
    return Status::InvalidArgument("date must be YYYY-MM-DD: " +
                                   std::string(iso));
  }
  for (size_t i = 0; i < iso.size(); ++i) {
    if (i == 4 || i == 7) continue;
    if (iso[i] < '0' || iso[i] > '9') {
      return Status::InvalidArgument("bad date: " + std::string(iso));
    }
  }
  y = (iso[0] - '0') * 1000 + (iso[1] - '0') * 100 + (iso[2] - '0') * 10 +
      (iso[3] - '0');
  m = (iso[5] - '0') * 10 + (iso[6] - '0');
  d = (iso[8] - '0') * 10 + (iso[9] - '0');
  if (m < 1 || m > 12 || d < 1 || d > 31) {
    return Status::InvalidArgument("date out of range: " + std::string(iso));
  }
  return DaysFromCivil(y, m, d);
}

std::string FormatDate(int64_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02u-%02u", y, m, d);
  return buf;
}

int32_t DateYear(int64_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return y;
}

int32_t DateMonth(int64_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return static_cast<int32_t>(m);
}

int32_t DateDay(int64_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return static_cast<int32_t>(d);
}

int64_t AddMonths(int64_t days, int months) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  int total = y * 12 + static_cast<int>(m) - 1 + months;
  int ny = total / 12;
  unsigned nm = static_cast<unsigned>(total % 12) + 1;
  // Clamp day to the target month's length.
  static const unsigned kDays[] = {31, 28, 31, 30, 31, 30,
                                   31, 31, 30, 31, 30, 31};
  unsigned max_d = kDays[nm - 1];
  if (nm == 2 && ((ny % 4 == 0 && ny % 100 != 0) || ny % 400 == 0)) max_d = 29;
  if (d > max_d) d = max_d;
  return DaysFromCivil(ny, nm, d);
}

}  // namespace ironsafe::sql
