#include "sql/schema.h"

#include <sstream>

namespace ironsafe::sql {

namespace {
std::string_view Unqualified(std::string_view name) {
  size_t dot = name.rfind('.');
  return dot == std::string_view::npos ? name : name.substr(dot + 1);
}
}  // namespace

int Schema::Find(const std::string& name) const {
  // Exact match first (handles qualified lookups).
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  // Suffix match for bare names.
  if (name.find('.') == std::string::npos) {
    int found = -1;
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (Unqualified(columns_[i].name) == name) {
        if (found >= 0) return -2;  // ambiguous
        found = static_cast<int>(i);
      }
    }
    return found;
  }
  return -1;
}

Schema Schema::Concat(const Schema& left, const Schema& right) {
  std::vector<Column> cols = left.columns_;
  cols.insert(cols.end(), right.columns_.begin(), right.columns_.end());
  return Schema(std::move(cols));
}

Schema Schema::Qualified(const std::string& qualifier) const {
  std::vector<Column> cols;
  cols.reserve(columns_.size());
  for (const Column& c : columns_) {
    cols.push_back(
        Column{qualifier + "." + std::string(Unqualified(c.name)), c.type});
  }
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i) os << ", ";
    os << columns_[i].name << " " << TypeName(columns_[i].type);
  }
  os << ")";
  return os.str();
}

void SerializeRow(const Row& row, Bytes* out) {
  size_t bytes = 2;
  for (const Value& v : row) bytes += v.SerializedSize();
  const size_t at = out->size();
  out->resize(at + bytes);
  uint8_t* p = out->data() + at;
  StoreLE(p, static_cast<uint16_t>(row.size()));
  p += 2;
  for (const Value& v : row) p = v.SerializeTo(p);
}

size_t RowBytes(const Row& row) {
  size_t total = sizeof(Row) + row.size() * sizeof(Value);
  for (const Value& v : row) {
    if (v.type() == Type::kString) total += v.AsString().size();
  }
  return total;
}

}  // namespace ironsafe::sql
