#ifndef IRONSAFE_SQL_SCHEMA_H_
#define IRONSAFE_SQL_SCHEMA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sql/value.h"

namespace ironsafe::sql {

/// A column definition.
struct Column {
  std::string name;
  Type type = Type::kNull;
};

/// An ordered set of columns. Column lookup is by (optionally qualified)
/// name; qualification is handled by the binder, which prefixes names
/// with "alias." when needed.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  size_t size() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of `name`, or -1 if absent; -2 if ambiguous. A bare name
  /// matches a stored qualified name's suffix ("o_orderkey" matches
  /// "orders.o_orderkey").
  int Find(const std::string& name) const;

  void AddColumn(Column c) { columns_.push_back(std::move(c)); }

  /// Concatenation for join outputs.
  static Schema Concat(const Schema& left, const Schema& right);

  /// Returns a copy with every column renamed to "qualifier.name",
  /// stripping any existing qualifier first.
  Schema Qualified(const std::string& qualifier) const;

  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

/// A tuple matching some Schema positionally.
using Row = std::vector<Value>;

/// Serializes a row (values only; schema travels separately);
/// ColumnBatch::AppendSerialized decodes it.
void SerializeRow(const Row& row, Bytes* out);

/// Approximate in-memory footprint of a row, for memory accounting.
size_t RowBytes(const Row& row);

}  // namespace ironsafe::sql

#endif  // IRONSAFE_SQL_SCHEMA_H_
