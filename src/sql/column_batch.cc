#include "sql/column_batch.h"

#include <cstring>

namespace ironsafe::sql {

namespace {
int64_t NumPayload(const Value& v) {
  if (v.type() == Type::kDouble) {
    double d = v.AsDouble();
    int64_t bits;
    std::memcpy(&bits, &d, 8);
    return bits;
  }
  if (v.type() == Type::kString || v.is_null()) return 0;
  return v.AsInt();
}
}  // namespace

void ColumnBatch::PushValue(size_t c, const Value& v) {
  Col& col = cols_[c];
  auto tag = static_cast<uint8_t>(v.type());
  if (!col.tags.empty() && tag != col.tags[0]) col.uniform_ = false;
  col.tags.push_back(tag);
  col.nums.push_back(NumPayload(v));
  if (v.is_null()) col.has_null = true;
  if (v.type() == Type::kString) {
    if (!col.has_string) {
      col.has_string = true;
      col.strs.resize(col.tags.size() - 1);
    }
  }
  if (col.has_string) {
    col.strs.emplace_back(v.type() == Type::kString ? v.AsString()
                                                    : std::string());
  }
}

void ColumnBatch::AppendRow(const Row& row) {
  size_t bytes = sizeof(Row) + row.size() * sizeof(Value);
  for (size_t c = 0; c < cols_.size() && c < row.size(); ++c) {
    PushValue(c, row[c]);
    if (row[c].type() == Type::kString) bytes += row[c].AsString().size();
  }
  for (size_t c = row.size(); c < cols_.size(); ++c) {
    PushValue(c, Value::Null());
  }
  row_bytes_.push_back(static_cast<uint32_t>(bytes));
  total_row_bytes_ += bytes;
  ++rows_;
}

Status ColumnBatch::AppendSerialized(ByteReader* reader) {
  ASSIGN_OR_RETURN(uint16_t n, reader->ReadU16());
  if (n != cols_.size()) {
    return Status::Corruption("row arity mismatch in page");
  }
  size_t bytes = sizeof(Row) + n * sizeof(Value);
  for (uint16_t c = 0; c < n; ++c) {
    ASSIGN_OR_RETURN(Value v, Value::Deserialize(reader));
    if (v.type() == Type::kString) bytes += v.AsString().size();
    PushValue(c, v);
  }
  row_bytes_.push_back(static_cast<uint32_t>(bytes));
  total_row_bytes_ += bytes;
  ++rows_;
  return Status::OK();
}

Value ColumnBatch::GetValue(size_t c, size_t r) const {
  const Col& col = cols_[c];
  switch (static_cast<Type>(col.tags[r])) {
    case Type::kNull:
      return Value::Null();
    case Type::kBool:
      return Value::Bool(col.nums[r] != 0);
    case Type::kInt64:
      return Value::Int(col.nums[r]);
    case Type::kDouble: {
      double d;
      std::memcpy(&d, &col.nums[r], 8);
      return Value::Double(d);
    }
    case Type::kString:
      return Value::String(col.strs[r]);
    case Type::kDate:
      return Value::Date(col.nums[r]);
  }
  return Value::Null();
}

void ColumnBatch::MaterializeRow(size_t r, Row* out) const {
  out->clear();
  out->reserve(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) out->push_back(GetValue(c, r));
}

Result<std::shared_ptr<const ColumnBatch>> ColumnBatch::FromPage(
    const Bytes& page, size_t num_cols) {
  auto batch = std::make_shared<ColumnBatch>(num_cols);
  ByteReader reader(page);
  ASSIGN_OR_RETURN(uint16_t n, reader.ReadU16());
  for (uint16_t i = 0; i < n; ++i) {
    RETURN_IF_ERROR(batch->AppendSerialized(&reader));
  }
  return std::shared_ptr<const ColumnBatch>(std::move(batch));
}

}  // namespace ironsafe::sql
