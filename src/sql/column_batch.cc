#include "sql/column_batch.h"

#include <algorithm>
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

void ColumnBatch::PushCell(size_t c, uint8_t tag, int64_t num,
                           std::string str) {
  Col& col = cols_[c];
  if (!col.tags.empty() && tag != col.tags[0]) col.uniform_ = false;
  col.tags.push_back(tag);
  col.nums.push_back(num);
  if (tag == static_cast<uint8_t>(Type::kNull)) col.has_null = true;
  if (tag == static_cast<uint8_t>(Type::kString) && !col.has_string) {
    col.has_string = true;
    col.strs.reserve(col.tags.capacity());
    col.strs.resize(col.tags.size() - 1);
  }
  if (col.has_string) col.strs.push_back(std::move(str));
}

void ColumnBatch::EndRow(size_t bytes) {
  row_bytes_.push_back(static_cast<uint32_t>(bytes));
  total_row_bytes_ += bytes;
  ++rows_;
}

void ColumnBatch::AppendRow(const Row& row) {
  static const Value kNull;
  size_t bytes = sizeof(Row) + row.size() * sizeof(Value);
  for (size_t c = 0; c < cols_.size(); ++c) {
    const Value& v = c < row.size() ? row[c] : kNull;
    const bool is_string = v.type() == Type::kString;
    if (is_string) bytes += v.AsString().size();
    PushCell(c, static_cast<uint8_t>(v.type()), NumPayload(v),
             is_string ? v.AsString() : std::string());
  }
  EndRow(bytes);
}

void ColumnBatch::AppendFrom(const ColumnBatch& src, size_t r) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    const Col& from = src.cols_[c];
    PushCell(c, from.tags[r], from.nums[r],
             from.has_string ? from.strs[r] : std::string());
  }
  EndRow(src.row_bytes_[r]);
}

void ColumnBatch::Reserve(size_t rows) {
  for (Col& col : cols_) {
    col.tags.reserve(col.tags.size() + rows);
    col.nums.reserve(col.nums.size() + rows);
  }
  row_bytes_.reserve(row_bytes_.size() + rows);
}

Status ColumnBatch::AppendSerialized(ByteReader* reader) {
  ASSIGN_OR_RETURN(uint16_t n, reader->ReadU16());
  if (n != cols_.size()) return Status::Corruption("row arity mismatch");
  size_t bytes = sizeof(Row) + n * sizeof(Value);
  for (uint16_t c = 0; c < n; ++c) {
    ASSIGN_OR_RETURN(uint8_t tag, reader->ReadU8());
    uint64_t num = 0;
    std::string str;
    switch (static_cast<Type>(tag)) {
      case Type::kNull:
        break;
      case Type::kBool: {
        ASSIGN_OR_RETURN(uint8_t b, reader->ReadU8());
        num = b != 0;
        break;
      }
      case Type::kInt64:
      case Type::kDouble:  // its IEEE-754 bit pattern, kept as is
      case Type::kDate: {
        ASSIGN_OR_RETURN(num, reader->ReadU64());
        break;
      }
      case Type::kString: {
        ASSIGN_OR_RETURN(str, reader->ReadLengthPrefixedString());
        bytes += str.size();
        break;
      }
      default:
        return Status::Corruption("unknown value type tag");
    }
    PushCell(c, tag, static_cast<int64_t>(num), std::move(str));
  }
  EndRow(bytes);
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
  // A serialized row is at least its u16 arity and one tag per column.
  batch->Reserve(std::min<size_t>(
      {n, kBatchRows, reader.remaining() / (2 + num_cols)}));
  for (uint16_t i = 0; i < n; ++i) {
    RETURN_IF_ERROR(batch->AppendSerialized(&reader));
  }
  return std::shared_ptr<const ColumnBatch>(std::move(batch));
}

std::shared_ptr<const ColumnBatch> ColumnBatch::GatherPairs(
    const std::vector<RowPair>& pairs, size_t left_cols, size_t right_cols) {
  auto out = std::make_shared<ColumnBatch>(left_cols + right_cols);
  const size_t n = pairs.size();
  // Every output row boxes left_cols + right_cols values; string cells
  // add their lengths as the columns fill.
  out->row_bytes_.assign(
      n, static_cast<uint32_t>(sizeof(Row) + out->num_cols() * sizeof(Value)));
  for (size_t c = 0; c < left_cols; ++c) {
    out->GatherColumn(c, pairs, &RowPair::left, c);
  }
  for (size_t c = 0; c < right_cols; ++c) {
    out->GatherColumn(left_cols + c, pairs, &RowPair::right, c);
  }
  for (uint32_t bytes : out->row_bytes_) out->total_row_bytes_ += bytes;
  out->rows_ = n;
  return out;
}

void ColumnBatch::GatherColumn(size_t c, const std::vector<RowPair>& pairs,
                               RowRef RowPair::*side, size_t src_c) {
  constexpr auto kNullTag = static_cast<uint8_t>(Type::kNull);
  constexpr auto kStringTag = static_cast<uint8_t>(Type::kString);
  const size_t n = pairs.size();
  Col& col = cols_[c];
  col.tags.resize(n);
  col.nums.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const RowRef& ref = pairs[i].*side;
    const Col& src = ref.batch->cols_[src_c];
    const uint8_t tag = src.tags[ref.row];
    col.tags[i] = tag;
    col.nums[i] = src.nums[ref.row];
    if (tag != col.tags[0]) col.uniform_ = false;
    if (tag == kNullTag) {
      col.has_null = true;
    } else if (tag == kStringTag) {
      if (!col.has_string) {
        col.has_string = true;
        col.strs.resize(n);
      }
      col.strs[i] = src.strs[ref.row];
      row_bytes_[i] += static_cast<uint32_t>(col.strs[i].size());
    }
  }
}

}  // namespace ironsafe::sql
