#include "sql/column_batch.h"

#include <algorithm>
#include <cstring>

#include "sql/vector_eval.h"

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
                           std::string_view str) {
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
  if (col.has_string) col.strs.emplace_back(str);
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
             is_string ? std::string_view(v.AsString()) : std::string_view());
  }
  EndRow(bytes);
}

void ColumnBatch::AppendFrom(const ColumnBatch& src, size_t r) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    const Col& from = src.cols_[c];
    PushCell(c, from.tags[r], from.nums[r],
             from.has_string ? std::string_view(from.strs[r])
                             : std::string_view());
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
  const uint8_t* const begin = reader->cursor();
  const uint8_t* const end = begin + reader->remaining();
  const uint8_t* p = begin;
  auto truncated = [] { return Status::InvalidArgument("truncated row"); };
  if (end - p < 2) return truncated();
  const uint16_t n = LoadLE<uint16_t>(p);
  p += 2;
  if (n != cols_.size()) return Status::Corruption("row arity mismatch");
  size_t bytes = sizeof(Row) + n * sizeof(Value);
  for (uint16_t c = 0; c < n; ++c) {
    if (p == end) return truncated();
    const uint8_t tag = *p++;
    int64_t num = 0;
    std::string_view str;
    switch (static_cast<Type>(tag)) {
      case Type::kNull:
        break;
      case Type::kBool:
        if (p == end) return truncated();
        num = *p++ != 0;
        break;
      case Type::kInt64:
      case Type::kDouble:  // its IEEE-754 bit pattern, kept as is
      case Type::kDate:
        if (end - p < 8) return truncated();
        num = static_cast<int64_t>(LoadLE<uint64_t>(p));
        p += 8;
        break;
      case Type::kString: {
        if (end - p < 4) return truncated();
        const uint32_t len = LoadLE<uint32_t>(p);
        p += 4;
        if (static_cast<size_t>(end - p) < len) return truncated();
        str = std::string_view(reinterpret_cast<const char*>(p), len);
        p += len;
        bytes += len;
        break;
      }
      default:
        return Status::Corruption("unknown value type tag");
    }
    PushCell(c, tag, num, str);
  }
  EndRow(bytes);
  reader->Skip(static_cast<size_t>(p - begin));
  return Status::OK();
}

size_t ColumnBatch::SerializedSize(const SelVec& sel) const {
  size_t bytes = 2 * sel.size();
  for (const Col& col : cols_) {
    if (col.uniform() && !col.has_string) {
      bytes += sel.size() * CellBytes(col.first_tag(), 0);
      continue;
    }
    for (uint32_t r : sel) {
      bytes += CellBytes(col.tags[r], col.has_string ? col.strs[r].size() : 0);
    }
  }
  return bytes;
}

uint8_t* ColumnBatch::SerializeRows(const SelVec& sel, uint8_t* p) const {
  const auto arity = static_cast<uint16_t>(cols_.size());
  for (uint32_t r : sel) {
    StoreLE(p, arity);
    p += 2;
    for (const Col& col : cols_) {
      p = WriteCell(p, col.tags[r], col.nums[r],
                    col.has_string ? std::string_view(col.strs[r])
                                   : std::string_view());
    }
  }
  return p;
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

void ColumnBatch::StartRows(size_t n) {
  // Every row boxes num_cols() values; string cells add their lengths as
  // the columns fill.
  row_bytes_.assign(
      n, static_cast<uint32_t>(sizeof(Row) + num_cols() * sizeof(Value)));
  rows_ = n;
}

void ColumnBatch::FinishRows() {
  for (uint32_t bytes : row_bytes_) total_row_bytes_ += bytes;
}

template <typename RefAt>
void ColumnBatch::GatherColumn(size_t c, size_t src_c, const RefAt& ref_at) {
  constexpr auto kNullTag = static_cast<uint8_t>(Type::kNull);
  constexpr auto kStringTag = static_cast<uint8_t>(Type::kString);
  const size_t n = rows_;
  Col& col = cols_[c];
  col.tags.resize(n);
  col.nums.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const RowRef ref = ref_at(i);
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

std::shared_ptr<const ColumnBatch> ColumnBatch::GatherPairs(
    const std::vector<RowPair>& pairs, size_t left_cols, size_t right_cols) {
  auto out = std::make_shared<ColumnBatch>(left_cols + right_cols);
  out->StartRows(pairs.size());
  for (size_t c = 0; c < left_cols; ++c) {
    out->GatherColumn(c, c, [&](size_t i) { return pairs[i].left; });
  }
  for (size_t c = 0; c < right_cols; ++c) {
    out->GatherColumn(left_cols + c, c,
                      [&](size_t i) { return pairs[i].right; });
  }
  out->FinishRows();
  return out;
}

std::shared_ptr<const ColumnBatch> ColumnBatch::Gather(
    std::span<const RowRef> refs, size_t num_cols) {
  auto out = std::make_shared<ColumnBatch>(num_cols);
  out->StartRows(refs.size());
  for (size_t c = 0; c < num_cols; ++c) {
    out->GatherColumn(c, c, [&](size_t i) { return refs[i]; });
  }
  out->FinishRows();
  return out;
}

std::shared_ptr<const ColumnBatch> ColumnBatch::FromColumns(
    std::vector<VecCol>* cols, size_t rows) {
  auto out = std::make_shared<ColumnBatch>(cols->size());
  out->StartRows(rows);
  for (size_t c = 0; c < cols->size(); ++c) {
    VecCol& in = (*cols)[c];
    Col& col = out->cols_[c];
    if (in.kind != VecCol::Kind::kGeneric) {
      const Type type = in.kind == VecCol::Kind::kI64   ? Type::kInt64
                        : in.kind == VecCol::Kind::kF64 ? Type::kDouble
                                                        : Type::kDate;
      col.tags.assign(rows, static_cast<uint8_t>(type));
      col.nums = std::move(in.nums);
      continue;
    }
    col.tags.reserve(rows);
    col.nums.reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      const Value& v = in.vals[i];
      const bool is_string = v.type() == Type::kString;
      if (is_string) {
        out->row_bytes_[i] += static_cast<uint32_t>(v.AsString().size());
      }
      out->PushCell(c, static_cast<uint8_t>(v.type()), NumPayload(v),
                    is_string ? std::string_view(v.AsString())
                              : std::string_view());
    }
  }
  out->FinishRows();
  return out;
}

}  // namespace ironsafe::sql
