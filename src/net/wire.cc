#include "net/wire.h"

#include <algorithm>

#include "sql/column_batch.h"

namespace ironsafe::net {

namespace {
/// The record batch header: the schema, then the row count.
Bytes Header(const sql::Schema& schema, uint64_t rows) {
  Bytes out;
  PutU32(&out, static_cast<uint32_t>(schema.size()));
  for (const sql::Column& c : schema.columns()) {
    PutLengthPrefixed(&out, c.name);
    out.push_back(static_cast<uint8_t>(c.type));
  }
  PutU64(&out, rows);
  return out;
}
}  // namespace

Bytes SerializeBatches(const sql::VecRel& result) {
  Bytes out = Header(result.schema, result.ActiveRows());
  const size_t header = out.size();
  size_t bytes = header;
  for (const sql::VecBatch& b : result.batches) {
    bytes += b.batch->SerializedSize(b.sel);
  }
  out.resize(bytes);
  uint8_t* p = out.data() + header;
  for (const sql::VecBatch& b : result.batches) {
    p = b.batch->SerializeRows(b.sel, p);
  }
  return out;
}

Bytes SerializeResult(const sql::QueryResult& result) {
  Bytes out = Header(result.schema, result.rows.size());
  for (const sql::Row& row : result.rows) {
    sql::SerializeRow(row, &out);
  }
  return out;
}

Result<sql::BatchedRows> DeserializeBatches(const Bytes& wire) {
  ByteReader r(wire);
  sql::BatchedRows result;
  ASSIGN_OR_RETURN(uint32_t ncols, r.ReadU32());
  if (ncols > 4096) return Status::Corruption("implausible column count");
  for (uint32_t i = 0; i < ncols; ++i) {
    ASSIGN_OR_RETURN(std::string name, r.ReadLengthPrefixedString());
    ASSIGN_OR_RETURN(uint8_t type_tag, r.ReadU8());
    if (type_tag > static_cast<uint8_t>(sql::Type::kDate)) {
      return Status::Corruption("unknown column type tag");
    }
    result.schema.AddColumn(
        sql::Column{std::move(name), static_cast<sql::Type>(type_tag)});
  }
  ASSIGN_OR_RETURN(uint64_t nrows, r.ReadU64());
  // Each serialized row needs at least its 2-byte arity header; a count
  // beyond that is corrupt and must not drive an allocation.
  if (nrows > r.remaining() / 2) {
    return Status::Corruption("row count exceeds record batch size");
  }
  for (uint64_t i = 0; i < nrows; ++i) {
    sql::ColumnBatch* unit = sql::TailUnit(ncols, &result.units);
    if (unit->rows() == 0) {
      // A serialized row is at least its u16 arity and one tag per column.
      unit->Reserve(std::min<uint64_t>({nrows - i,
                                         sql::MemoryTable::kRowsPerMorsel,
                                         r.remaining() / (2 + ncols)}));
    }
    RETURN_IF_ERROR(unit->AppendSerialized(&r));
  }
  return result;
}

Result<sql::QueryResult> DeserializeResult(const Bytes& wire) {
  ASSIGN_OR_RETURN(sql::BatchedRows batches, DeserializeBatches(wire));
  sql::QueryResult result{batches.schema, {}};
  ASSIGN_OR_RETURN(result.rows,
                   sql::ReadRows(sql::MemoryTable("", std::move(batches)),
                                 nullptr));
  return result;
}

}  // namespace ironsafe::net
