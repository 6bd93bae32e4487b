#ifndef IRONSAFE_SQL_COLUMN_BATCH_H_
#define IRONSAFE_SQL_COLUMN_BATCH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sql/schema.h"

namespace ironsafe::sql {

/// Selection vector: indices of the active rows of a ColumnBatch, in
/// ascending order. Operators narrow the selection instead of copying
/// rows; rows materialize only at the final projection (joins gather
/// cells straight from their input batches).
using SelVec = std::vector<uint32_t>;

class ColumnBatch;
struct VecCol;

/// One row of a batch, by reference: what a join collects per match
/// instead of boxing the row.
struct RowRef {
  const ColumnBatch* batch;
  uint32_t row;
};

/// A join match: a row of the left input and a row of the right.
struct RowPair {
  RowRef left;
  RowRef right;
};

/// Column-major decode of up to ~2K rows — the unit of batch-at-a-time
/// execution. A batch is decoded once from a (decrypted) page or row
/// block; each column stores a per-row type tag plus a dense numeric
/// payload array (int64/bool/date payloads verbatim, doubles bit-cast to
/// their IEEE-754 pattern) so tight kernels can scan raw arrays without
/// touching Value. Strings live in a parallel array allocated only for
/// columns that contain at least one string.
///
/// Batches are immutable once handed out (shared_ptr<const> across
/// operators, the page store's page cache and MemoryTable's stored
/// units).
class ColumnBatch {
 public:
  /// Upper bound chosen so one batch covers any 4 KiB heap-file page
  /// (u16 row count) and one MemoryTable morsel block.
  static constexpr size_t kBatchRows = 2048;

  struct Col {
    /// static_cast<uint8_t>(Type) per row.
    std::vector<uint8_t> tags;
    /// Numeric payload per row: int64/date/bool verbatim, double as its
    /// bit pattern, 0 for null/string.
    std::vector<int64_t> nums;
    /// Sized rows() only when has_string (empty strings elsewhere).
    std::vector<std::string> strs;
    bool has_null = false;
    bool has_string = false;

    /// True when every row carries `tag` (vacuously false when empty) —
    /// the precondition for typed kernels, which assume one payload
    /// interpretation for the whole array.
    bool UniformTag(uint8_t tag) const {
      return !tags.empty() && uniform_ && tags[0] == tag;
    }
    bool uniform() const { return !tags.empty() && uniform_; }
    uint8_t first_tag() const { return tags.empty() ? 0 : tags[0]; }

   private:
    friend class ColumnBatch;
    bool uniform_ = true;
  };

  explicit ColumnBatch(size_t num_cols) : cols_(num_cols) {}

  size_t rows() const { return rows_; }
  size_t num_cols() const { return cols_.size(); }
  const Col& col(size_t c) const { return cols_[c]; }

  /// Appends `row`, padding missing columns with NULL and ignoring extra
  /// values — callers check arity.
  void AppendRow(const Row& row);
  /// Appends row `r` of `src` (same column count), cell by cell.
  void AppendFrom(const ColumnBatch& src, size_t r);
  /// Reserves the per-row arrays for `rows` more rows. A string column's
  /// array stays unallocated until its first string, and then takes the
  /// same capacity. Decoders pass a row count capped by the bytes left
  /// to read, so no reservation is sized by an untrusted count alone.
  void Reserve(size_t rows);
  /// The one decoder of the row format, shared by heap-file pages and
  /// the wire's record batches: a u16 value count, then per value one
  /// cell (value.h: a tag byte and its payload), read straight into the
  /// columns through a raw cursor with inline bounds checks. A value
  /// count other than num_cols() or an unknown tag is Corruption;
  /// truncation is InvalidArgument. On error the batch is left partial
  /// and must be discarded.
  Status AppendSerialized(ByteReader* reader);

  /// Bytes SerializeRows writes for the rows `sel`.
  size_t SerializedSize(const SelVec& sel) const;
  /// The one writer of the row format, AppendSerialized's inverse: writes
  /// the rows `sel` in order at `p`, which has SerializedSize(sel) bytes
  /// of room, each as its u16 arity and one WriteCell per column straight
  /// from the columns; returns the end. Byte-identical to SerializeRow of
  /// MaterializeRow, row by row.
  uint8_t* SerializeRows(const SelVec& sel, uint8_t* p) const;

  /// Rebuilds the Value at (col, row).
  Value GetValue(size_t c, size_t r) const;
  /// Rebuilds the full row at `r` (resizes `out` to num_cols()).
  void MaterializeRow(size_t r, Row* out) const;

  /// In-memory footprint of row `r` under the boxed-row accounting
  /// (RowBytes), so plain and oblivious runs see the same working sets.
  size_t row_bytes(size_t r) const { return row_bytes_[r]; }
  uint64_t total_row_bytes() const { return total_row_bytes_; }

  /// Decodes a heap-file page (u16 row count || serialized rows) into a
  /// fresh batch.
  static Result<std::shared_ptr<const ColumnBatch>> FromPage(
      const Bytes& page, size_t num_cols);

  /// A join's output unit: row i is the `left_cols` cells of
  /// pairs[i].left followed by the `right_cols` cells of pairs[i].right,
  /// copied column by column (each column sized once, its string array
  /// allocated only when a string cell appears). Every cell, flag and
  /// row_bytes equals what AppendRow of the two materialized rows,
  /// concatenated, would build.
  static std::shared_ptr<const ColumnBatch> GatherPairs(
      const std::vector<RowPair>& pairs, size_t left_cols,
      size_t right_cols);
  /// The rows `refs` (each from a batch of `num_cols` columns) in order,
  /// gathered column by column; equal to AppendFrom of each.
  static std::shared_ptr<const ColumnBatch> Gather(
      std::span<const RowRef> refs, size_t num_cols);
  /// A projection's output unit: column c is `(*cols)[c]`, all of `rows`
  /// entries (their typed payloads are moved out). Every cell, flag and
  /// row_bytes equals what AppendRow of the boxed rows would build.
  static std::shared_ptr<const ColumnBatch> FromColumns(
      std::vector<VecCol>* cols, size_t rows);

 private:
  void PushCell(size_t c, uint8_t tag, int64_t num, std::string_view str);
  void EndRow(size_t bytes);
  /// Sizes the batch to `n` rows of boxed-row base size; the gathers and
  /// FromColumns fill the columns and add string lengths, then Finish.
  void StartRows(size_t n);
  void FinishRows();
  /// Fills output column `c` from column `src_c` of `ref_at(i)`'s batch
  /// for each output row i.
  template <typename RefAt>
  void GatherColumn(size_t c, size_t src_c, const RefAt& ref_at);

  std::vector<Col> cols_;
  std::vector<uint32_t> row_bytes_;
  uint64_t total_row_bytes_ = 0;
  size_t rows_ = 0;
};

/// One batch plus its active-row selection; the unit flowing between
/// vectorized operators.
struct VecBatch {
  std::shared_ptr<const ColumnBatch> batch;
  SelVec sel;

  size_t active() const { return sel.size(); }
};

/// A relation as a sequence of column batches with selection vectors:
/// the plain pipeline's intermediate representation and the form a
/// SELECT's result takes before any row materializes
/// (ExecuteSelectBatches).
struct VecRel {
  Schema schema;
  std::vector<VecBatch> batches;

  size_t ActiveRows() const {
    size_t n = 0;
    for (const VecBatch& b : batches) n += b.active();
    return n;
  }
  /// Working-set bytes of the active rows under the boxed-row
  /// accounting (RowBytes), the same figure the oblivious mode tracks.
  uint64_t ActiveBytes() const {
    uint64_t total = 0;
    for (const VecBatch& b : batches) {
      for (uint32_t i : b.sel) total += b.batch->row_bytes(i);
    }
    return total;
  }
};

}  // namespace ironsafe::sql

#endif  // IRONSAFE_SQL_COLUMN_BATCH_H_
