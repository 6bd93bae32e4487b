#ifndef IRONSAFE_SQL_TABLE_H_
#define IRONSAFE_SQL_TABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sql/page_store.h"
#include "sql/schema.h"

namespace ironsafe::sql {

class ColumnBatch;

/// A named relation. Implementations: MemoryTable (host intermediates)
/// and PagedTable (on-device heap file over a PageStore).
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}
  virtual ~Table() = default;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  virtual Status Append(const Row& row, sim::CostModel* cost) = 0;
  virtual uint64_t row_count() const = 0;
  virtual uint64_t page_count() const = 0;

  /// The one scan API. A table is divided into `morsel_units` equally
  /// scannable units (pages for paged tables, row blocks for memory
  /// tables); decoding units [0, morsel_units) in order yields the rows
  /// in table order, so the batches of a contiguous partition of units
  /// concatenate to a full scan. An empty table has 0 units.
  virtual uint64_t morsel_units() const = 0;

  /// Decodes morsel unit `unit` into one column batch (the vectorized
  /// engine's scan granule), charging the unit's page I/O and security
  /// work to `cost`.
  virtual Result<DecodedMorsel> DecodeMorselBatch(
      uint64_t unit, sim::CostModel* cost) const = 0;

  /// Brackets a concurrent morsel scan (forwarded to the page store so
  /// caches can defer state updates; see PageStore::BeginParallelRead).
  virtual void BeginParallelScan(int slots) { (void)slots; }
  virtual void EndParallelScan() {}

  /// Rewrites the table in place: `fn` returns false to delete the row
  /// and may mutate it. Returns the number of affected (deleted or kept-
  /// modified) rows as counted by `modified`. Every row is read and
  /// passed through `fn`, and every kept row checked with CheckRow,
  /// before anything is dropped, so a failure of either leaves the table
  /// unchanged and writes nothing. The kept rows are then re-appended
  /// inside one bulk load.
  Status Rewrite(const std::function<Result<bool>(Row*, bool* modified)>& fn,
                 sim::CostModel* cost, uint64_t* affected);

  /// Bulk-load bracket; flushes buffered pages / commits secure roots.
  virtual void BeginBulkLoad() {}
  virtual Status FinishBulkLoad(sim::CostModel* cost) {
    (void)cost;
    return Status::OK();
  }

 protected:
  /// OK when Append would accept `row`: its arity matches the schema
  /// (and, for a paged table, it fits in one page).
  virtual Status CheckRow(const Row& row) const;
  /// Drops every row ahead of Rewrite's re-append.
  virtual void DropRows() = 0;

 private:
  std::string name_;
  Schema schema_;
};

/// Every row of `table` in table order, decoded unit by unit through
/// DecodeMorselBatch (page reads and security work charged to `cost`).
Result<std::vector<Row>> ReadRows(const Table& table, sim::CostModel* cost);

/// A relation as MemoryTable stores it: column batches of
/// MemoryTable::kRowsPerMorsel rows, full units then at most one partial
/// tail. A shipped fragment is decoded into this form and becomes a host
/// table as it is.
struct BatchedRows {
  Schema schema;
  std::vector<std::shared_ptr<ColumnBatch>> units;

  uint64_t row_count() const;
};

/// The unit the next row goes to: the tail of `units`, or a new unit of
/// `num_cols` columns when the tail is full. A tail that a scan still
/// holds is copied first, so a batch once handed out never changes.
ColumnBatch* TailUnit(size_t num_cols,
                      std::vector<std::shared_ptr<ColumnBatch>>* units);

/// Rows in RAM, stored once as column batches of kRowsPerMorsel rows —
/// the host engine's shipped intermediates and small in-memory
/// databases. A scan hands out the stored batches themselves; an Append
/// never mutates a batch a scan may still hold (it copies the tail unit
/// first), so handed-out batches stay immutable.
class MemoryTable : public Table {
 public:
  /// Holds `rows`' units as they are.
  MemoryTable(std::string name, BatchedRows rows);

  Status Append(const Row& row, sim::CostModel* cost) override;
  uint64_t row_count() const override { return row_count_; }
  uint64_t page_count() const override;
  uint64_t morsel_units() const override { return units_.size(); }
  /// Never `cached`: host scans pay the full decode charge per row.
  Result<DecodedMorsel> DecodeMorselBatch(uint64_t unit,
                                          sim::CostModel* cost) const override;

  /// Rows per morsel unit: small enough to load-balance skewed filters,
  /// large enough that per-unit overhead stays negligible.
  static constexpr uint64_t kRowsPerMorsel = 1024;

 protected:
  void DropRows() override;

 private:
  /// Full units of kRowsPerMorsel rows, then at most one partial tail.
  std::vector<std::shared_ptr<ColumnBatch>> units_;
  uint64_t row_count_ = 0;
};

/// Heap file over 4 KiB pages: page = u16 row_count || serialized rows.
/// Rows never span pages; a row larger than a page is rejected.
class PagedTable : public Table {
 public:
  PagedTable(std::string name, Schema schema, PageStore* store)
      : Table(std::move(name), std::move(schema)), store_(store) {}

  Status Append(const Row& row, sim::CostModel* cost) override;
  uint64_t row_count() const override { return row_count_; }
  uint64_t page_count() const override {
    return page_ids_.size() + (buffer_.empty() ? 0 : 1);
  }
  /// One unit per page, plus a trailing unit for unflushed buffered rows.
  uint64_t morsel_units() const override { return page_count(); }
  Result<DecodedMorsel> DecodeMorselBatch(uint64_t unit,
                                          sim::CostModel* cost) const override;
  void BeginParallelScan(int slots) override {
    store_->BeginParallelRead(slots);
  }
  void EndParallelScan() override { store_->EndParallelRead(); }

  void BeginBulkLoad() override { store_->BeginBatch(); }
  /// Flushes the buffered rows; page ids a rewrite freed and did not
  /// refill are dropped, never reused by later appends.
  Status FinishBulkLoad(sim::CostModel* cost) override {
    RETURN_IF_ERROR(FlushBuffer(cost));
    free_pages_.clear();
    return store_->EndBatch();
  }

  const std::vector<uint64_t>& page_ids() const { return page_ids_; }

 protected:
  Status CheckRow(const Row& row) const override;
  /// Frees the page ids in order for FlushBuffer to refill.
  void DropRows() override;

 private:
  /// `row` serialized, after CheckRow's arity and page-size checks.
  Result<Bytes> Encode(const Row& row) const;
  /// Writes the buffered rows as one page: the next freed page id, else a
  /// newly allocated one.
  Status FlushBuffer(sim::CostModel* cost);

  PageStore* store_;
  std::vector<uint64_t> page_ids_;
  /// Page ids freed by DropRows, the next one to reuse at the back.
  std::vector<uint64_t> free_pages_;
  uint64_t row_count_ = 0;
  // Rows waiting to fill the current page.
  std::vector<Bytes> buffer_;  // serialized rows
  size_t buffer_bytes_ = 0;
};

}  // namespace ironsafe::sql

#endif  // IRONSAFE_SQL_TABLE_H_
