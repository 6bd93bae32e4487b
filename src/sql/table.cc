#include "sql/table.h"

#include <algorithm>

#include "sql/column_batch.h"

namespace ironsafe::sql {

Result<DecodedMorsel> Table::DecodeMorselBatch(uint64_t unit,
                                               sim::CostModel* cost) const {
  auto batch = std::make_shared<ColumnBatch>(schema().size());
  auto cursor = NewMorselCursor(unit, unit + 1, cost);
  if (cursor == nullptr) {
    return Status::InvalidArgument("table does not support morsel scans");
  }
  Row row;
  while (true) {
    ASSIGN_OR_RETURN(bool more, cursor->Next(&row));
    if (!more) break;
    batch->AppendRow(row);
  }
  return DecodedMorsel{std::move(batch), false};
}

// ------------------------------------------------------ MemoryTable ----

namespace {
class MemoryTableCursor : public TableCursor {
 public:
  MemoryTableCursor(const std::vector<Row>* rows, size_t begin, size_t end)
      : rows_(rows), pos_(begin), end_(end) {}

  Result<bool> Next(Row* row) override {
    if (pos_ >= end_) return false;
    *row = (*rows_)[pos_++];
    return true;
  }

 private:
  const std::vector<Row>* rows_;
  size_t pos_;
  size_t end_;
};
}  // namespace

Status MemoryTable::Append(const Row& row, sim::CostModel* cost) {
  (void)cost;
  if (row.size() != schema().size()) {
    return Status::InvalidArgument("row arity mismatch for " + name());
  }
  rows_.push_back(row);
  return Status::OK();
}

std::unique_ptr<TableCursor> MemoryTable::NewCursor(
    sim::CostModel* cost) const {
  (void)cost;
  return std::make_unique<MemoryTableCursor>(&rows_, 0, rows_.size());
}

uint64_t MemoryTable::morsel_units() const {
  return (rows_.size() + kRowsPerMorsel - 1) / kRowsPerMorsel;
}

std::unique_ptr<TableCursor> MemoryTable::NewMorselCursor(
    uint64_t begin, uint64_t end, sim::CostModel* cost) const {
  (void)cost;
  size_t row_begin = std::min<size_t>(begin * kRowsPerMorsel, rows_.size());
  size_t row_end = std::min<size_t>(end * kRowsPerMorsel, rows_.size());
  return std::make_unique<MemoryTableCursor>(&rows_, row_begin, row_end);
}

Result<DecodedMorsel> MemoryTable::DecodeMorselBatch(
    uint64_t unit, sim::CostModel* cost) const {
  (void)cost;
  size_t begin = std::min<size_t>(unit * kRowsPerMorsel, rows_.size());
  size_t end = std::min<size_t>((unit + 1) * kRowsPerMorsel, rows_.size());
  auto batch = std::make_shared<ColumnBatch>(schema().size());
  for (size_t i = begin; i < end; ++i) batch->AppendRow(rows_[i]);
  return DecodedMorsel{std::move(batch), false};
}

uint64_t MemoryTable::page_count() const {
  size_t bytes = 0;
  for (const Row& r : rows_) bytes += RowBytes(r);
  return (bytes + PageStore::kPageSize - 1) / PageStore::kPageSize;
}

Status MemoryTable::Rewrite(const std::function<Result<bool>(Row*, bool*)>& fn,
                            sim::CostModel* cost, uint64_t* affected) {
  (void)cost;
  std::vector<Row> kept;
  uint64_t count = 0;
  for (Row& row : rows_) {
    bool modified = false;
    ASSIGN_OR_RETURN(bool keep, fn(&row, &modified));
    if (keep) {
      kept.push_back(std::move(row));
      if (modified) ++count;
    } else {
      ++count;
    }
  }
  rows_ = std::move(kept);
  if (affected != nullptr) *affected = count;
  return Status::OK();
}

// ------------------------------------------------------- PagedTable ----

namespace {
constexpr size_t kPageHeader = 2;  // u16 row count

Bytes BuildPage(const std::vector<Bytes>& rows) {
  Bytes page;
  page.reserve(PageStore::kPageSize);
  PutU16(&page, static_cast<uint16_t>(rows.size()));
  for (const Bytes& r : rows) Append(&page, r);
  page.resize(PageStore::kPageSize, 0);
  return page;
}
}  // namespace

Status PagedTable::FlushBuffer(sim::CostModel* cost) {
  if (buffer_.empty()) return Status::OK();
  uint64_t id = store_->Allocate();
  RETURN_IF_ERROR(store_->WritePage(id, BuildPage(buffer_), cost));
  page_ids_.push_back(id);
  buffer_.clear();
  buffer_bytes_ = 0;
  return Status::OK();
}

Status PagedTable::Append(const Row& row, sim::CostModel* cost) {
  if (row.size() != schema().size()) {
    return Status::InvalidArgument("row arity mismatch for " + name());
  }
  Bytes serialized;
  SerializeRow(row, &serialized);
  if (serialized.size() + kPageHeader > PageStore::kPageSize) {
    return Status::InvalidArgument("row larger than a page");
  }
  if (kPageHeader + buffer_bytes_ + serialized.size() >
      PageStore::kPageSize) {
    RETURN_IF_ERROR(FlushBuffer(cost));
  }
  buffer_bytes_ += serialized.size();
  buffer_.push_back(std::move(serialized));
  ++row_count_;
  return Status::OK();
}

namespace {
/// Scans flushed pages [page_begin, page_end) of the page-id list; the
/// index one past the last flushed page addresses the unflushed buffer,
/// so a full-range cursor ([0, page_count)) reproduces table order.
class PagedTableCursor : public TableCursor {
 public:
  PagedTableCursor(PageStore* store, const std::vector<uint64_t>* pages,
                   const std::vector<Bytes>* buffer, size_t page_begin,
                   size_t page_end, sim::CostModel* cost)
      : store_(store),
        pages_(pages),
        buffer_(buffer),
        page_index_(page_begin),
        page_end_(page_end),
        cost_(cost) {}

  Result<bool> Next(Row* row) override {
    while (true) {
      if (rows_left_ > 0) {
        ASSIGN_OR_RETURN(Row r, DeserializeRow(&*reader_));
        *row = std::move(r);
        --rows_left_;
        return true;
      }
      if (page_index_ < std::min(page_end_, pages_->size())) {
        ASSIGN_OR_RETURN(current_page_,
                         store_->ReadPage((*pages_)[page_index_++], cost_));
        reader_.emplace(current_page_);
        ASSIGN_OR_RETURN(uint16_t n, reader_->ReadU16());
        rows_left_ = n;
        continue;
      }
      // Unflushed buffered rows (the trailing pseudo-page).
      if (page_end_ > pages_->size() && buffer_pos_ < buffer_->size()) {
        ByteReader r((*buffer_)[buffer_pos_++]);
        ASSIGN_OR_RETURN(Row rr, DeserializeRow(&r));
        *row = std::move(rr);
        return true;
      }
      return false;
    }
  }

 private:
  PageStore* store_;
  const std::vector<uint64_t>* pages_;
  const std::vector<Bytes>* buffer_;
  size_t page_index_;
  size_t page_end_;
  sim::CostModel* cost_;
  Bytes current_page_;
  std::optional<ByteReader> reader_;
  uint16_t rows_left_ = 0;
  size_t buffer_pos_ = 0;
};
}  // namespace

std::unique_ptr<TableCursor> PagedTable::NewCursor(
    sim::CostModel* cost) const {
  return std::make_unique<PagedTableCursor>(store_, &page_ids_, &buffer_, 0,
                                            page_count(), cost);
}

std::unique_ptr<TableCursor> PagedTable::NewMorselCursor(
    uint64_t begin, uint64_t end, sim::CostModel* cost) const {
  return std::make_unique<PagedTableCursor>(store_, &page_ids_, &buffer_,
                                            begin, end, cost);
}

Result<DecodedMorsel> PagedTable::DecodeMorselBatch(
    uint64_t unit, sim::CostModel* cost) const {
  if (unit < page_ids_.size()) {
    uint64_t id = page_ids_[unit];
    // The page read always happens first: decoded-batch hits must leave
    // the encoded page cache, its counters and every security charge
    // exactly as a fresh decode of the same unit would.
    ASSIGN_OR_RETURN(Bytes page, store_->ReadPage(id, cost));
    if (auto cached = store_->CachedBatch(id); cached != nullptr) {
      return DecodedMorsel{std::move(cached), true};
    }
    ASSIGN_OR_RETURN(auto batch, ColumnBatch::FromPage(page, schema().size()));
    store_->CacheBatch(id, batch);
    return DecodedMorsel{std::move(batch), false};
  }
  // The trailing pseudo-page of unflushed rows is never cached: it has
  // no page id and mutates on every Append.
  auto batch = std::make_shared<ColumnBatch>(schema().size());
  for (const Bytes& serialized : buffer_) {
    ByteReader reader(serialized);
    RETURN_IF_ERROR(batch->AppendSerialized(&reader));
  }
  return DecodedMorsel{std::move(batch), false};
}

Status PagedTable::Rewrite(const std::function<Result<bool>(Row*, bool*)>& fn,
                           sim::CostModel* cost, uint64_t* affected) {
  // Read everything, apply, rewrite pages in place (reusing page ids).
  std::vector<Row> kept;
  uint64_t count = 0;
  {
    auto cursor = NewCursor(cost);
    Row row;
    while (true) {
      ASSIGN_OR_RETURN(bool more, cursor->Next(&row));
      if (!more) break;
      bool modified = false;
      ASSIGN_OR_RETURN(bool keep, fn(&row, &modified));
      if (keep) {
        kept.push_back(row);
        if (modified) ++count;
      } else {
        ++count;
      }
    }
  }
  // Re-pack into the existing page list (allocate more if needed).
  std::vector<uint64_t> old_pages = std::move(page_ids_);
  page_ids_.clear();
  buffer_.clear();
  buffer_bytes_ = 0;
  row_count_ = 0;
  size_t reuse_index = 0;
  store_->BeginBatch();
  for (const Row& row : kept) {
    Bytes serialized;
    SerializeRow(row, &serialized);
    if (kPageHeader + buffer_bytes_ + serialized.size() >
        PageStore::kPageSize) {
      uint64_t id = reuse_index < old_pages.size() ? old_pages[reuse_index++]
                                                   : store_->Allocate();
      RETURN_IF_ERROR(store_->WritePage(id, BuildPage(buffer_), cost));
      page_ids_.push_back(id);
      buffer_.clear();
      buffer_bytes_ = 0;
    }
    buffer_bytes_ += serialized.size();
    buffer_.push_back(std::move(serialized));
    ++row_count_;
  }
  if (!buffer_.empty()) {
    uint64_t id = reuse_index < old_pages.size() ? old_pages[reuse_index++]
                                                 : store_->Allocate();
    RETURN_IF_ERROR(store_->WritePage(id, BuildPage(buffer_), cost));
    page_ids_.push_back(id);
    buffer_.clear();
    buffer_bytes_ = 0;
  }
  RETURN_IF_ERROR(store_->EndBatch());
  if (affected != nullptr) *affected = count;
  return Status::OK();
}

}  // namespace ironsafe::sql
