#include "sql/table.h"

#include "sql/column_batch.h"

namespace ironsafe::sql {

Result<std::vector<Row>> ReadRows(const Table& table, sim::CostModel* cost) {
  std::vector<Row> rows;
  rows.reserve(table.row_count());
  for (uint64_t unit = 0; unit < table.morsel_units(); ++unit) {
    ASSIGN_OR_RETURN(DecodedMorsel decoded,
                     table.DecodeMorselBatch(unit, cost));
    const ColumnBatch& batch = *decoded.batch;
    for (size_t r = 0; r < batch.rows(); ++r) {
      batch.MaterializeRow(r, &rows.emplace_back());
    }
  }
  return rows;
}

// ------------------------------------------------------ MemoryTable ----

namespace {
/// Appends `row` to the tail unit of `units`, opening a new unit when the
/// tail is full. A tail that a scan still holds is copied first, so a
/// batch once handed out never changes.
void AppendToUnits(const Row& row, size_t num_cols,
                   std::vector<std::shared_ptr<ColumnBatch>>* units) {
  if (units->empty() ||
      units->back()->rows() == MemoryTable::kRowsPerMorsel) {
    units->push_back(std::make_shared<ColumnBatch>(num_cols));
  } else if (units->back().use_count() > 1) {
    units->back() = std::make_shared<ColumnBatch>(*units->back());
  }
  units->back()->AppendRow(row);
}
}  // namespace

Status MemoryTable::Append(const Row& row, sim::CostModel* cost) {
  (void)cost;
  // Checked here because ColumnBatch::AppendRow pads a short row.
  if (row.size() != schema().size()) {
    return Status::InvalidArgument("row arity mismatch for " + name());
  }
  AppendToUnits(row, schema().size(), &units_);
  ++row_count_;
  return Status::OK();
}

Result<DecodedMorsel> MemoryTable::DecodeMorselBatch(
    uint64_t unit, sim::CostModel* cost) const {
  (void)cost;
  if (unit >= units_.size()) {
    return Status::InvalidArgument("morsel unit out of range for " + name());
  }
  return DecodedMorsel{units_[unit], false};
}

uint64_t MemoryTable::page_count() const {
  uint64_t bytes = 0;
  for (const auto& unit : units_) bytes += unit->total_row_bytes();
  return (bytes + PageStore::kPageSize - 1) / PageStore::kPageSize;
}

Status MemoryTable::Rewrite(const std::function<Result<bool>(Row*, bool*)>& fn,
                            sim::CostModel* cost, uint64_t* affected) {
  ASSIGN_OR_RETURN(std::vector<Row> rows, ReadRows(*this, cost));
  std::vector<std::shared_ptr<ColumnBatch>> units;
  uint64_t kept = 0;
  uint64_t count = 0;
  for (Row& row : rows) {
    bool modified = false;
    ASSIGN_OR_RETURN(bool keep, fn(&row, &modified));
    if (keep) {
      AppendToUnits(row, schema().size(), &units);
      ++kept;
      if (modified) ++count;
    } else {
      ++count;
    }
  }
  units_ = std::move(units);
  row_count_ = kept;
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

Result<DecodedMorsel> PagedTable::DecodeMorselBatch(
    uint64_t unit, sim::CostModel* cost) const {
  if (unit < page_ids_.size()) {
    return store_->ReadBatch(page_ids_[unit], schema().size(), cost);
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
  ASSIGN_OR_RETURN(std::vector<Row> rows, ReadRows(*this, cost));
  std::vector<Row> kept;
  uint64_t count = 0;
  for (Row& row : rows) {
    bool modified = false;
    ASSIGN_OR_RETURN(bool keep, fn(&row, &modified));
    if (keep) {
      kept.push_back(std::move(row));
      if (modified) ++count;
    } else {
      ++count;
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
