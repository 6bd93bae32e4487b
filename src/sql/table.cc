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

Status Table::CheckRow(const Row& row) const {
  if (row.size() != schema().size()) {
    return Status::InvalidArgument("row arity mismatch for " + name());
  }
  return Status::OK();
}

Status Table::Rewrite(const std::function<Result<bool>(Row*, bool*)>& fn,
                      sim::CostModel* cost, uint64_t* affected) {
  ASSIGN_OR_RETURN(std::vector<Row> rows, ReadRows(*this, cost));
  std::vector<Row> kept;
  uint64_t count = 0;
  for (Row& row : rows) {
    bool modified = false;
    ASSIGN_OR_RETURN(bool keep, fn(&row, &modified));
    if (keep) {
      RETURN_IF_ERROR(CheckRow(row));
      kept.push_back(std::move(row));
      if (modified) ++count;
    } else {
      ++count;
    }
  }
  DropRows();
  BeginBulkLoad();
  for (const Row& row : kept) RETURN_IF_ERROR(Append(row, cost));
  RETURN_IF_ERROR(FinishBulkLoad(cost));
  if (affected != nullptr) *affected = count;
  return Status::OK();
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
  RETURN_IF_ERROR(CheckRow(row));
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

void MemoryTable::DropRows() {
  units_.clear();
  row_count_ = 0;
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
  uint64_t id;
  if (free_pages_.empty()) {
    id = store_->Allocate();
  } else {
    id = free_pages_.back();
    free_pages_.pop_back();
  }
  RETURN_IF_ERROR(store_->WritePage(id, BuildPage(buffer_), cost));
  page_ids_.push_back(id);
  buffer_.clear();
  buffer_bytes_ = 0;
  return Status::OK();
}

Result<Bytes> PagedTable::Encode(const Row& row) const {
  RETURN_IF_ERROR(Table::CheckRow(row));
  Bytes serialized;
  SerializeRow(row, &serialized);
  if (serialized.size() + kPageHeader > PageStore::kPageSize) {
    return Status::InvalidArgument("row larger than a page");
  }
  return serialized;
}

Status PagedTable::CheckRow(const Row& row) const {
  return Encode(row).status();
}

Status PagedTable::Append(const Row& row, sim::CostModel* cost) {
  ASSIGN_OR_RETURN(Bytes serialized, Encode(row));
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

void PagedTable::DropRows() {
  free_pages_.assign(page_ids_.rbegin(), page_ids_.rend());
  page_ids_.clear();
  buffer_.clear();
  buffer_bytes_ = 0;
  row_count_ = 0;
}

}  // namespace ironsafe::sql
