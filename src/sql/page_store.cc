#include "sql/page_store.h"

#include "sql/column_batch.h"

namespace ironsafe::sql {

Result<DecodedMorsel> PageStore::ReadBatch(uint64_t id, size_t num_cols,
                                           sim::CostModel* cost) {
  ASSIGN_OR_RETURN(Bytes page, ReadPage(id, cost));
  ASSIGN_OR_RETURN(auto batch, ColumnBatch::FromPage(page, num_cols));
  return DecodedMorsel{std::move(batch), false};
}

Result<Bytes> PlainPageStore::ReadPage(uint64_t id, sim::CostModel* cost) {
  return device_->ReadFrame(id, cost);
}

Status PlainPageStore::WritePage(uint64_t id, const Bytes& page,
                                 sim::CostModel* cost) {
  (void)cost;
  if (page.size() != kPageSize) {
    return Status::InvalidArgument("page must be 4096 bytes");
  }
  if (id >= next_page_) next_page_ = id + 1;
  device_->WriteFrame(id, page);
  return Status::OK();
}

Result<Bytes> SecurePageStore::ReadPage(uint64_t id, sim::CostModel* cost) {
  return store_->ReadPage(id, cost);
}

Status SecurePageStore::WritePage(uint64_t id, const Bytes& page,
                                  sim::CostModel* cost) {
  if (id >= next_page_) next_page_ = id + 1;
  return store_->WritePage(id, page, cost);
}

uint64_t SecurePageStore::Allocate() {
  if (next_page_ < store_->num_pages()) next_page_ = store_->num_pages();
  return next_page_++;
}

}  // namespace ironsafe::sql
