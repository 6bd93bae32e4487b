#include "engine/csa_system.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/retry.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sql/column_batch.h"
#include "sql/parser.h"

namespace ironsafe::engine {

std::string_view SystemConfigName(SystemConfig config) {
  switch (config) {
    case SystemConfig::kHons:
      return "hons";
    case SystemConfig::kHos:
      return "hos";
    case SystemConfig::kVcs:
      return "vcs";
    case SystemConfig::kScs:
      return "scs";
    case SystemConfig::kSos:
      return "sos";
  }
  return "?";
}

void ConfigurablePageStore::BeginQuery(uint64_t cache_bytes, bool remote,
                                       tee::SgxEnclave* enclave) {
  lru_.clear();
  cached_.clear();
  cache_capacity_ = cache_bytes / 4096;
  cache_hits_ = 0;
  pages_read_ = 0;
  remote_ = remote;
  enclave_ = enclave;
}

Result<Bytes> ConfigurablePageStore::ReadPage(uint64_t id,
                                              sim::CostModel* cost) {
  ASSIGN_OR_RETURN(Bytes page, inner_->ReadPage(id, cost));
  if (remote_ && cost != nullptr) cost->ChargeNetworkBytes(page.size());
  if (enclave_ != nullptr) {
    // The enclave exits to fetch the page (SCONE-style ocall, §6.2). An
    // aborted ecall is re-entered with backoff (the SDK's standard
    // recovery); the retry machinery stays off this hot path until a
    // first plain attempt actually fails.
    Status ecall = enclave_->EnterExit(cost);
    if (!ecall.ok()) {
      RetryPolicy policy = obs::ObservedRetryPolicy("tee.ecall", cost);
      policy.retryable = [](const Status& s) { return s.IsUnavailable(); };
      RETURN_IF_ERROR(ResumeRetryWithBackoff(
          policy, std::move(ecall),
          [&]() -> Status { return enclave_->EnterExit(cost); }));
    }
    // Verifying a page inside the enclave touches the data page plus one
    // Merkle node per tree level. With a working set beyond the EPC, a
    // fraction ≈ 1 - EPC/working_set of those touches fault — the
    // paging behaviour §6.3 attributes to host-only secure execution
    // ("the space is taken up by the Merkle tree ... causes EPC paging").
    if (cost != nullptr && working_set_bytes_ > 0) {
      uint64_t epc = cost->profile().sgx.epc_bytes;
      double fault_fraction =
          1.0 - std::min(1.0, static_cast<double>(epc) /
                                  static_cast<double>(working_set_bytes_));
      uint64_t touches = 1 + merkle_depth_;
      auto faults = static_cast<uint64_t>(
          fault_fraction * static_cast<double>(touches) + 0.5);
      if (faults > 0) IRONSAFE_COUNTER_ADD("tee.sgx.epc_faults", faults);
      for (uint64_t i = 0; i < faults; ++i) cost->ChargeEpcFault();
    } else {
      enclave_->TouchMemory(id, page.size(), cost);
    }
  }
  return page;
}

void ConfigurablePageStore::EvictExcess() {
  while (cache_capacity_ > 0 && cached_.size() > cache_capacity_ &&
         !lru_.empty()) {
    cached_.erase(lru_.back());
    lru_.pop_back();
  }
}

Result<sql::DecodedMorsel> ConfigurablePageStore::ReadBatch(
    uint64_t id, size_t num_cols, sim::CostModel* cost) {
  // Page-cache hit: the verified page already sits in engine memory as
  // its decoded batch, so no device, network, enclave, or crypto work is
  // charged.
  if (cache_capacity_ > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = cached_.find(id);
    if (it != cached_.end()) {
      sql::DecodedMorsel hit{it->second.batch, true};
      lock.unlock();
      Record(PageAccess{id, /*hit=*/true});
      return hit;
    }
  }

  ASSIGN_OR_RETURN(Bytes page, ReadPage(id, cost));
  auto batch = sql::ColumnBatch::FromPage(page, num_cols);
  if (batch.ok() && cache_capacity_ > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = cached_.try_emplace(id);
    if (inserted) {
      lru_.push_front(id);
      it->second = CacheEntry{lru_.begin(), *batch};
    }
  }
  Record(PageAccess{id, /*hit=*/false});
  if (!batch.ok()) return batch.status();
  return sql::DecodedMorsel{std::move(*batch), false};
}

void ConfigurablePageStore::Record(PageAccess access) {
  if (parallel_slots_ == 0) {
    Replay(access);
    EvictExcess();
    return;
  }
  // Accesses are filed under the calling task's slot; the bracket owner
  // (slot -1, e.g. a scan running on the coordinating thread outside
  // RunTasks) files under slot 0.
  int slot = common::ThreadPool::current_slot();
  if (slot < 0 || slot >= static_cast<int>(access_log_.size())) slot = 0;
  access_log_[slot].push_back(access);
}

void ConfigurablePageStore::Replay(PageAccess access) {
  ++(access.hit ? cache_hits_ : pages_read_);
  auto it = cached_.find(access.id);
  if (it != cached_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  }
}

void ConfigurablePageStore::BeginParallelRead(int slots) {
  parallel_slots_ = std::max(1, slots);
  access_log_.assign(parallel_slots_, {});
}

void ConfigurablePageStore::EndParallelRead() {
  // Replay the recorded accesses in task order — the order the
  // equivalent serial scan produces — so LRU recency, the hit/read
  // counters and evictions are independent of the real thread schedule.
  // Eviction is deferred to the end of the bracket: during the scan
  // every fetched page stays resident (morsel ranges are disjoint, each
  // page is touched once), so the frozen cache is also a correct
  // working set.
  for (const auto& log : access_log_) {
    for (PageAccess access : log) Replay(access);
  }
  EvictExcess();
  access_log_.clear();
  parallel_slots_ = 0;
}

Status ConfigurablePageStore::WritePage(uint64_t id, const Bytes& page,
                                        sim::CostModel* cost) {
  auto it = cached_.find(id);
  if (it != cached_.end()) {
    lru_.erase(it->second.lru_it);
    cached_.erase(it);
  }
  if (remote_ && cost != nullptr) cost->ChargeNetworkBytes(page.size());
  return inner_->WritePage(id, page, cost);
}

uint64_t ScaledEpcBytes(uint64_t data_bytes) {
  return std::max<uint64_t>(16 * 4096, data_bytes * 96 / 3072);
}

Result<SecureStorageNode> SecureStorageNode::Create(
    const std::string& device_seed,
    const tee::DeviceManufacturer& manufacturer, const std::string& node_id) {
  SecureStorageNode n;
  n.device = std::make_unique<tee::TrustZoneDevice>(
      ToBytes(device_seed), manufacturer,
      tee::StorageNodeConfig{node_id, "eu-west-1", 3});
  n.device->Boot(
      {{"BL2", ToBytes("bl2 v3")},
       {"TrustedOS", ToBytes("op-tee 3.4")},
       {"NormalWorld", ToBytes("linux 5.4.3 + ironsafe storage engine v3")}});
  n.ta = std::make_unique<securestore::SecureStorageTa>(n.device.get());
  n.disk = std::make_unique<storage::BlockDevice>();
  ASSIGN_OR_RETURN(n.store,
                   securestore::SecureStore::Create(n.disk.get(), n.ta.get()));
  n.page_store = std::make_unique<sql::SecurePageStore>(n.store.get());
  n.access = std::make_unique<ConfigurablePageStore>(n.page_store.get());
  n.db = sql::Database::CreatePaged(n.access.get());
  return n;
}

void SecureStorageNode::ProfileSecureReads() {
  uint64_t tree_bytes = store->num_pages() * 96;  // leaf + inner MACs
  access->set_secure_profile(store->merkle_depth(), data_bytes() + tree_bytes);
}

void SecureStorageNode::BeginQuery(uint64_t memory_bytes) {
  access->BeginQuery(memory_bytes);
  store->set_site(sim::Site::kStorage);
}

Result<ChannelPair> ChannelPair::Establish(crypto::Drbg* drbg) {
  ASSIGN_OR_RETURN(auto pair,
                   net::Handshake::FromSessionKey(drbg->Generate(32)));
  return ChannelPair{std::move(pair.first), std::move(pair.second)};
}

sql::ExecOptions StorageExecOptions(int cores, uint64_t memory_bytes,
                                    bool oblivious) {
  sql::ExecOptions opts;
  opts.site = sim::Site::kStorage;
  opts.parallelism = cores;
  opts.memory_cap_bytes = memory_bytes;
  opts.oblivious = oblivious;
  return opts;
}

SplitExecution::SplitExecution(Options options, sim::CostModel* host_cost)
    : options_(std::move(options)), host_cost_(host_cost) {
  if (options_.host_enclave != nullptr) options_.host_enclave->ClearMemory();
}

Result<sql::BatchedRows> SplitExecution::ShipFragment(
    const PartitionedQuery::StorageFragment& fragment,
    sql::Database* storage_db, ChannelPair* channels,
    sim::CostModel* storage_cost, sql::ExecStats* stats,
    std::string_view node_id) {
  obs::SpanGuard frag_span("fragment", options_.span_category, storage_cost);
  frag_span.Tag("source", fragment.source_table);
  frag_span.Tag("dest", fragment.dest_table);
  if (!node_id.empty()) frag_span.Tag("node", node_id);
  ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> frag_stmt,
                   sql::ParseSelect(fragment.sql));
  // The result stays in units: its rows are encoded straight from the
  // columns, never boxed.
  ASSIGN_OR_RETURN(sql::VecRel result,
                   sql::ExecuteSelectBatches(storage_db, *frag_stmt, nullptr,
                                             storage_cost,
                                             options_.storage_exec, stats));

  obs::SpanGuard ship_span("ship", options_.span_category, storage_cost);
  Bytes wire = net::SerializeBatches(result);
  const uint64_t wire_bytes = wire.size();
  shipped_bytes_ += wire_bytes;
  if (channels == nullptr) {
    storage_cost->ChargeNetwork(wire_bytes);
  } else {
    // A dropped frame leaves both endpoints' state untouched, so a plain
    // re-send heals it; a frame the host *rejects* means the endpoints
    // may have desynced, so the pair is re-keyed before the re-send.
    RetryPolicy policy =
        obs::ObservedRetryPolicy(std::string(options_.retry_op), storage_cost);
    ASSIGN_OR_RETURN(
        wire, RetryWithBackoff<Bytes>(policy, [&]() -> Result<Bytes> {
          ASSIGN_OR_RETURN(Bytes frame,
                           channels->storage_end->Send(wire, storage_cost));
          if (!options_.corrupt_fault_site.empty()) {
            if (auto hit = sim::FaultAt(options_.corrupt_fault_site);
                hit && !frame.empty()) {
              frame[hit->param % frame.size()] ^= 0x01;
            }
          }
          // Receiving enters the host enclave once per batch.
          RETURN_IF_ERROR(options_.host_enclave->EnterExit(host_cost_));
          auto opened = channels->host_end->Receive(frame, storage_cost);
          if (!opened.ok()) {
            obs::GetCounter(options_.rehandshake_counter).Increment();
            ASSIGN_OR_RETURN(*channels,
                             ChannelPair::Establish(options_.rekey_drbg));
          }
          return opened;
        }));
  }
  ASSIGN_OR_RETURN(sql::BatchedRows shipped, net::DeserializeBatches(wire));
  // Materialized on the host inside the enclave, the rows occupy EPC.
  if (channels != nullptr) {
    options_.host_enclave->TouchMemory(0x10000 + shipped_bytes_ / 4096,
                                       wire_bytes, host_cost_);
  }
  ship_span.Tag("bytes", static_cast<int64_t>(wire_bytes));
  ship_span.Tag("rows", static_cast<int64_t>(shipped.row_count()));
  return shipped;
}

Result<sql::QueryResult> SplitExecution::RunHostPhase(
    sql::Database* host_db, const sql::SelectStmt& host_query,
    const sql::ExecOptions& host_opts, sql::ExecStats* stats) {
  obs::SpanGuard host_span("host-phase", options_.span_category, host_cost_);
  return sql::ExecuteSelect(host_db, host_query, nullptr, host_cost_,
                            host_opts, stats);
}

CsaSystem::CsaSystem(const CsaOptions& options)
    : options_(options),
      host_machine_(ToBytes("ironsafe-host-platform")),
      manufacturer_(ToBytes("ironsafe-device-manufacturer")),
      plain_store_(&plain_disk_),
      plain_access_(&plain_store_),
      plain_db_(sql::Database::CreatePaged(&plain_access_)),
      channel_drbg_(ToBytes("csa-channel-drbg")) {
  host_enclave_ =
      host_machine_.LoadEnclave("host-engine", ToBytes("ironsafe host engine v3"));
}

Result<std::unique_ptr<CsaSystem>> CsaSystem::Create(
    const CsaOptions& options) {
  auto system = std::unique_ptr<CsaSystem>(new CsaSystem(options));
  ASSIGN_OR_RETURN(system->storage_,
                   SecureStorageNode::Create("ironsafe-storage-lx2160a",
                                             system->manufacturer_,
                                             "storage-1"));
  return system;
}

Status CsaSystem::Load(const std::function<Status(sql::Database*)>& loader) {
  RETURN_IF_ERROR(loader(plain_db_.get()));
  RETURN_IF_ERROR(loader(storage_.db.get()));
  if (options_.scale_epc_to_data) {
    options_.hardware.sgx.epc_bytes = ScaledEpcBytes(storage_.data_bytes());
  }
  storage_.ProfileSecureReads();
  return Status::OK();
}

Result<QueryOutcome> CsaSystem::Run(SystemConfig config,
                                    const std::string& sql) {
  QueryOutcome outcome;
  outcome.cost = sim::CostModel(options_.hardware);
  obs::SpanGuard query_span("query", "engine", &outcome.cost);
  query_span.Tag("config", SystemConfigName(config));
  switch (config) {
    case SystemConfig::kHons:
    case SystemConfig::kHos:
      RETURN_IF_ERROR(
          RunHostOnly(sql, config == SystemConfig::kHos, &outcome));
      return outcome;
    case SystemConfig::kVcs:
    case SystemConfig::kScs:
      RETURN_IF_ERROR(RunSplit(sql, config == SystemConfig::kScs, &outcome));
      return outcome;
    case SystemConfig::kSos:
      RETURN_IF_ERROR(RunStorageOnly(sql, &outcome));
      return outcome;
  }
  return Status::InvalidArgument("unknown system configuration");
}

Status CsaSystem::RunHostOnly(const std::string& sql, bool secure,
                              QueryOutcome* outcome) {
  sql::Database* db = secure ? storage_.db.get() : plain_db_.get();
  ConfigurablePageStore* access =
      secure ? storage_.access.get() : &plain_access_;

  // Host RAM holds the page cache; pages cross the network (NFS, §6.1).
  // Secure-store verification happens on the host CPU, and the host
  // engine runs inside the enclave.
  access->BeginQuery(64ull << 30, /*remote=*/true,
                     secure ? host_enclave_.get() : nullptr);
  if (secure) {
    storage_.store->set_site(sim::Site::kHost);
    host_enclave_->ClearMemory();
  }

  sql::ExecOptions opts;  // host site
  opts.parallelism = options_.host_parallelism;
  opts.oblivious = options_.oblivious;
  obs::SpanGuard exec_span("host-execute", "engine", &outcome->cost);
  auto result = db->Execute(sql, &outcome->cost, opts);
  exec_span.Tag("pages_read", static_cast<int64_t>(access->pages_read()));
  exec_span.Tag("cache_hits", static_cast<int64_t>(access->cache_hits()));
  exec_span.Close();

  access->set_remote(false);
  access->set_enclave(nullptr);
  if (secure) storage_.store->set_site(sim::Site::kStorage);
  RETURN_IF_ERROR(result.status());

  outcome->result = std::move(*result);
  outcome->host_pages_read = access->pages_read();
  outcome->host_phase_ns =
      outcome->cost.elapsed_ns() - outcome->storage_phase_ns;
  return Status::OK();
}

Status CsaSystem::RunStorageOnly(const std::string& sql,
                                 QueryOutcome* outcome) {
  storage_.BeginQuery(options_.storage_memory_bytes);
  ConfigurablePageStore* access = storage_.access.get();

  obs::SpanGuard exec_span("storage-execute", "engine", &outcome->cost);
  auto result = storage_.db->Execute(
      sql, &outcome->cost,
      StorageExecOptions(options_.storage_cores, options_.storage_memory_bytes,
                         options_.oblivious));
  exec_span.Tag("pages_read", static_cast<int64_t>(access->pages_read()));
  exec_span.Tag("cache_hits", static_cast<int64_t>(access->cache_hits()));
  exec_span.Close();
  RETURN_IF_ERROR(result.status());
  outcome->result = std::move(*result);
  outcome->storage_pages_read = access->pages_read();
  outcome->storage_phase_ns = outcome->cost.elapsed_ns();
  return Status::OK();
}

Status CsaSystem::RunSplit(const std::string& sql, bool secure,
                           QueryOutcome* outcome) {
  sim::CostModel* cost = &outcome->cost;
  sql::Database* storage_db = secure ? storage_.db.get() : plain_db_.get();
  ConfigurablePageStore* access =
      secure ? storage_.access.get() : &plain_access_;

  obs::SpanGuard part_span("partition", "engine", cost);
  ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                   sql::ParseSelect(sql));
  PartitionOptions part_options;
  part_options.aggregation_pushdown = options_.aggregation_pushdown;
  ASSIGN_OR_RETURN(PartitionedQuery plan,
                   PartitionQuery(*stmt, *storage_db, part_options));
  part_span.Tag("fragments", static_cast<int64_t>(plan.fragments.size()));
  part_span.Tag("whole_query_offloaded",
                static_cast<int64_t>(plan.whole_query_offloaded ? 1 : 0));
  part_span.Close();

  // Secure configurations ship fragments through a fresh authenticated
  // encrypted channel whose key the monitor distributed (§4.2/§5).
  if (secure) {
    storage_.BeginQuery(options_.storage_memory_bytes);
    ASSIGN_OR_RETURN(storage_.channels, ChannelPair::Establish(&channel_drbg_));
  } else {
    plain_access_.BeginQuery(options_.storage_memory_bytes);
  }
  SplitExecution split(
      {.storage_exec = StorageExecOptions(
           options_.storage_cores, options_.storage_memory_bytes,
           options_.oblivious),
       .host_enclave = secure ? host_enclave_.get() : nullptr,
       .rekey_drbg = &channel_drbg_},
      cost);

  // Phase 1: near-data fragments on the storage engine, each shipped into
  // an in-memory host table.
  obs::SpanGuard storage_span("storage-phase", "engine", cost);
  auto host_db = sql::Database::CreateInMemory();
  Status storage_status = Status::OK();
  for (const auto& frag : plan.fragments) {
    // Injected storage-node outage mid-query: abandon the split plan and
    // degrade to host-side execution below.
    if (sim::FaultAt(sim::fault_site::kEngineStorageDown)) {
      storage_status =
          Status::Unavailable("injected: storage node down before fragment " +
                              frag.dest_table);
      break;
    }
    ASSIGN_OR_RETURN(sql::BatchedRows shipped,
                     split.ShipFragment(frag, storage_db,
                                        secure ? &storage_.channels : nullptr,
                                        cost, &outcome->stats));
    RETURN_IF_ERROR(host_db->CreateTable(frag.dest_table, std::move(shipped)));
  }
  outcome->shipped_bytes = split.shipped_bytes();
  outcome->storage_pages_read = access->pages_read();
  outcome->storage_phase_ns = cost->elapsed_ns();
  storage_span.Tag("pages_read", static_cast<int64_t>(access->pages_read()));
  storage_span.Tag("cache_hits", static_cast<int64_t>(access->cache_hits()));
  storage_span.Tag("shipped_bytes",
                   static_cast<int64_t>(outcome->shipped_bytes));
  storage_span.Close();

  // Graceful degradation: with the storage node down, discard the partial
  // split state and run the whole query host-side (the host-only path of
  // Table 2) against the same stores, so the caller still gets the exact
  // result rows — at host-only cost.
  if (!storage_status.ok()) {
    IRONSAFE_COUNTER_ADD("engine.host_fallbacks", 1);
    obs::SpanGuard fallback_span("host-fallback", "engine", cost);
    fallback_span.Tag("reason", storage_status.message());
    return RunHostOnly(sql, secure, outcome);
  }

  // Phase 2: the host engine runs the remainder over the shipped tables.
  sql::ExecOptions host_opts;  // host site
  host_opts.oblivious = options_.oblivious;
  ASSIGN_OR_RETURN(outcome->result,
                   split.RunHostPhase(host_db.get(), *plan.host_query,
                                      host_opts, &outcome->stats));
  outcome->host_phase_ns = cost->elapsed_ns() - outcome->storage_phase_ns;
  return Status::OK();
}

}  // namespace ironsafe::engine
