#ifndef IRONSAFE_ENGINE_CSA_SYSTEM_H_
#define IRONSAFE_ENGINE_CSA_SYSTEM_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/partitioner.h"
#include "net/secure_channel.h"
#include "securestore/secure_store.h"
#include "sim/cost_model.h"
#include "sql/database.h"
#include "storage/block_device.h"
#include "tee/sgx.h"
#include "tee/trustzone.h"

namespace ironsafe::engine {

/// The five system configurations of the paper's Table 2.
enum class SystemConfig {
  kHons,  ///< host-only, non-secure (NFS-attached storage)
  kHos,   ///< host-only, secure (SGX enclave + secure storage over NFS)
  kVcs,   ///< vanilla computational storage (split execution, no security)
  kScs,   ///< IronSafe: secure computational storage
  kSos,   ///< storage-only, secure
};

std::string_view SystemConfigName(SystemConfig config);

/// Testbed knobs, mirroring §6.1 and the constrained-resource sweeps.
struct CsaOptions {
  double scale_factor = 0.002;
  sim::HardwareProfile hardware = sim::HardwareProfile::Paper();
  int storage_cores = 16;                                  ///< Figure 10
  uint64_t storage_memory_bytes = 32ull * 1024 * 1024 * 1024;  ///< Figure 11
  /// Keeps the paper's database:EPC ratio (~3 GB : 96 MiB) at the bench
  /// scale factor, so host-only secure execution experiences the same
  /// EPC pressure the paper measured. Disable for sweeps that pin the
  /// EPC size themselves (Figure 9a).
  bool scale_epc_to_data = true;
  /// Enables whole-query (aggregation) pushdown in the partitioner —
  /// the paper's §8 future work, exercised by the ablation bench.
  bool aggregation_pushdown = false;
  /// Query fan-out of the host engine in the host-only configurations
  /// (simulated ways and real morsel workers alike); the storage engine's
  /// fan-out is `storage_cores`. The paper's host-only baselines run one
  /// query thread, so the default stays 1.
  int host_parallelism = 1;
  /// Oblivious execution (docs/OBLIVIOUS.md) on both sides: scans read
  /// every page in order with no pushdown, filters/aggregates are
  /// dummy-padded and sorts/joins run on merge networks, so the
  /// page/batch access sequence depends only on data shape, never on
  /// values. Costs rise accordingly (bench/fig_oblivious.cc).
  bool oblivious = false;
};

/// Everything measured about one query execution.
struct QueryOutcome {
  sql::QueryResult result;
  sim::CostModel cost;           ///< simulated time + component breakdown
  uint64_t shipped_bytes = 0;    ///< storage -> host result shipping
  uint64_t storage_pages_read = 0;
  uint64_t host_pages_read = 0;  ///< pages pulled to the host (host-only)
  sim::SimNanos storage_phase_ns = 0;
  sim::SimNanos host_phase_ns = 0;
  sql::ExecStats stats;
};

/// Page-store decorator whose access mode is switched per configuration:
/// optionally ships each page over the network (NFS-style host access)
/// and optionally routes each access through the host enclave (charging
/// transitions and EPC residency).
class ConfigurablePageStore : public sql::PageStore {
 public:
  explicit ConfigurablePageStore(sql::PageStore* inner) : inner_(inner) {}

  void set_remote(bool remote) { remote_ = remote; }
  void set_enclave(tee::SgxEnclave* enclave) { enclave_ = enclave; }

  /// Cold per-query state: counters reset, an empty page cache of
  /// `cache_bytes`, and the query's access mode. The cache holds
  /// verified, decrypted pages — as their decoded column batches — in
  /// the engine's (enclave or storage-application) memory, so re-reads
  /// skip disk, network, crypto and decoding — what the storage memory
  /// budget of Figure 11 buys.
  void BeginQuery(uint64_t cache_bytes, bool remote = false,
                  tee::SgxEnclave* enclave = nullptr);
  uint64_t cache_hits() const { return cache_hits_; }

  /// When reads run inside the enclave, each page verification walks the
  /// Merkle path: one node per level, plus the data page itself. With an
  /// enclave working set (data stream + tree + engine heap) larger than
  /// the EPC, a fraction ≈ 1 - EPC/working_set of those accesses fault
  /// (paper §6.3: "the space is taken up by the Merkle tree ... causes
  /// EPC paging"). `working_set_bytes` is data + tree.
  void set_secure_profile(uint64_t merkle_depth, uint64_t working_set_bytes) {
    merkle_depth_ = merkle_depth;
    working_set_bytes_ = working_set_bytes;
  }

  /// One uncached page fetch: the inner store plus the configured
  /// network / enclave access charges. Touches neither the cache nor the
  /// counters, and is const-safe under concurrency (workers pass private
  /// cost slices; the secure read path mutates nothing).
  Result<Bytes> ReadPage(uint64_t id, sim::CostModel* cost) override;
  /// The cached scan path: a hit returns the cached batch (`cached`
  /// true) and charges nothing — the verified page already sits in
  /// engine memory; a miss fetches through ReadPage, decodes, and caches
  /// the batch (a page that fails to decode is not cached).
  Result<sql::DecodedMorsel> ReadBatch(uint64_t id, size_t num_cols,
                                       sim::CostModel* cost) override;
  Status WritePage(uint64_t id, const Bytes& page,
                   sim::CostModel* cost) override;
  uint64_t Allocate() override { return inner_->Allocate(); }
  uint64_t num_pages() const override { return inner_->num_pages(); }
  void BeginBatch() override { inner_->BeginBatch(); }
  Status EndBatch() override { return inner_->EndBatch(); }

  /// Morsel-scan bracket (see sql::PageStore). Between the two calls
  /// ReadBatch may run concurrently from disjoint-range tasks; cache
  /// lookups go against a mutex-guarded frozen-but-growing cache and the
  /// per-task accesses are logged, then replayed in task order at
  /// EndParallelRead so LRU recency, hit/read counters and evictions are
  /// bit-identical for every worker count (including 1: the executor
  /// brackets every base-table scan). Outside a bracket each access is
  /// replayed at once.
  void BeginParallelRead(int slots) override;
  void EndParallelRead() override;

  /// Misses of ReadBatch: pages fetched (and charged) through ReadPage.
  uint64_t pages_read() const { return pages_read_; }

 private:
  struct CacheEntry {
    std::list<uint64_t>::iterator lru_it;
    std::shared_ptr<const sql::ColumnBatch> batch;
  };
  struct PageAccess {
    uint64_t id;
    bool hit;
  };

  /// Files `access` under the calling task's slot inside a bracket, or
  /// replays it at once outside one.
  void Record(PageAccess access);
  /// Counts `access` and moves its page to the LRU front.
  void Replay(PageAccess access);
  void EvictExcess();

  sql::PageStore* inner_;
  bool remote_ = false;
  tee::SgxEnclave* enclave_ = nullptr;
  uint64_t merkle_depth_ = 0;
  uint64_t working_set_bytes_ = 0;
  uint64_t pages_read_ = 0;

  uint64_t cache_capacity_ = 0;  // pages; 0 disables caching
  uint64_t cache_hits_ = 0;
  std::list<uint64_t> lru_;  // front = most recently used
  std::unordered_map<uint64_t, CacheEntry> cached_;

  // Parallel-read bracket state. `mu_` guards lru_/cached_ insertions
  // while a bracket is open; access_log_[slot] is written only by the
  // task holding that slot.
  std::mutex mu_;
  int parallel_slots_ = 0;
  std::vector<std::vector<PageAccess>> access_log_;
};

/// Host EPC size keeping the paper's database:EPC ratio (§6.1: ~3 GB of
/// TPC-H against a 96 MiB EPC, ~32:1) for `data_bytes` of secure pages.
uint64_t ScaledEpcBytes(uint64_t data_bytes);

/// Storage-site options for fragments executed near the data.
sql::ExecOptions StorageExecOptions(int cores, uint64_t memory_bytes,
                                    bool oblivious);

/// A host↔storage SecureChannel pair under a fresh session key, as the
/// monitor distributes it (§4.2/§5).
struct ChannelPair {
  static Result<ChannelPair> Establish(crypto::Drbg* drbg);

  std::unique_ptr<net::SecureChannel> host_end;
  std::unique_ptr<net::SecureChannel> storage_end;
};

/// One TrustZone computational storage node (§5): a device booted with
/// the storage firmware chain, its secure-storage TA and secure store,
/// the storage engine's database over them, and its channel pair to the
/// host. CsaSystem runs one; every replica of a dist::ShardedCsaFleet
/// group is one.
struct SecureStorageNode {
  static Result<SecureStorageNode> Create(
      const std::string& device_seed,
      const tee::DeviceManufacturer& manufacturer, const std::string& node_id);

  const std::string& node_id() const { return device->config().node_id; }
  uint64_t data_bytes() const { return store->num_pages() * 4096; }
  /// After loading: in-enclave verification walks the Merkle path over a
  /// working set of data plus tree (leaf and inner MACs, 96 B per page).
  void ProfileSecureReads();
  /// Cold per-query state for execution on the node itself.
  void BeginQuery(uint64_t memory_bytes);

  std::unique_ptr<tee::TrustZoneDevice> device;
  std::unique_ptr<securestore::SecureStorageTa> ta;
  std::unique_ptr<storage::BlockDevice> disk;
  std::unique_ptr<securestore::SecureStore> store;
  std::unique_ptr<sql::SecurePageStore> page_store;
  std::unique_ptr<ConfigurablePageStore> access;
  std::unique_ptr<sql::Database> db;
  ChannelPair channels;
};

/// Split execution of one query (§4.1, Figure 5): fragments run near the
/// data, their results ship to the host, the host runs the remainder.
/// CsaSystem's vcs/scs runs and every dist::ShardedCsaFleet shard group
/// go through this one path.
class SplitExecution {
 public:
  struct Options {
    std::string_view span_category = "engine";
    std::string_view retry_op = "net.ship";
    std::string_view rehandshake_counter = "net.channel.rehandshakes";
    std::string_view corrupt_fault_site = {};  ///< optional in-flight bit flip
    sql::ExecOptions storage_exec;
    /// Receives sealed batches. Its resident set is released when the
    /// query starts, so a query failing mid-ship leaves no EPC residency.
    tee::SgxEnclave* host_enclave = nullptr;
    crypto::Drbg* rekey_drbg = nullptr;  ///< re-keys after a host reject
  };

  /// Host-side work (enclave entry, EPC residency, the host phase)
  /// charges `host_cost`.
  SplitExecution(Options options, sim::CostModel* host_cost);

  /// Executes `fragment` on `storage_db` and ships its result to the
  /// host; execution, sealing and ship backoff charge `storage_cost`.
  /// With `channels` the batch is sealed, re-sent under bounded retry
  /// (re-keying the pair after a reject) and received in the host
  /// enclave; without, it crosses the network in plaintext (vcs).
  /// Returns the received rows as host-table units.
  Result<sql::BatchedRows> ShipFragment(
      const PartitionedQuery::StorageFragment& fragment,
      sql::Database* storage_db, ChannelPair* channels,
      sim::CostModel* storage_cost, sql::ExecStats* stats,
      std::string_view node_id = {});

  /// Runs `host_query` over the shipped intermediates in `host_db`.
  Result<sql::QueryResult> RunHostPhase(sql::Database* host_db,
                                        const sql::SelectStmt& host_query,
                                        const sql::ExecOptions& host_opts,
                                        sql::ExecStats* stats);

  uint64_t shipped_bytes() const { return shipped_bytes_; }

 private:
  Options options_;
  sim::CostModel* host_cost_;
  uint64_t shipped_bytes_ = 0;
};

/// The simulated heterogeneous testbed: an SGX host plus a TrustZone
/// storage server with direct-attached NVMe, loaded with the same data
/// twice (plaintext and secure store) so all five configurations of
/// Table 2 run against identical content.
class CsaSystem {
 public:
  static Result<std::unique_ptr<CsaSystem>> Create(const CsaOptions& options);

  /// Loads a workload into both databases via `loader` (called twice).
  Status Load(const std::function<Status(sql::Database*)>& loader);

  /// Executes `sql` under `config`, returning results plus the simulated
  /// cost account. All configurations of the same query return identical
  /// rows — only the placement/security work differs.
  Result<QueryOutcome> Run(SystemConfig config, const std::string& sql);

  /// Runtime knobs for the constrained-resource sweeps (Figures 10/11):
  /// affect only the cost model, not the stored data.
  void set_storage_cores(int cores) { options_.storage_cores = cores; }
  void set_storage_memory_bytes(uint64_t bytes) {
    options_.storage_memory_bytes = bytes;
  }
  void set_aggregation_pushdown(bool on) {
    options_.aggregation_pushdown = on;
  }
  void set_host_parallelism(int n) { options_.host_parallelism = n; }
  void set_oblivious(bool on) { options_.oblivious = on; }
  sql::Database* plain_db() { return plain_db_.get(); }
  sql::Database* secure_db() { return storage_.db.get(); }
  tee::SgxEnclave* host_enclave() { return host_enclave_.get(); }
  tee::TrustZoneDevice* storage_device() { return storage_.device.get(); }
  securestore::SecureStore* secure_store() { return storage_.store.get(); }

  /// The host engine's enclave image measurement (for attestation).
  tee::SgxMachine* host_machine() { return &host_machine_; }

  /// Root of trust that certified the storage device (ROTPK anchor).
  const tee::DeviceManufacturer& manufacturer() const { return manufacturer_; }

 private:
  explicit CsaSystem(const CsaOptions& options);

  // Each runs `sql` under one configuration into `outcome`. RunHostOnly
  // is also the graceful degradation RunSplit takes when the storage
  // node goes down.
  Status RunHostOnly(const std::string& sql, bool secure,
                     QueryOutcome* outcome);
  Status RunSplit(const std::string& sql, bool secure, QueryOutcome* outcome);
  Status RunStorageOnly(const std::string& sql, QueryOutcome* outcome);

  CsaOptions options_;

  // Host side.
  tee::SgxMachine host_machine_;
  std::unique_ptr<tee::SgxEnclave> host_enclave_;

  // Storage side: the secure node, plus the same data in plaintext for
  // the non-secure configurations.
  tee::DeviceManufacturer manufacturer_;
  SecureStorageNode storage_;
  storage::BlockDevice plain_disk_;
  sql::PlainPageStore plain_store_;
  ConfigurablePageStore plain_access_;
  std::unique_ptr<sql::Database> plain_db_;
  crypto::Drbg channel_drbg_;
};

}  // namespace ironsafe::engine

#endif  // IRONSAFE_ENGINE_CSA_SYSTEM_H_
