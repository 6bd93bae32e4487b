#ifndef IRONSAFE_DIST_FLEET_H_
#define IRONSAFE_DIST_FLEET_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crypto/chacha20.h"
#include "dist/planner.h"
#include "engine/csa_system.h"
#include "sim/cost_model.h"
#include "sql/database.h"
#include "sql/partition.h"
#include "tee/sgx.h"
#include "tee/trustzone.h"

namespace ironsafe::dist {

/// Fleet shape: the shard/replica counts and the table partition scheme
/// (src/tpch's TpchPartitionScheme for the benchmarks). Every storage node
/// runs with the default CsaOptions cores and memory budget, the host EPC
/// is scaled to the loaded data, and the host phase runs one query thread.
struct FleetOptions {
  int shard_count = 4;
  int replicas_per_shard = 2;
  /// Opt-in distributed partial aggregation (PlannerOptions).
  bool partial_aggregation = false;
  /// Tables absent from the scheme are replicated to every node.
  std::vector<sql::TablePartition> partitions;
};

/// Everything measured about one fleet query execution.
struct FleetOutcome {
  sql::QueryResult result;
  sim::CostModel cost;            ///< makespan-merged fleet account
  uint64_t shipped_bytes = 0;     ///< shard -> host result shipping, total
  uint64_t storage_pages_read = 0;  ///< summed over the nodes that executed
  sim::SimNanos storage_phase_ns = 0;  ///< parallel shard phase (makespan)
  sim::SimNanos host_phase_ns = 0;
  sql::ExecStats stats;
  int failovers = 0;              ///< replica failovers during this query
  bool partial_aggregation = false;  ///< the partial-aggregation plan fired
};

/// A sharded multi-node CSA fleet (docs/SHARDING.md): one SGX host engine
/// and `shard_count` replica groups of `replicas_per_shard` TrustZone
/// storage nodes each. Every node is attested against the manufacturer
/// root at creation and speaks to the host over its own SecureChannel;
/// every node holds its group's table slices in an independent secure
/// store (own Merkle root, own RPMB). Queries run the scs configuration
/// generalized to N shards: per-shard fragments near the data, sealed
/// result shipping, host-side merge and remainder.
///
/// Determinism contract: with a fixed seed and scheme, result rows are
/// bit-identical across shard counts AND worker counts (the key-ordered
/// shard merge reconstructs the single-node row streams exactly); cost
/// totals, stats and default traces are bit-identical across worker
/// counts and reruns for a FIXED shard count — across shard counts the
/// elapsed cost shrinks by design (that is the Figure 12 scale-out).
class ShardedCsaFleet {
 public:
  static Result<std::unique_ptr<ShardedCsaFleet>> Create(
      const FleetOptions& options);

  /// Loads a workload once into a staging database via `loader`, then
  /// routes every row to its shard group per the partition scheme and
  /// bulk-loads each group's slice into all of its replicas.
  Status Load(const std::function<Status(sql::Database*)>& loader);

  /// Executes `sql` across the fleet. A `dist.shard.down` fault fails the
  /// group over to its next live replica (bit-identical rows — replicas
  /// hold identical slices); with every replica of a group down the query
  /// returns kUnavailable. `dist.fragment.corrupt` re-keys the shipping
  /// channel and re-sends.
  Result<FleetOutcome> Run(const std::string& sql);

  int replicas_per_shard() const { return options_.replicas_per_shard; }

  /// True when `a` and `b`'s loaded slices co-locate joining keys (same
  /// partition kind and routing parameters) — the planner's co_located
  /// predicate.
  bool CoLocated(const std::string& a, const std::string& b) const;

  /// Per-query planner knob (FleetOptions::partial_aggregation).
  void set_partial_aggregation(bool on) {
    options_.partial_aggregation = on;
  }

  sql::Database* node_db(int group, int replica) {
    return node(group, replica).db.get();
  }

 private:
  /// How one loaded table routes to shard groups (derived at Load).
  struct TableRoute {
    sql::PartitionKind kind = sql::PartitionKind::kReplicated;
    int key_index = -1;
    int64_t min_key = 0;
    int64_t chunk = 1;  ///< range mode: shard = (key - min_key) / chunk
  };

  explicit ShardedCsaFleet(const FleetOptions& options);

  engine::SecureStorageNode& node(int group, int replica) {
    return nodes_[group * options_.replicas_per_shard + replica];
  }
  const engine::SecureStorageNode& node(int group, int replica) const {
    return nodes_[group * options_.replicas_per_shard + replica];
  }

  /// Challenge-response attestation of one node against the manufacturer
  /// root, plus its channel-pair establishment.
  Status AttestAndConnect(engine::SecureStorageNode* n);

  /// Simulated heartbeat-timeout latency before a failover commits.
  static constexpr sim::SimNanos kFailoverDetectionNs = 5'000'000;

  FleetOptions options_;
  /// Host hardware; Load scales its EPC to the loaded data.
  sim::HardwareProfile hardware_ = sim::HardwareProfile::Paper();

  tee::SgxMachine host_machine_;
  std::unique_ptr<tee::SgxEnclave> host_enclave_;
  tee::DeviceManufacturer manufacturer_;
  crypto::Drbg channel_drbg_;
  crypto::Drbg attest_drbg_;

  /// Group-major (g*R + r); each node keeps a long-lived channel pair.
  std::vector<engine::SecureStorageNode> nodes_;
  std::map<std::string, TableRoute> routes_;
};

}  // namespace ironsafe::dist

#endif  // IRONSAFE_DIST_FLEET_H_
