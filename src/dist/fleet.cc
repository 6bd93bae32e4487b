#include "dist/fleet.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sql/parser.h"

namespace ironsafe::dist {

namespace {

/// Shard group for one row under a derived route.
int RouteRow(int key_index, sql::PartitionKind kind, int64_t min_key,
             int64_t chunk, const sql::Row& row, int shard_count) {
  int64_t key = row[key_index].AsInt();
  if (kind == sql::PartitionKind::kHash) {
    return static_cast<int>(sql::PartitionHash(static_cast<uint64_t>(key)) %
                            static_cast<uint64_t>(shard_count));
  }
  int64_t offset = std::max<int64_t>(0, key - min_key);
  return static_cast<int>(std::min<int64_t>(offset / chunk, shard_count - 1));
}

}  // namespace

ShardedCsaFleet::ShardedCsaFleet(const FleetOptions& options)
    : options_(options),
      host_machine_(ToBytes("ironsafe-host-platform")),
      manufacturer_(ToBytes("ironsafe-device-manufacturer")),
      channel_drbg_(ToBytes("dist-channel-drbg")),
      attest_drbg_(ToBytes("dist-attest-drbg")) {
  host_enclave_ = host_machine_.LoadEnclave(
      "host-engine", ToBytes("ironsafe host engine v3"));
}

Result<std::unique_ptr<ShardedCsaFleet>> ShardedCsaFleet::Create(
    const FleetOptions& options) {
  if (options.shard_count < 1) {
    return Status::InvalidArgument("shard_count must be >= 1");
  }
  if (options.replicas_per_shard < 1) {
    return Status::InvalidArgument("replicas_per_shard must be >= 1");
  }
  auto fleet = std::unique_ptr<ShardedCsaFleet>(new ShardedCsaFleet(options));
  for (int g = 0; g < options.shard_count; ++g) {
    for (int r = 0; r < options.replicas_per_shard; ++r) {
      std::string node_id =
          "shard" + std::to_string(g) + "-r" + std::to_string(r);
      ASSIGN_OR_RETURN(engine::SecureStorageNode n,
                       engine::SecureStorageNode::Create(
                           "ironsafe-storage-lx2160a-" + node_id,
                           fleet->manufacturer_, node_id));
      RETURN_IF_ERROR(fleet->AttestAndConnect(&n));
      fleet->nodes_.push_back(std::move(n));
    }
  }
  return fleet;
}

Status ShardedCsaFleet::AttestAndConnect(engine::SecureStorageNode* n) {
  // Challenge-response attestation against the manufacturer root (the
  // monitor's admission step, paper Figure 4.b): only a node whose boot
  // chain verifies joins the fleet and receives a channel key.
  Bytes challenge = attest_drbg_.Generate(32);
  ASSIGN_OR_RETURN(tee::TzAttestationResponse response,
                   n->device->RespondToChallenge(challenge));
  RETURN_IF_ERROR(tee::VerifyTzAttestation(manufacturer_.root_public_key(),
                                           n->node_id(), challenge, response));
  IRONSAFE_COUNTER_ADD("dist.attestations", 1);
  ASSIGN_OR_RETURN(n->channels, engine::ChannelPair::Establish(&channel_drbg_));
  return Status::OK();
}

Status ShardedCsaFleet::Load(
    const std::function<Status(sql::Database*)>& loader) {
  // Generate once into a staging database, then route each row to its
  // shard group and load every replica of the group with the identical
  // slice. Loaders insert in ascending partition-key order, so each
  // slice inherits key-sorted row order — the property the host's
  // k-way shard merge needs to reconstruct single-node row order.
  auto staging = sql::Database::CreateInMemory();
  RETURN_IF_ERROR(loader(staging.get()));

  routes_.clear();
  for (const std::string& name : staging->TableNames()) {
    ASSIGN_OR_RETURN(sql::Table * table, staging->GetTable(name));
    ASSIGN_OR_RETURN(std::vector<sql::Row> rows,
                     sql::ReadRows(*table, nullptr));

    const sql::TablePartition* spec = nullptr;
    for (const sql::TablePartition& s : options_.partitions) {
      if (s.table == name) spec = &s;
    }

    TableRoute route;
    if (spec != nullptr && spec->kind != sql::PartitionKind::kReplicated) {
      route.kind = spec->kind;
      route.key_index = table->schema().Find(spec->key_column);
      if (route.key_index < 0) {
        return Status::InvalidArgument("partition key " + spec->key_column +
                                       " not found in table " + name);
      }
      for (const sql::Row& row : rows) {
        if (row[route.key_index].type() != sql::Type::kInt64) {
          return Status::InvalidArgument("partition key " + spec->key_column +
                                         " of " + name + " must be INTEGER");
        }
      }
      if (route.kind == sql::PartitionKind::kRange) {
        int64_t min_key = std::numeric_limits<int64_t>::max();
        int64_t max_key = std::numeric_limits<int64_t>::min();
        for (const sql::Row& row : rows) {
          int64_t key = row[route.key_index].AsInt();
          min_key = std::min(min_key, key);
          max_key = std::max(max_key, key);
        }
        if (rows.empty()) min_key = max_key = 0;
        route.min_key = min_key;
        int64_t span = max_key - min_key + 1;
        route.chunk = std::max<int64_t>(
            1, (span + options_.shard_count - 1) / options_.shard_count);
      }
    }

    std::vector<std::vector<sql::Row>> slices(options_.shard_count);
    if (route.kind == sql::PartitionKind::kReplicated) {
      for (auto& slice : slices) slice = rows;
    } else {
      for (sql::Row& row : rows) {
        slices[RouteRow(route.key_index, route.kind, route.min_key,
                        route.chunk, row, options_.shard_count)]
            .push_back(std::move(row));
      }
    }

    for (int g = 0; g < options_.shard_count; ++g) {
      for (int r = 0; r < options_.replicas_per_shard; ++r) {
        RETURN_IF_ERROR(node_db(g, r)->CreateTable(name, table->schema()));
        RETURN_IF_ERROR(node_db(g, r)->BulkLoad(name, slices[g], nullptr));
      }
    }
    routes_[name] = route;
  }

  // Keep the paper's database:EPC pressure ratio against one logical
  // copy of the data (replicas don't raise host EPC pressure), and give
  // each node its secure-read profile for its own store.
  uint64_t data_bytes = 0;
  for (int g = 0; g < options_.shard_count; ++g) {
    data_bytes += node(g, 0).data_bytes();
  }
  hardware_.sgx.epc_bytes = engine::ScaledEpcBytes(data_bytes);
  for (engine::SecureStorageNode& n : nodes_) n.ProfileSecureReads();
  return Status::OK();
}

bool ShardedCsaFleet::CoLocated(const std::string& a,
                                const std::string& b) const {
  auto ia = routes_.find(a);
  auto ib = routes_.find(b);
  if (ia == routes_.end() || ib == routes_.end()) return false;
  const TableRoute& ra = ia->second;
  const TableRoute& rb = ib->second;
  if (ra.kind != rb.kind) return false;
  // Hash routes place equal key values identically regardless of table;
  // range routes need the same window geometry.
  if (ra.kind == sql::PartitionKind::kHash) return true;
  if (ra.kind == sql::PartitionKind::kRange) {
    return ra.min_key == rb.min_key && ra.chunk == rb.chunk;
  }
  return false;
}

Result<FleetOutcome> ShardedCsaFleet::Run(const std::string& sql) {
  FleetOutcome outcome;
  outcome.cost = sim::CostModel(hardware_);
  obs::SpanGuard query_span("query", "dist", &outcome.cost);
  query_span.Tag("shards", static_cast<int64_t>(options_.shard_count));

  obs::SpanGuard plan_span("plan", "dist", &outcome.cost);
  ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                   sql::ParseSelect(sql));
  PlannerOptions planner_options;
  planner_options.shard_count = options_.shard_count;
  planner_options.partial_aggregation = options_.partial_aggregation;
  planner_options.co_located = [this](const std::string& a,
                                      const std::string& b) {
    return CoLocated(a, b);
  };
  ASSIGN_OR_RETURN(DistPlan plan,
                   PlanQuery(*stmt, *node_db(0, 0), options_.partitions,
                             planner_options));
  outcome.partial_aggregation = plan.partial_aggregation;
  plan_span.Tag("fragments", static_cast<int64_t>(plan.fragments.size()));
  plan_span.Tag("partial_aggregation",
                static_cast<int64_t>(plan.partial_aggregation ? 1 : 0));
  plan_span.Close();

  // Cold per-query engine state on every node, as in the single-node
  // testbed: counters, page cache, storage-site crypto accounting.
  const engine::CsaOptions node_options;
  for (engine::SecureStorageNode& n : nodes_) {
    n.BeginQuery(node_options.storage_memory_bytes);
  }
  engine::SplitExecution split(
      {.span_category = "dist",
       .retry_op = "dist.ship",
       .rehandshake_counter = "dist.channel.rehandshakes",
       .corrupt_fault_site = sim::fault_site::kDistFragmentCorrupt,
       .storage_exec = engine::StorageExecOptions(
           node_options.storage_cores, node_options.storage_memory_bytes,
           /*oblivious=*/false),
       .host_enclave = host_enclave_.get(),
       .rekey_drbg = &channel_drbg_},
      &outcome.cost);

  const int groups = options_.shard_count;
  // The groups execute sequentially here but on disjoint simulated
  // hardware: each runs against its own zero-based child model and the
  // merge below advances the fleet clock by the slowest group only
  // (MergeParallelTimelines). This keeps traces and costs bit-identical
  // for every real worker count while still modelling the scale-out.
  std::vector<sim::CostModel> children(groups,
                                       sim::CostModel(hardware_));
  std::vector<int> selected(groups, 0);  // current replica per group
  std::vector<std::vector<sql::QueryResult>> shipped(plan.fragments.size());
  for (auto& s : shipped) s.resize(groups);
  sim::SimNanos phase_start = outcome.cost.elapsed_ns();

  for (int g = 0; g < groups; ++g) {
    sim::CostModel* child = &children[g];
    obs::SpanGuard shard_span("shard-" + std::to_string(g), "dist", child);
    for (size_t f = 0; f < plan.fragments.size(); ++f) {
      const FragmentPlacement& place = plan.fragments[f];
      if (!place.partitioned && place.home_group != g) continue;

      // Heartbeat check before dispatch: an injected node outage fails
      // the group over to its next replica (identical slice, identical
      // rows); with no replica left the query is unavailable.
      while (sim::FaultAt(sim::fault_site::kDistShardDown)) {
        IRONSAFE_COUNTER_ADD("dist.failovers", 1);
        ++outcome.failovers;
        child->ChargeFixed(kFailoverDetectionNs);
        if (++selected[g] >= options_.replicas_per_shard) {
          return Status::Unavailable("all replicas of shard group " +
                                     std::to_string(g) + " are down");
        }
      }
      engine::SecureStorageNode& n = node(g, selected[g]);
      IRONSAFE_COUNTER_ADD("dist.fragments", 1);
      ASSIGN_OR_RETURN(shipped[f][g],
                       split.ShipFragment(place.fragment, n.db.get(),
                                          &n.channels, child, &outcome.stats,
                                          n.node_id()));
    }
    shard_span.Close();
    for (int r = 0; r < options_.replicas_per_shard; ++r) {
      outcome.storage_pages_read += node(g, r).access->pages_read();
    }
  }
  outcome.shipped_bytes = split.shipped_bytes();

  std::vector<const sim::CostModel*> child_ptrs;
  child_ptrs.reserve(children.size());
  for (const sim::CostModel& c : children) child_ptrs.push_back(&c);
  outcome.cost.MergeParallelTimelines(child_ptrs);
  // Detail lanes (excluded from the default deterministic export) show
  // the true per-shard overlap; the default export tiles the per-shard
  // spans sequentially.
  if (obs::Tracer* tracer = obs::CurrentTracer()) {
    for (int g = 0; g < groups; ++g) {
      tracer->AddTimelineSpan("shard-" + std::to_string(g), "dist",
                              phase_start,
                              phase_start + children[g].elapsed_ns(), g);
    }
  }
  outcome.storage_phase_ns = outcome.cost.elapsed_ns();

  // Materialize shipped batches as host intermediates. Partitioned
  // fragments arrive as per-shard key-sorted streams; merging by key
  // reconstructs the single-node row order exactly (a key routes to one
  // shard, so cross-stream ties cannot occur), which is what makes the
  // final rows shard-count invariant. Partial-aggregation partials are
  // concatenated in group order instead (no row-order guarantee is
  // claimed across shard counts in that opt-in mode).
  obs::SpanGuard merge_span("shard-merge", "dist", &outcome.cost);
  auto host_db = sql::Database::CreateInMemory();
  for (size_t f = 0; f < plan.fragments.size(); ++f) {
    const FragmentPlacement& place = plan.fragments[f];
    std::vector<sql::QueryResult>& streams = shipped[f];
    const sql::Schema& schema =
        streams[place.partitioned ? 0 : place.home_group].schema;
    std::vector<sql::Row> merged;
    if (!place.partitioned) {
      merged = std::move(streams[place.home_group].rows);
    } else if (plan.partial_aggregation || place.merge_key.empty()) {
      for (sql::QueryResult& stream : streams) {
        for (sql::Row& row : stream.rows) merged.push_back(std::move(row));
      }
    } else {
      int key = schema.Find(place.merge_key);
      if (key < 0) {
        return Status::Internal("merge key " + place.merge_key +
                                " missing from shipped fragment " +
                                place.fragment.dest_table);
      }
      std::vector<size_t> pos(groups, 0);
      while (true) {
        int best = -1;
        int64_t best_key = 0;
        for (int g = 0; g < groups; ++g) {
          const auto& rows = streams[g].rows;
          if (pos[g] >= rows.size()) continue;
          int64_t k = rows[pos[g]][key].AsInt();
          if (best < 0 || k < best_key) {
            best = g;
            best_key = k;
          }
        }
        if (best < 0) break;
        merged.push_back(std::move(streams[best].rows[pos[best]++]));
      }
    }
    // The merge compares/moves each shipped row once on the host CPU.
    outcome.cost.ChargeCycles(sim::Site::kHost, 64 * merged.size());
    const std::string& dest = place.fragment.dest_table;
    RETURN_IF_ERROR(host_db->CreateTable(dest, schema));
    RETURN_IF_ERROR(host_db->BulkLoad(dest, merged, nullptr));
  }
  merge_span.Close();

  // Host phase: the remainder (or the partial re-aggregation) over the
  // merged intermediates, inside the host enclave on one query thread.
  ASSIGN_OR_RETURN(outcome.result,
                   split.RunHostPhase(host_db.get(), *plan.host_query,
                                      sql::ExecOptions{}, &outcome.stats));
  outcome.host_phase_ns = outcome.cost.elapsed_ns() - outcome.storage_phase_ns;
  return outcome;
}

}  // namespace ironsafe::dist
