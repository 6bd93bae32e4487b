// Figure 12: storage-engine scalability, reproduced as real scale-out
// over the sharded fleet (src/dist, docs/SHARDING.md). Each shard count
// gets its own fleet with the TPC-H tables hash/range-partitioned across
// N replica groups; the plot is the simulated elapsed time of the
// distributed scs plan, normalized to one shard. The paper sees linear
// scaling for all queries except the memory-intensive #13.
//
// Emits the committed BENCH_fig12.json with --json: one entry per
// (query, shard count), keyed "q<N>@<shards>", with the 1-shard run as
// each multi-shard entry's row_* baseline so baseline_check's
// --require-sim-improvement and --require-shard-scaling gates both read
// the scale-out direction from the file (fig12_smoke ctest).
//
// The bench self-checks the determinism contract as it sweeps: result
// rows must be bit-identical across every shard count (FNV digest of the
// exact row serialization, order included).

#include "bench/bench_util.h"

#include "dist/fleet.h"
#include "tpch/table_spec.h"

namespace ironsafe::bench {
namespace {

uint64_t RowDigest(const sql::QueryResult& result) {
  uint64_t digest = kDigestOffset;
  for (const auto& row : result.rows) {
    for (const auto& v : row) {
      digest = DigestBytes(digest, v.ToString());
      digest = (digest ^ '|') * kDigestPrime;
    }
    digest = (digest ^ '\n') * kDigestPrime;
  }
  return digest;
}

Result<std::unique_ptr<dist::ShardedCsaFleet>> MakeFleet(double sf,
                                                         int shards) {
  dist::FleetOptions options;
  options.shard_count = shards;
  options.replicas_per_shard = 2;
  options.partitions = tpch::TpchPartitionScheme();
  auto fleet = dist::ShardedCsaFleet::Create(options);
  if (!fleet.ok()) return fleet.status();
  Status st = (*fleet)->Load([&](sql::Database* db) {
    tpch::TpchGenerator gen(tpch::TpchConfig{sf, kSeed});
    return gen.LoadInto(db);
  });
  if (!st.ok()) return st;
  return std::move(*fleet);
}

int Main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  double sf = args.scale_factor;
  BenchTracer tracer(args);
  BaselineWriter baseline(args, "fig12_scalability");

  // Scan/aggregate-heavy evaluated queries, where the offloaded portion
  // dominates and shards have real work to split. Q13 is kept as the
  // paper's known sub-linear case (group-by over the whole join).
  std::vector<int> query_numbers = {3, 6, 12, 13, 14};
  std::vector<int> shard_counts = {1, 2, 4, 8};
  if (args.quick) {
    query_numbers = {3, 6};
    shard_counts = {1, 4};
  }

  std::vector<std::unique_ptr<dist::ShardedCsaFleet>> fleets;
  for (int shards : shard_counts) {
    BENCH_ASSIGN(auto fleet, MakeFleet(sf, shards));
    fleets.push_back(std::move(fleet));
  }

  PrintHeader(
      "Figure 12: distributed scs elapsed vs shard count "
      "(normalized to 1 shard; < 1.0 = scale-out win)");
  std::printf("%5s %16s", "query", "1-shard ms(sim)");
  for (size_t i = 1; i < shard_counts.size(); ++i) {
    std::printf(" %7d-shard", shard_counts[i]);
  }
  std::printf(" %18s\n", "row digest");

  WallClock wall;
  int digest_mismatches = 0;
  for (int number : query_numbers) {
    BENCH_ASSIGN(const tpch::TpchQuery* query, tpch::GetQuery(number));
    std::printf("%5d", number);
    sim::SimNanos single_ns = 0;
    uint64_t single_digest = 0;
    for (size_t i = 0; i < shard_counts.size(); ++i) {
      WallClock run_wall;
      BENCH_ASSIGN(auto out, fleets[i]->Run(query->sql));
      double run_ms = run_wall.ms();
      uint64_t digest = RowDigest(out.result);
      std::string key =
          "q" + std::to_string(number) + "@" +
          std::to_string(shard_counts[i]);
      baseline.Add(key, out.cost.elapsed_ns(), run_ms);
      if (shard_counts[i] == 1) {
        single_ns = out.cost.elapsed_ns();
        single_digest = digest;
        std::printf(" %16.3f", out.cost.elapsed_ms());
      } else {
        // The 1-shard run is every multi-shard entry's "before" column.
        baseline.AddPair("row", key, single_ns, run_ms);
        std::printf(" %13.3f", static_cast<double>(out.cost.elapsed_ns()) /
                                   static_cast<double>(single_ns));
      }
      if (digest != single_digest) {
        ++digest_mismatches;
        std::fprintf(stderr,
                     "FIG12 DETERMINISM VIOLATION: q%d rows diverge at "
                     "%d shards\n",
                     number, shard_counts[i]);
      }
    }
    std::printf("   0x%016llx\n",
                static_cast<unsigned long long>(single_digest));
  }
  std::printf(
      "(normalized column < 1.0 = faster than single-shard; identical "
      "digests = bit-identical rows at every shard count)\n");
  PrintWallClock(wall);
  if (digest_mismatches > 0) {
    std::fprintf(stderr, "fig12: %d digest mismatch(es)\n",
                 digest_mismatches);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ironsafe::bench

int main(int argc, char** argv) { return ironsafe::bench::Main(argc, argv); }
