// Oblivious-mode overhead: every evaluated TPC-H query, host-only
// (hons), plain vs oblivious execution (docs/OBLIVIOUS.md). Columns:
// plain vectorized engine / oblivious mode, both simulated, plus the
// oblivious/plain overhead factor. The committed BENCH_oblivious.json
// carries the oblivious measurement in the `sim_cycles` column and the
// plain run in the `row_*` baseline columns, so
// `baseline_check --require-sim-overhead` gates the expected direction:
// the padded pipeline must pay — full scans with no pushdown, padded
// filters/aggregates, O(n log^2 n) sort networks and sort-merge joins
// over both full inputs buy a value-independent access sequence with
// simulated cycles, never for free.
//
//   fig_oblivious [sf] [--quick] [--json=<path>] [--workers=N]
//
// `--quick` truncates to the first three queries (the oblivious_smoke
// ctest); `--json=<path>` writes the baseline.

#include "bench/bench_util.h"

namespace ironsafe::bench {
namespace {

using engine::SystemConfig;

int Main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  double sf = args.scale_factor;
  BenchTracer tracer(args);
  BaselineWriter baseline(args, "fig_oblivious");
  BENCH_ASSIGN(auto system, MakeLoadedSystem(sf));

  PrintHeader("Oblivious-mode overhead, host-only TPC-H (SF=" +
              std::to_string(sf) + ")");
  std::printf("%5s %14s %14s %10s %10s\n", "query", "plain(ms)",
              "oblivious(ms)", "overhead", "wall(ms)");

  WallClock total;
  double sum_overhead = 0;
  int n = 0;
  int remaining = args.quick ? 3 : std::numeric_limits<int>::max();
  for (const auto& query : tpch::Queries()) {
    if (remaining-- <= 0) break;
    WallClock wall;

    WallClock vec_wall;
    BENCH_ASSIGN(auto vec, system->Run(SystemConfig::kHons, query.sql));
    double vec_wall_ms = vec_wall.ms();

    system->set_oblivious(true);
    WallClock obl_wall;
    BENCH_ASSIGN(auto obl, system->Run(SystemConfig::kHons, query.sql));
    double obl_wall_ms = obl_wall.ms();
    system->set_oblivious(false);

    if (obl.result.rows.size() != vec.result.rows.size()) {
      std::fprintf(stderr, "q%d: oblivious row count diverges: %zu vs %zu\n",
                   query.number, obl.result.rows.size(),
                   vec.result.rows.size());
      return 1;
    }

    std::string key = "q" + std::to_string(query.number);
    baseline.Add(key, obl.cost.elapsed_ns(), obl_wall_ms);
    baseline.AddPair("row", key, vec.cost.elapsed_ns(), vec_wall_ms);

    double overhead = obl.cost.elapsed_ms() / vec.cost.elapsed_ms();
    sum_overhead += overhead;
    ++n;
    std::printf("%5d %14.3f %14.3f %9.2fx %10.1f\n", query.number,
                vec.cost.elapsed_ms(), obl.cost.elapsed_ms(), overhead,
                wall.ms());
  }
  std::printf("\naverage oblivious/vectorized overhead: %.2fx over %d "
              "queries\n",
              sum_overhead / n, n);
  PrintWallClock(total);
  return 0;
}

}  // namespace
}  // namespace ironsafe::bench

int main(int argc, char** argv) { return ironsafe::bench::Main(argc, argv); }
