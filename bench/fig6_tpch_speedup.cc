// Figure 6: TPC-H query execution-time speedup due to computational
// storage, non-secure (hons vs vcs) and secure (hos vs scs).
// Prints one row per evaluated query plus the secure-case average the
// abstract headlines (paper: 2.3x on average).
//
// The committed BENCH_fig6.json baseline records each query's hons run
// (simulated cycles and wall clock; hons time is execution-dominated, so
// it tracks the SQL engine) and its scs run as the `scs_*` pair (the
// secure split path: page crypto, fragment execution, the sealed channel
// and the host phase). `--quick` truncates to the first
// three queries for the bench_smoke ctest; `--json=<path>` writes the
// baseline.

#include "bench/bench_util.h"

namespace ironsafe::bench {
namespace {

using engine::SystemConfig;

int Main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  double sf = args.scale_factor;
  BenchTracer tracer(args);
  BaselineWriter baseline(args, "fig6_tpch_speedup");
  BENCH_ASSIGN(auto system, MakeLoadedSystem(sf));

  PrintHeader("Figure 6: TPC-H speedup from computational storage (SF=" +
              std::to_string(sf) + ")");
  std::printf("%5s %14s %14s %14s %14s %10s %10s %10s\n", "query",
              "hons(ms)", "vcs(ms)", "hos(ms)", "scs(ms)", "ns-speedup",
              "s-speedup", "wall(ms)");

  WallClock total;
  double sum_secure_speedup = 0;
  int n = 0;
  int remaining = args.quick ? 3 : std::numeric_limits<int>::max();
  for (const auto& query : tpch::Queries()) {
    if (remaining-- <= 0) break;
    WallClock wall;
    BENCH_ASSIGN(auto hons, system->Run(SystemConfig::kHons, query.sql));
    double hons_wall_ms = wall.ms();
    BENCH_ASSIGN(auto vcs, system->Run(SystemConfig::kVcs, query.sql));
    BENCH_ASSIGN(auto hos, system->Run(SystemConfig::kHos, query.sql));
    WallClock scs_wall;
    BENCH_ASSIGN(auto scs, system->Run(SystemConfig::kScs, query.sql));
    double scs_wall_ms = scs_wall.ms();

    const std::string key = "q" + std::to_string(query.number);
    baseline.Add(key, hons.cost.elapsed_ns(), hons_wall_ms);
    baseline.AddPair("scs", key, scs.cost.elapsed_ns(), scs_wall_ms);

    double nonsecure = hons.cost.elapsed_ms() / vcs.cost.elapsed_ms();
    double secure = hos.cost.elapsed_ms() / scs.cost.elapsed_ms();
    sum_secure_speedup += secure;
    ++n;
    std::printf("%5d %14.3f %14.3f %14.3f %14.3f %9.2fx %9.2fx %10.1f\n",
                query.number, hons.cost.elapsed_ms(), vcs.cost.elapsed_ms(),
                hos.cost.elapsed_ms(), scs.cost.elapsed_ms(), nonsecure,
                secure, wall.ms());
  }
  std::printf("\naverage secure speedup (hos/scs): %.2fx (paper: 2.3x)\n",
              sum_secure_speedup / n);
  PrintWallClock(total);
  return 0;
}

}  // namespace
}  // namespace ironsafe::bench

int main(int argc, char** argv) { return ironsafe::bench::Main(argc, argv); }
