// Figure 9: heterogeneous confidential computing framework microbench.
//  (a) Q1-style single-filter query latency vs database size for
//      hos / scs / sos — hos degrades once the enclave working set
//      exceeds the EPC (the paper's SF 3/4/5 occupy 59/78/98 MiB of a
//      96 MiB EPC; we scale the EPC to data size to preserve the ratio).
//  (b) the same query vs filter selectivity (10%..20%) at fixed size.
//  (c) sos secure-storage overhead breakdown for Q2 and Q9 (paper: ~70-80%
//      freshness verification, ~15% decryption).
//
// `--json=<path>` commits the scs leg of sweeps (a) and (b) and the sos
// runs of (c) as the BENCH_fig9.json baseline, and `--quick` truncates
// every sweep for smoke runs.

#include "bench/bench_util.h"

namespace ironsafe::bench {
namespace {

using engine::CsaOptions;
using engine::SystemConfig;

// The paper's Q1-variant: single filter over lineitem whose selectivity
// is tuned via the ship-date horizon.
std::string FilterQuery(const std::string& cutoff) {
  return "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
         "sum(l_extendedprice) AS sum_base, count(*) AS cnt "
         "FROM lineitem WHERE l_shipdate <= DATE '" + cutoff + "' "
         "GROUP BY l_returnflag, l_linestatus "
         "ORDER BY l_returnflag, l_linestatus";
}

uint64_t DataBytes(engine::CsaSystem* system) {
  uint64_t pages = 0;
  for (const char* t : {"lineitem", "orders", "customer", "part", "partsupp",
                        "supplier", "nation", "region"}) {
    auto table = system->plain_db()->GetTable(t);
    if (table.ok()) pages += (*table)->page_count();
  }
  return pages * 4096;
}

/// Runs `sql` under `config` and files the measurement with the
/// baseline writer under `key`.
engine::QueryOutcome RunRecorded(engine::CsaSystem* system,
                                 SystemConfig config,
                                 const std::string& query_sql,
                                 BaselineWriter* baseline,
                                 const std::string& key) {
  WallClock wall;
  BENCH_ASSIGN(auto outcome, system->Run(config, query_sql));
  baseline->Add(key, outcome.cost.elapsed_ns(), wall.ms());
  return outcome;
}

int Main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  double base_sf = args.scale_factor;
  BenchTracer tracer(args);
  BaselineWriter baseline(args, "fig9_microbench");
  WallClock wall;

  // ---- (a) input-size sweep: SF x1, x4/3, x5/3 (paper: SF 3, 4, 5) ----
  PrintHeader("Figure 9a: Q1 latency vs input size (hos/scs/sos)");
  std::printf("%8s %12s %12s %12s %12s\n", "sf", "hos(ms)", "scs(ms)",
              "sos(ms)", "epc-faults");
  std::vector<double> mults = {1.0, 4.0 / 3.0, 5.0 / 3.0};
  if (args.quick) mults.resize(1);
  for (double mult : mults) {
    double sf = base_sf * mult;
    CsaOptions options;
    options.scale_factor = sf;
    options.scale_epc_to_data = false;  // this sweep pins the EPC size
    // Preserve the paper's data:EPC ratio — at SF 4 the working set
    // roughly equals the 96 MiB EPC (78/96); scale EPC accordingly.
    {
      BENCH_ASSIGN(auto probe, MakeLoadedSystem(sf, options));
      uint64_t bytes = DataBytes(probe.get());
      options.hardware.sgx.epc_bytes =
          static_cast<uint64_t>(static_cast<double>(bytes) / mult * (96.0 / 78.0));
    }
    BENCH_ASSIGN(auto system, MakeLoadedSystem(sf, options));
    std::string q = FilterQuery("1995-06-17");
    BENCH_ASSIGN(auto hos, system->Run(SystemConfig::kHos, q));
    char key[48];
    std::snprintf(key, sizeof(key), "q1-size-x%.2f", mult);
    auto scs = RunRecorded(system.get(), SystemConfig::kScs, q,
                              &baseline, key);
    BENCH_ASSIGN(auto sos, system->Run(SystemConfig::kSos, q));
    std::printf("%8.4f %12.3f %12.3f %12.3f %12llu\n", sf,
                hos.cost.elapsed_ms(), scs.cost.elapsed_ms(),
                sos.cost.elapsed_ms(),
                static_cast<unsigned long long>(hos.cost.epc_faults()));
  }
  std::printf("(expected shape: scs lowest; hos degrades with size as EPC "
              "paging sets in)\n");

  // ---- (b) selectivity sweep at fixed size ----
  PrintHeader("Figure 9b: Q1 latency vs filter selectivity");
  BENCH_ASSIGN(auto system, MakeLoadedSystem(base_sf));
  std::printf("%12s %10s %12s %12s %12s\n", "selectivity", "rows", "hos(ms)",
              "scs(ms)", "sos(ms)");
  // Ship dates span 1992-01..1998-12; cutoffs pick ~10%..20% of rows.
  std::vector<const char*> cutoffs = {"1992-09-01", "1992-11-01", "1993-01-01",
                                      "1993-03-01", "1993-05-01"};
  if (args.quick) cutoffs.resize(2);
  for (const char* cutoff : cutoffs) {
    std::string q = FilterQuery(cutoff);
    std::string count_q = std::string("SELECT count(*) FROM lineitem WHERE "
                                      "l_shipdate <= DATE '") + cutoff + "'";
    BENCH_ASSIGN(auto total, system->Run(SystemConfig::kSos,
                                         "SELECT count(*) FROM lineitem"));
    BENCH_ASSIGN(auto matching, system->Run(SystemConfig::kSos, count_q));
    double sel = 100.0 * static_cast<double>(matching.result.rows[0][0].AsInt()) /
                 static_cast<double>(total.result.rows[0][0].AsInt());
    BENCH_ASSIGN(auto hos, system->Run(SystemConfig::kHos, q));
    auto scs = RunRecorded(system.get(), SystemConfig::kScs, q, &baseline,
                              std::string("q1-sel-") + cutoff);
    BENCH_ASSIGN(auto sos, system->Run(SystemConfig::kSos, q));
    std::printf("%11.1f%% %10lld %12.3f %12.3f %12.3f\n", sel,
                static_cast<long long>(matching.result.rows[0][0].AsInt()),
                hos.cost.elapsed_ms(), scs.cost.elapsed_ms(),
                sos.cost.elapsed_ms());
  }

  // ---- (c) secure storage overhead breakdown (sos), Q2 and Q9 ----
  PrintHeader("Figure 9c: sos secure-storage cost breakdown");
  std::printf("%5s %10s %11s %9s %8s\n", "query", "total(ms)", "freshness%",
              "decrypt%", "other%");
  for (int qnum : {2, 9}) {
    BENCH_ASSIGN(const tpch::TpchQuery* query, tpch::GetQuery(qnum));
    auto sos = RunRecorded(system.get(), SystemConfig::kSos, query->sql,
                              &baseline, "q" + std::to_string(qnum) + "-sos");
    double total = static_cast<double>(sos.cost.elapsed_ns());
    double fresh = 100.0 * static_cast<double>(sos.cost.freshness_ns()) / total;
    double decrypt = 100.0 * static_cast<double>(sos.cost.decrypt_ns()) / total;
    std::printf("%5d %10.3f %10.1f%% %8.1f%% %7.1f%%\n", qnum,
                sos.cost.elapsed_ms(), fresh, decrypt,
                100.0 - fresh - decrypt);
  }
  std::printf("(paper: Q2/Q9 spend ~70-80%% verifying freshness, ~15%% "
              "decrypting)\n");
  std::printf("\n");
  PrintWallClock(wall, "all three sweeps");
  return 0;
}

}  // namespace
}  // namespace ironsafe::bench

int main(int argc, char** argv) { return ironsafe::bench::Main(argc, argv); }
