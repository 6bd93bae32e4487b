#ifndef IRONSAFE_BENCH_BENCH_UTIL_H_
#define IRONSAFE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "engine/csa_system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace ironsafe::bench {

/// Default bench scale factor: small enough that the full suite runs in
/// CI time, large enough that per-query behaviour differentiates. All
/// harnesses accept an SF override as argv[1].
inline constexpr double kDefaultScaleFactor = 0.002;
inline constexpr uint64_t kSeed = 19940101;

inline double ArgScaleFactor(int argc, char** argv) {
  if (argc > 1) {
    double sf = std::atof(argv[1]);
    if (sf > 0) return sf;
  }
  return kDefaultScaleFactor;
}

/// Flags shared by every bench harness. The first positional argument is
/// still the scale factor, so `fig6_tpch_speedup 0.01` keeps working.
///
///   --trace-json=<path>   write a Chrome trace_event file on exit
///   --trace-wall          include wall-clock fields in the trace (makes
///                         the file machine-dependent)
///   --trace-detail        include per-worker detail spans (makes the
///                         file dependent on the worker count)
///   --workers=N           cap the morsel thread pool at N workers
///   --clients=N           concurrent client sessions (serving benches)
///   --sessions=N          session count for the serving stress bench
///                         (serve_scale; 0 = the bench's default sweep)
///   --json=<path>         write the machine-readable perf baseline
///                         (BENCH_*.json schema, see BaselineWriter)
///   --quick               truncate sweeps to a smoke-sized subset (the
///                         bench_smoke ctest runs fig6 this way)
struct BenchArgs {
  double scale_factor = kDefaultScaleFactor;
  std::string trace_json;  // empty = tracing off
  bool trace_wall = false;
  bool trace_detail = false;
  int workers = 0;  // 0 = hardware default
  int clients = 8;
  int sessions = 0;  // 0 = bench default
  std::string json;  // empty = no baseline file
  bool quick = false;
};

inline BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  bool saw_sf = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace-json=", 13) == 0) {
      args.trace_json = arg + 13;
    } else if (std::strcmp(arg, "--trace-wall") == 0) {
      args.trace_wall = true;
    } else if (std::strcmp(arg, "--trace-detail") == 0) {
      args.trace_detail = true;
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      args.workers = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--clients=", 10) == 0) {
      args.clients = std::atoi(arg + 10);
      if (args.clients < 1) args.clients = 1;
    } else if (std::strncmp(arg, "--sessions=", 11) == 0) {
      args.sessions = std::atoi(arg + 11);
      if (args.sessions < 0) args.sessions = 0;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      args.json = arg + 7;
    } else if (std::strcmp(arg, "--quick") == 0) {
      args.quick = true;
    } else if (!saw_sf) {
      double sf = std::atof(arg);
      if (sf > 0) {
        args.scale_factor = sf;
        saw_sf = true;
      } else {
        std::fprintf(stderr, "unknown bench argument: %s\n", arg);
        std::exit(2);
      }
    } else {
      std::fprintf(stderr, "unknown bench argument: %s\n", arg);
      std::exit(2);
    }
  }
  if (args.workers > 0) common::ThreadPool::set_max_workers(args.workers);
  return args;
}

/// Installs a session tracer for the lifetime of the bench when
/// `--trace-json` was given, and writes the Chrome trace (plus a snapshot
/// of the global counter registry) when the harness returns. With no
/// trace path this is inert: no tracer is installed and the hot path
/// takes its untraced branch.
class BenchTracer {
 public:
  explicit BenchTracer(const BenchArgs& args) : args_(args) {
    if (!args_.trace_json.empty()) {
      tracer_ = std::make_unique<obs::Tracer>();
      scope_ = std::make_unique<obs::ScopedTracer>(tracer_.get());
    }
  }

  ~BenchTracer() {
    if (tracer_ == nullptr) return;
    scope_.reset();  // uninstall before exporting
    obs::ExportOptions opts;
    opts.include_wall = args_.trace_wall;
    opts.include_detail = args_.trace_detail;
    opts.metrics = &obs::MetricsRegistry::Global();
    Status st = tracer_->WriteChromeTrace(args_.trace_json, opts);
    if (!st.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   st.ToString().c_str());
      return;
    }
    std::printf("trace written: %s (%zu spans)\n", args_.trace_json.c_str(),
                tracer_->span_count());
  }

  BenchTracer(const BenchTracer&) = delete;
  BenchTracer& operator=(const BenchTracer&) = delete;

 private:
  BenchArgs args_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::ScopedTracer> scope_;
};

/// Builds a CSA testbed loaded with TPC-H data at `sf`.
inline Result<std::unique_ptr<engine::CsaSystem>> MakeLoadedSystem(
    double sf, engine::CsaOptions options = {}) {
  options.scale_factor = sf;
  auto system = engine::CsaSystem::Create(options);
  if (!system.ok()) return system.status();
  Status st = (*system)->Load([&](sql::Database* db) {
    tpch::TpchGenerator gen(tpch::TpchConfig{sf, kSeed});
    return gen.LoadInto(db);
  });
  if (!st.ok()) return st;
  return std::move(*system);
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Real (wall-clock) elapsed time, reported alongside the simulated
/// nanoseconds in every figure bench. Simulated results are machine- and
/// thread-count-independent; the wall clock is what morsel parallelism
/// actually improves.
class WallClock {
 public:
  WallClock() : start_(std::chrono::steady_clock::now()) {}

  double ms() const {
    auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

  void Restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Uniform closing line for every harness: simulated totals appear in the
/// per-query tables above in ms (sim); this reports the real elapsed time
/// in ms (real) with one shared format.
inline void PrintWallClock(const WallClock& wall,
                           const char* scope = "the full sweep") {
  std::printf("wall clock: %.1f ms real for %s\n", wall.ms(), scope);
}

/// FNV-1a constants of the serving benches' response digest. The digest
/// folds every decrypted response byte, so "bit-identical across modes /
/// worker counts" is checkable from one printed value. The offset basis
/// is the historical one these benches shipped with; changing it would
/// invalidate committed transcripts.
inline constexpr uint64_t kDigestOffset = 1469598103934665603ull;
inline constexpr uint64_t kDigestPrime = 1099511628211ull;

/// Folds a byte container (e.g. a decrypted response frame) into an
/// FNV-1a digest. Start from kDigestOffset.
template <typename Bytes>
inline uint64_t DigestBytes(uint64_t digest, const Bytes& bytes) {
  for (unsigned char b : bytes) digest = (digest ^ b) * kDigestPrime;
  return digest;
}

/// p-th percentile by the serving benches' convention: nearest-rank on
/// the sorted sample (sorts `v` in place), 0 for an empty sample.
inline sim::SimNanos Percentile(std::vector<sim::SimNanos>& v, int p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = std::min(v.size() - 1, (v.size() * p) / 100);
  return v[idx];
}

/// Collects per-query measurements and writes the machine-readable perf
/// baselines committed as `BENCH_*.json` and validated by baseline_check
/// (the `*_smoke` and `*_baseline_check` ctests). Schema
/// (docs/EXPERIMENTS.md):
///
///   {"version": 1,
///    "benchmark": "<harness name>",
///    "scale_factor": <sf>,
///    "queries": {
///      "<query>": {"sim_cycles": N, "wall_ms": X, "workers": N,
///                  "row_sim_cycles": N, "row_wall_ms": X,
///                  "scs_sim_cycles": N, "scs_wall_ms": X}, ...}}
///
/// `sim_cycles` is the cost model's simulated elapsed time converted to
/// host cycles at the paper profile's 3.7 GHz — integral and identical on
/// every machine. `wall_ms` is real elapsed time for the same run: it is
/// machine-dependent and committed for trend reading, never CI-gated.
/// The `row_*` pair, when present, is the bench's baseline re-run of the
/// same query: 1 shard for fig12, the pipeline with one execute slot for
/// serve, the plain (non-oblivious) engine for fig_oblivious. baseline_check
/// gates the direction between the two columns. fig6 adds the `scs_*`
/// pair: the same query on the secure split configuration.
class BaselineWriter {
 public:
  BaselineWriter(const BenchArgs& args, std::string benchmark)
      : path_(args.json),
        benchmark_(std::move(benchmark)),
        scale_factor_(args.scale_factor),
        workers_(common::ThreadPool::EffectiveWorkers(
            std::numeric_limits<int>::max())) {}

  ~BaselineWriter() { Write(); }

  BaselineWriter(const BaselineWriter&) = delete;
  BaselineWriter& operator=(const BaselineWriter&) = delete;

  /// Simulated nanoseconds -> host cycles at the paper profile's clock.
  static uint64_t SimCycles(sim::SimNanos sim_ns) {
    double ghz = sim::HardwareProfile::Paper().host_cpu.ghz;
    return static_cast<uint64_t>(
        std::llround(static_cast<double>(sim_ns) * ghz));
  }

  /// Records the measured run of `query`.
  void Add(const std::string& query, sim::SimNanos sim_ns, double wall_ms) {
    Entry& e = Find(query);
    e.sim_cycles = SimCycles(sim_ns);
    e.wall_ms = wall_ms;
  }

  /// Records a second run of `query` as the `<prefix>_sim_cycles` /
  /// `<prefix>_wall_ms` pair: "row" is the bench's baseline re-run (the
  /// column the --require-sim-* gates read), "scs" fig6's secure split run.
  void AddPair(const std::string& prefix, const std::string& query,
               sim::SimNanos sim_ns, double wall_ms) {
    Find(query).pairs.push_back(Pair{prefix, SimCycles(sim_ns), wall_ms});
  }

 private:
  struct Pair {
    std::string prefix;
    uint64_t sim_cycles = 0;
    double wall_ms = 0;
  };
  struct Entry {
    std::string query;
    uint64_t sim_cycles = 0;
    double wall_ms = 0;
    std::vector<Pair> pairs;
  };

  Entry& Find(const std::string& query) {
    for (Entry& e : entries_) {
      if (e.query == query) return e;
    }
    entries_.push_back(Entry{});
    entries_.back().query = query;
    return entries_.back();
  }

  static void AppendEscaped(std::string* out, const std::string& s) {
    for (char c : s) {
      if (c == '"' || c == '\\') out->push_back('\\');
      out->push_back(c);
    }
  }

  void Write() {
    if (path_.empty() || entries_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "baseline export failed: cannot open %s\n",
                   path_.c_str());
      return;
    }
    std::string name;
    AppendEscaped(&name, benchmark_);
    std::fprintf(f, "{\n  \"version\": 1,\n  \"benchmark\": \"%s\",\n",
                 name.c_str());
    std::fprintf(f, "  \"scale_factor\": %g,\n  \"queries\": {\n",
                 scale_factor_);
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::string key;
      AppendEscaped(&key, e.query);
      std::fprintf(f,
                   "    \"%s\": {\"sim_cycles\": %llu, \"wall_ms\": %.3f, "
                   "\"workers\": %d",
                   key.c_str(), static_cast<unsigned long long>(e.sim_cycles),
                   e.wall_ms, workers_);
      for (const Pair& pair : e.pairs) {
        std::fprintf(f, ", \"%s_sim_cycles\": %llu, \"%s_wall_ms\": %.3f",
                     pair.prefix.c_str(),
                     static_cast<unsigned long long>(pair.sim_cycles),
                     pair.prefix.c_str(), pair.wall_ms);
      }
      std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("baseline written: %s (%zu queries)\n", path_.c_str(),
                entries_.size());
  }

  std::string path_;
  std::string benchmark_;
  double scale_factor_;
  int workers_;
  std::vector<Entry> entries_;
};

inline void Die(const Status& status) {
  std::fprintf(stderr, "bench failed: %s\n", status.ToString().c_str());
  std::exit(1);
}

#define BENCH_CONCAT_INNER(a, b) a##b
#define BENCH_CONCAT(a, b) BENCH_CONCAT_INNER(a, b)

#define BENCH_ASSIGN(decl, expr)                                       \
  auto BENCH_CONCAT(_bench_r_, __LINE__) = (expr);                     \
  if (!BENCH_CONCAT(_bench_r_, __LINE__).ok())                         \
    ::ironsafe::bench::Die(BENCH_CONCAT(_bench_r_, __LINE__).status()); \
  decl = std::move(*BENCH_CONCAT(_bench_r_, __LINE__))

}  // namespace ironsafe::bench

#endif  // IRONSAFE_BENCH_BENCH_UTIL_H_
