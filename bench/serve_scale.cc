// Serving-scale stress bench: a large cohort of Zipf-skewed sessions in
// three SLO classes (gold/silver/bronze weights 8/4/1) bursts statements
// at one QueryService, once through the event-driven pipeline with its
// default execute slots and once through the same pipeline with one
// execute slot, over the SAME submission schedule. The comparison —
// p50/p99 scheduling delay, p99 end-to-end latency, makespan, per-class
// percentiles — is entirely simulated time, so the table (and the
// response digest) is byte-identical for any --workers value.
//
//   serve_scale [sf] [--sessions=N] [--quick] [--json=BENCH_serve.json]
//               [--workers=N] [--trace-json=...]
//
// Defaults to 10000 sessions (600 with --quick; --sessions=100000 is
// the paper-scale run). With --json, pipelined numbers land in
// sim_cycles and the one-slot re-run in row_sim_cycles, so
// `baseline_check --require-sim-improvement` gates exactly the claim
// "concurrent execute slots beat one execute slot in simulated cycles
// summed over the reported metrics" (the serve_smoke ctest).

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "engine/ironsafe.h"
#include "server/query_service.h"
#include "sql/value.h"

namespace ironsafe::bench {
namespace {

using engine::IronSafeSystem;
using server::QueryService;

constexpr int kClientKeys = 16;     // tenant identities, shared by sessions
constexpr int kTemplates = 64;      // distinct statement texts
constexpr double kZipfExponent = 1.1;
constexpr int kStatementsPerSession = 2;
constexpr uint64_t kScheduleSeed = 0x5e7ebabe;

// SLO classes: index into kClassNames/kClassWeights. Session i's class is
// i % 10: one gold, three silver, six bronze per ten sessions.
constexpr std::array<const char*, 3> kClassNames = {"gold", "silver",
                                                   "bronze"};
constexpr std::array<uint32_t, 3> kClassWeights = {8, 4, 1};

int ClassOf(int session_index) {
  int r = session_index % 10;
  return r == 0 ? 0 : (r <= 3 ? 1 : 2);
}

/// Inverse-CDF Zipf sampler over [0, n): P(k) ~ 1/(k+1)^s.
class Zipf {
 public:
  Zipf(int n, double s) : cdf_(n) {
    double total = 0;
    for (int k = 0; k < n; ++k) total += 1.0 / std::pow(k + 1, s);
    double acc = 0;
    for (int k = 0; k < n; ++k) {
      acc += 1.0 / std::pow(k + 1, s);
      cdf_[k] = acc / total;
    }
  }

  int Sample(Random* rng) const {
    double u = rng->NextDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? static_cast<int>(cdf_.size()) - 1
                            : static_cast<int>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Most templates are point lookups (small single-frame responses); every
/// eighth is a range scan whose response exceeds the stream chunk size,
/// so chunked delivery with credit-based flow control is on the hot path.
std::string TemplateSql(int t) {
  if (t % 8 == 0) {
    return "SELECT owner, balance FROM accounts WHERE balance > " +
           std::to_string(100 + t) + ".5";
  }
  return "SELECT owner, balance FROM accounts WHERE id = " +
         std::to_string((t * 7) % 200);
}

struct Sample {
  sim::SimNanos sched_delay = 0;
  sim::SimNanos e2e = 0;
  int slo_class = 2;
};

struct RunResult {
  std::vector<Sample> samples;
  uint64_t response_digest = kDigestOffset;  // FNV-1a, see bench_util.h
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t stream_chunks = 0;
  sim::SimNanos stream_stall_ns = 0;
  sim::SimNanos makespan = 0;
  double wall_ms = 0;
};

/// One full run of the schedule through a fresh system + service whose
/// pipeline has `execute_slots` concurrent execute slots.
RunResult RunMode(size_t execute_slots, double sf, int sessions,
                  const std::vector<std::pair<int, int>>& schedule) {
  WallClock wall;

  IronSafeSystem::Options options;
  options.csa.scale_factor = sf;
  BENCH_ASSIGN(auto system, IronSafeSystem::Create(options));
  if (Status st = system->Bootstrap(); !st.ok()) Die(st);
  system->set_current_date(*sql::ParseDate("1997-06-01"));

  system->RegisterClient("producer");
  std::string policy = "read ::= sessionKeyIs(producer)";
  for (int c = 0; c < kClientKeys; ++c) {
    std::string key = "c" + std::to_string(c);
    system->RegisterClient(key);
    policy += " | sessionKeyIs(" + key + ")";
  }
  policy += "\nwrite ::= sessionKeyIs(producer)\n";
  if (Status st = system->CreateProtectedTable(
          "producer",
          "CREATE TABLE accounts (id INTEGER, owner VARCHAR, balance DOUBLE)",
          policy, /*with_expiry=*/false, /*with_reuse=*/false);
      !st.ok()) {
    Die(st);
  }
  for (int batch = 0; batch < 8; ++batch) {
    std::string insert = "INSERT INTO accounts (id, owner, balance) VALUES ";
    for (int i = 0; i < 25; ++i) {
      int id = batch * 25 + i;
      if (i) insert += ", ";
      insert += "(" + std::to_string(id) + ", 'user" + std::to_string(id) +
                "', " + std::to_string(100.0 + id) + ")";
    }
    auto r = system->Execute("producer", insert);
    if (!r.ok()) Die(r.status());
  }

  server::ServiceOptions service_options;
  service_options.execute_slots = execute_slots;
  service_options.limits.max_per_session = kStatementsPerSession + 2;
  service_options.limits.max_total =
      static_cast<size_t>(sessions) * kStatementsPerSession;
  service_options.plan_cache_capacity = 1024;
  QueryService service(system.get(), service_options);

  // Batched session establishment: the whole cohort authenticates in one
  // enclave entry per batch instead of one X25519 handshake per session.
  struct Client {
    uint64_t session = 0;
    std::unique_ptr<net::SecureChannel> channel;
  };
  std::vector<Client> ends(sessions);
  constexpr int kOpenBatch = 4096;
  for (int base = 0; base < sessions; base += kOpenBatch) {
    int count = std::min(kOpenBatch, sessions - base);
    std::vector<QueryService::SessionSpec> specs(count);
    for (int i = 0; i < count; ++i) {
      specs[i].client_key_id =
          "c" + std::to_string((base + i) % kClientKeys);
      specs[i].weight = kClassWeights[ClassOf(base + i)];
    }
    auto opened = service.OpenSessionBatch(specs);
    for (int i = 0; i < count; ++i) {
      if (!opened[i].ok()) Die(opened[i].status());
      ends[base + i].session = (*opened[i]).id;
      ends[base + i].channel = std::move((*opened[i]).channel);
    }
  }

  // Burst the whole schedule, then run to idle: every statement arrives
  // at sim time 0, so a completion's e2e latency IS its finish time and
  // the largest e2e is the makespan.
  std::vector<std::string> templates(kTemplates);
  for (int t = 0; t < kTemplates; ++t) templates[t] = TemplateSql(t);
  for (const auto& [s, t] : schedule) {
    server::StatementRequest request;
    request.sql = templates[t];
    auto frame =
        ends[s].channel->Send(server::EncodeStatementRequest(request), nullptr);
    if (!frame.ok()) Die(frame.status());
    auto seq = service.Submit(ends[s].session, *frame);
    if (!seq.ok()) Die(seq.status());
  }
  service.RunUntilIdle();
  service.Drain();

  RunResult out;
  out.samples.reserve(schedule.size());
  for (int s = 0; s < sessions; ++s) {
    for (server::Completion& done : service.TakeCompletions(ends[s].session)) {
      if (!done.transport.ok()) Die(done.transport);
      auto plain = ends[s].channel->Receive(done.response_frame, nullptr);
      if (!plain.ok()) Die(plain.status());
      auto response = server::DecodeStatementResponse(*plain);
      if (!response.ok()) Die(response.status());
      if (!response->status.ok()) Die(response->status);
      out.response_digest = DigestBytes(out.response_digest, *plain);
      Sample sample;
      sample.sched_delay = done.sched_delay_ns;
      sample.e2e = done.e2e_ns;
      sample.slo_class = ClassOf(s);
      out.makespan = std::max(out.makespan, done.e2e_ns);
      out.samples.push_back(sample);
    }
  }
  service.Shutdown();

  QueryService::Stats stats = service.stats();
  if (out.samples.size() != schedule.size() ||
      stats.statements_executed != schedule.size()) {
    std::fprintf(stderr, "lost or duplicated completions: %zu of %zu\n",
                 out.samples.size(), schedule.size());
    std::exit(1);
  }
  out.cache_hits = stats.plan_cache_hits;
  out.cache_misses = stats.plan_cache_misses;
  out.stream_chunks = stats.stream_chunks;
  out.stream_stall_ns = stats.stream_stall_ns;
  out.wall_ms = wall.ms();
  return out;
}

struct Summary {
  sim::SimNanos p50_sched = 0;
  sim::SimNanos p99_sched = 0;
  sim::SimNanos p99_e2e = 0;
  std::array<sim::SimNanos, 3> class_p99_sched = {0, 0, 0};
};

Summary Summarize(const RunResult& run) {
  Summary s;
  std::vector<sim::SimNanos> sched, e2e;
  std::array<std::vector<sim::SimNanos>, 3> by_class;
  for (const Sample& sample : run.samples) {
    sched.push_back(sample.sched_delay);
    e2e.push_back(sample.e2e);
    by_class[sample.slo_class].push_back(sample.sched_delay);
  }
  s.p50_sched = Percentile(sched, 50);
  s.p99_sched = Percentile(sched, 99);
  s.p99_e2e = Percentile(e2e, 99);
  for (int c = 0; c < 3; ++c) {
    s.class_p99_sched[c] = Percentile(by_class[c], 99);
  }
  return s;
}

int Main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  BenchTracer tracer(args);
  BaselineWriter writer(args, "serve_scale");
  const int sessions =
      args.sessions > 0 ? args.sessions : (args.quick ? 600 : 10000);

  // One schedule, replayed at both slot counts: session order interleaves
  // the classes round-major, the statement text is Zipf-skewed over the
  // template pool (hot templates dominate -> the plan cache carries most
  // of the control path).
  Random rng(kScheduleSeed);
  Zipf zipf(kTemplates, kZipfExponent);
  std::vector<std::pair<int, int>> schedule;
  schedule.reserve(static_cast<size_t>(sessions) * kStatementsPerSession);
  for (int round = 0; round < kStatementsPerSession; ++round) {
    for (int s = 0; s < sessions; ++s) {
      schedule.emplace_back(s, zipf.Sample(&rng));
    }
  }

  RunResult pipelined = RunMode(server::ServiceOptions{}.execute_slots,
                                args.scale_factor, sessions, schedule);
  RunResult one_slot = RunMode(1, args.scale_factor, sessions, schedule);
  Summary p = Summarize(pipelined);
  Summary q = Summarize(one_slot);

  if (pipelined.response_digest != one_slot.response_digest) {
    std::fprintf(stderr,
                 "response digests diverge between slot counts: "
                 "%016llx vs %016llx\n",
                 static_cast<unsigned long long>(pipelined.response_digest),
                 static_cast<unsigned long long>(one_slot.response_digest));
    return 1;
  }

  PrintHeader("serve_scale: " + std::to_string(sessions) + " sessions x " +
              std::to_string(kStatementsPerSession) +
              " statements, Zipf(" + std::to_string(kZipfExponent) + ") over " +
              std::to_string(kTemplates) + " templates");
  std::printf("%-22s %14s %14s %10s\n", "metric (sim ms)", "pipelined",
              "one slot", "speedup");
  auto row = [](const char* name, sim::SimNanos a, sim::SimNanos b) {
    std::printf("%-22s %14.3f %14.3f %9.2fx\n", name,
                static_cast<double>(a) / 1e6, static_cast<double>(b) / 1e6,
                a > 0 ? static_cast<double>(b) / static_cast<double>(a) : 0.0);
  };
  row("sched delay p50", p.p50_sched, q.p50_sched);
  row("sched delay p99", p.p99_sched, q.p99_sched);
  row("e2e latency p99", p.p99_e2e, q.p99_e2e);
  row("makespan", pipelined.makespan, one_slot.makespan);
  for (int c = 0; c < 3; ++c) {
    std::string name = std::string(kClassNames[c]) + " sched p99";
    row(name.c_str(), p.class_p99_sched[c], q.class_p99_sched[c]);
  }

  double hit_rate =
      static_cast<double>(pipelined.cache_hits) /
      static_cast<double>(pipelined.cache_hits + pipelined.cache_misses);
  std::printf(
      "plan cache: %llu hits / %llu misses (%.1f%% hit rate); "
      "streamed %llu chunks, %.3f ms flow-control stall (sim)\n",
      static_cast<unsigned long long>(pipelined.cache_hits),
      static_cast<unsigned long long>(pipelined.cache_misses),
      100.0 * hit_rate,
      static_cast<unsigned long long>(pipelined.stream_chunks),
      static_cast<double>(pipelined.stream_stall_ns) / 1e6);
  std::printf("response digest: %016llx (bit-identical across --workers)\n",
              static_cast<unsigned long long>(pipelined.response_digest));
  std::printf("wall clock: pipelined %.1f ms, one slot %.1f ms real\n",
              pipelined.wall_ms, one_slot.wall_ms);

  // BENCH_serve.json: the default pipeline in sim_cycles, the one-slot
  // baseline in row_sim_cycles, one row per reported metric.
  auto emit = [&](const std::string& name, sim::SimNanos pipe,
                  sim::SimNanos base) {
    writer.Add(name, pipe, pipelined.wall_ms);
    writer.AddPair("row", name, base, one_slot.wall_ms);
  };
  emit("p50_sched_delay", p.p50_sched, q.p50_sched);
  emit("p99_sched_delay", p.p99_sched, q.p99_sched);
  emit("p99_e2e", p.p99_e2e, q.p99_e2e);
  emit("makespan", pipelined.makespan, one_slot.makespan);
  for (int c = 0; c < 3; ++c) {
    emit(std::string(kClassNames[c]) + "_p99_sched_delay",
         p.class_p99_sched[c], q.class_p99_sched[c]);
  }
  return 0;
}

}  // namespace
}  // namespace ironsafe::bench

int main(int argc, char** argv) { return ironsafe::bench::Main(argc, argv); }
