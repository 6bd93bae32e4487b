// Multi-tenant serving bench: N closed-loop clients share one IronSafe
// deployment through the src/server QueryService — per-session secure
// channels, bounded fair admission, and the policy-epoch plan cache.
//
//   serve_throughput [sf] [--clients=N] [--workers=N] [--trace-json=...]
//                    [--json=<path>]
//
// Every number in the tables below is simulated time, so the output is
// byte-identical for any --workers value (only the closing wall-clock
// line varies): fixed client schedule + seed => fixed cost totals and a
// fixed default trace, the serving layer's determinism contract.

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/retry.h"
#include "engine/ironsafe.h"
#include "server/query_service.h"
#include "sql/value.h"

namespace ironsafe::bench {
namespace {

using engine::IronSafeSystem;
using server::QueryService;

constexpr int kRounds = 6;

/// Per-client result accounting, filled from the decoded responses.
struct ClientTotals {
  uint64_t statements = 0;
  uint64_t rows = 0;
  uint64_t cache_hits = 0;
  uint64_t offloaded = 0;
  sim::SimNanos monitor_ns = 0;
  sim::SimNanos execution_ns = 0;
};

int Main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  BenchTracer tracer(args);
  BaselineWriter writer(args, "serve_throughput");
  const int clients = args.clients;

  IronSafeSystem::Options options;
  options.csa.scale_factor = args.scale_factor;
  auto system_or = IronSafeSystem::Create(options);
  if (!system_or.ok()) Die(system_or.status());
  auto system = std::move(*system_or);
  if (Status st = system->Bootstrap(); !st.ok()) Die(st);
  system->set_current_date(*sql::ParseDate("1997-06-01"));

  // One producer plus N consumers, all on the same protected table.
  system->RegisterClient("producer");
  std::string policy = "read ::= sessionKeyIs(producer)";
  for (int c = 0; c < clients; ++c) {
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

  // A deliberately tight global bound so the admission controller's
  // backpressure path is exercised under the default schedule.
  server::ServiceOptions service_options;
  service_options.limits.max_per_session = 4;
  service_options.limits.max_total =
      clients > 1 ? 2 * static_cast<size_t>(clients) - 2 : 2;
  QueryService service(system.get(), service_options);

  struct Client {
    uint64_t session = 0;
    std::unique_ptr<net::SecureChannel> channel;
    std::string hot_sql;   ///< repeated every round -> plan-cache hits
    std::string key;
  };
  std::vector<Client> ends(clients);
  for (int c = 0; c < clients; ++c) {
    Client& client = ends[c];
    client.key = "c" + std::to_string(c);
    auto session = service.OpenSession(client.key);
    if (!session.ok()) Die(session.status());
    client.session = session->id;
    client.channel = std::move(session->channel);
    client.hot_sql = "SELECT owner, balance FROM accounts WHERE id = " +
                     std::to_string(c * 7 % 200);
  }

  // Closed-loop mixed workload: every round each client submits its hot
  // statement plus one varying point/range query. Backpressure retries
  // go through common/retry with the canonical classifier, pumping the
  // scheduler on each backoff so the retry always finds room.
  WallClock wall;
  uint64_t backpressure_hits = 0;
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.retryable = [](const Status& s) { return IsBackpressure(s); };
  retry.on_backoff = [&](int, uint64_t, const Status&) {
    ++backpressure_hits;
    service.RunUntilIdle();
  };

  auto submit = [&](Client& client, const std::string& sql) {
    server::StatementRequest request;
    request.sql = sql;
    auto frame = client.channel->Send(
        server::EncodeStatementRequest(request), nullptr);
    if (!frame.ok()) Die(frame.status());
    Status st = RetryWithBackoff(retry, [&]() -> Status {
      auto seq = service.Submit(client.session, *frame);
      return seq.ok() ? Status::OK() : seq.status();
    });
    if (!st.ok()) Die(st);
  };

  for (int round = 0; round < kRounds; ++round) {
    for (int c = 0; c < clients; ++c) {
      Client& client = ends[c];
      submit(client, client.hot_sql);
      int probe = (round * clients + c) % 200;
      submit(client, "SELECT owner FROM accounts WHERE balance > " +
                         std::to_string(100 + probe) + ".5");
    }
    service.RunUntilIdle();
  }
  size_t drained = service.Drain();

  // Decode every completion on the client side of its channel, folding
  // the response bytes into the shared FNV digest (bench_util.h) and
  // sampling end-to-end latencies for the percentile lines below.
  std::vector<ClientTotals> totals(clients);
  ClientTotals grand;
  uint64_t response_digest = kDigestOffset;
  std::vector<sim::SimNanos> e2e;
  for (int c = 0; c < clients; ++c) {
    Client& client = ends[c];
    for (server::Completion& done : service.TakeCompletions(client.session)) {
      if (!done.transport.ok()) Die(done.transport);
      auto plain = client.channel->Receive(done.response_frame, nullptr);
      if (!plain.ok()) Die(plain.status());
      auto response = server::DecodeStatementResponse(*plain);
      if (!response.ok()) Die(response.status());
      if (!response->status.ok()) Die(response->status);
      response_digest = DigestBytes(response_digest, *plain);
      e2e.push_back(done.e2e_ns);
      ClientTotals& t = totals[c];
      ++t.statements;
      t.rows += response->result.rows.size();
      t.cache_hits += response->plan_cache_hit ? 1 : 0;
      t.offloaded += response->offloaded ? 1 : 0;
      t.monitor_ns += response->monitor_ns;
      t.execution_ns += response->execution_ns;
    }
  }
  service.Shutdown();

  PrintHeader("serve_throughput: " + std::to_string(clients) +
              " clients x " + std::to_string(kRounds) + " rounds");
  std::printf("%-8s %6s %6s %10s %10s %12s %12s\n", "client", "stmts",
              "rows", "cache-hit", "offloaded", "monitor(ms)", "exec(ms)");
  for (int c = 0; c < clients; ++c) {
    const ClientTotals& t = totals[c];
    std::printf("%-8s %6llu %6llu %10llu %10llu %12.3f %12.3f\n",
                ends[c].key.c_str(),
                static_cast<unsigned long long>(t.statements),
                static_cast<unsigned long long>(t.rows),
                static_cast<unsigned long long>(t.cache_hits),
                static_cast<unsigned long long>(t.offloaded),
                static_cast<double>(t.monitor_ns) / 1e6,
                static_cast<double>(t.execution_ns) / 1e6);
    grand.statements += t.statements;
    grand.rows += t.rows;
    grand.cache_hits += t.cache_hits;
    grand.offloaded += t.offloaded;
    grand.monitor_ns += t.monitor_ns;
    grand.execution_ns += t.execution_ns;
  }
  std::printf("%-8s %6llu %6llu %10llu %10llu %12.3f %12.3f\n", "TOTAL",
              static_cast<unsigned long long>(grand.statements),
              static_cast<unsigned long long>(grand.rows),
              static_cast<unsigned long long>(grand.cache_hits),
              static_cast<unsigned long long>(grand.offloaded),
              static_cast<double>(grand.monitor_ns) / 1e6,
              static_cast<double>(grand.execution_ns) / 1e6);

  std::printf("e2e latency: p50 %.3f ms, p99 %.3f ms (sim); "
              "response digest %016llx\n",
              static_cast<double>(Percentile(e2e, 50)) / 1e6,
              static_cast<double>(Percentile(e2e, 99)) / 1e6,
              static_cast<unsigned long long>(response_digest));

  QueryService::Stats stats = service.stats();
  std::printf("admission: %llu accepted, %llu backpressure rejections, "
              "peak queue depth %zu (bound %zu)\n",
              static_cast<unsigned long long>(stats.statements_admitted),
              static_cast<unsigned long long>(stats.statements_rejected),
              stats.peak_queue_depth, service_options.limits.max_total);
  std::printf("plan cache: %llu hits / %llu misses; drain flushed %zu; "
              "serve-side shipping %.3f ms (sim)\n",
              static_cast<unsigned long long>(stats.plan_cache_hits),
              static_cast<unsigned long long>(stats.plan_cache_misses),
              drained, static_cast<double>(stats.total_serve_ns) / 1e6);
  if (backpressure_hits != stats.statements_rejected) {
    std::fprintf(stderr, "retry accounting mismatch\n");
    return 1;
  }
  if (grand.statements != stats.statements_executed) {
    std::fprintf(stderr, "lost or duplicated completions\n");
    return 1;
  }
  // --json: same BENCH_*.json schema as the figure benches (one row per
  // simulated aggregate; no baseline re-run column here).
  double wall_ms = wall.ms();
  writer.Add("monitor_total", grand.monitor_ns, wall_ms);
  writer.Add("execution_total", grand.execution_ns, wall_ms);
  writer.Add("serve_shipping", stats.total_serve_ns, wall_ms);
  // Tiny configs can dispatch every statement instantly; baseline_check
  // requires every recorded metric to be positive, so skip a zero.
  if (stats.total_sched_delay_ns > 0) {
    writer.Add("sched_delay_total", stats.total_sched_delay_ns, wall_ms);
  }
  PrintWallClock(wall, "the serving sweep");
  return 0;
}

}  // namespace
}  // namespace ironsafe::bench

int main(int argc, char** argv) { return ironsafe::bench::Main(argc, argv); }
