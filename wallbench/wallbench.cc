// wallbench: the wall-clock benchmark of IronSafe (wallbench/README.md).
//
//   wallbench --workload <tpch-scs|fleet-4shard|serve-mixed> --seed N
//             --seconds S [--trace 0|1] [--smoke] [--trace-json PATH]
//
// Runs one seeded, closed-loop workload in this process against the public
// APIs of engine (CsaSystem), dist (ShardedCsaFleet) and server
// (QueryService), checks every op's output against an untimed reference,
// and prints human-readable tables followed by ONE JSON line of raw
// measurements (setup times, per-op latencies, op and failure counts,
// result digests, summed simulated cost) that run.py turns into the
// benchmark's metrics.
//
// A run executes a fixed number of work units sized from --seconds (see
// Workload::nominal_unit_s). With --trace 1 they are split: the first half
// runs untraced (the throughput base of obs.trace_overhead_frac), the
// second half records wall-clock spans around every public call the ops make, and attribution
// probes then time the layers one call at a time (crypto primitives, page
// reads and writes, plain SQL execution, partitioning, wire serde, channel
// sealing, monitor authorization, per-shard fragments). Spans are recorded
// from this file only; the program itself is not instrumented.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "crypto/aes.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "dist/fleet.h"
#include "dist/planner.h"
#include "engine/csa_system.h"
#include "engine/ironsafe.h"
#include "engine/partitioner.h"
#include "net/secure_channel.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "securestore/secure_store.h"
#include "server/query_service.h"
#include "sql/database.h"
#include "sql/parser.h"
#include "sql/value.h"
#include "storage/block_device.h"
#include "tee/trustzone.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/table_spec.h"
#include "spans.h"

namespace ironsafe::wallbench {
namespace {

constexpr double kScaleFactor = 0.002;
/// TPC-H data is the dbgen seed every committed BENCH_*.json uses, for
/// every workload seed. At SF 0.002 there are only 20 suppliers, so how
/// many are in Q21's nation swings with the data seed, and with it Q21's
/// correlated-subquery cost (0.8 s to 10 s measured): seeded data would
/// make the TPC-H workloads' wall time depend on the seed, not the code.
/// The workload seed drives the per-pass query order instead.
constexpr uint64_t kTpchDataSeed = 19940101;
/// Simulated ns -> host cycles at the paper profile's clock, the same
/// conversion as the committed BENCH_*.json `sim_cycles`.
constexpr double kSimGhz = 3.7;
constexpr size_t kMaxErrors = 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_json;
};

// ---------------------------------------------------------------------------
// Seeded inputs

/// SplitMix64: the benchmark's own generator for every seeded input (query
/// orders, the serving tables and schedule, probe inputs), so what a seed
/// produces does not depend on any generator inside the program.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Independent stream `stream` of seed `seed`.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return SplitMix(seed ^ (stream * 0xd1b54a32d192ed03ull)).Next();
}

Bytes RandomBytes(SplitMix* rng, size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng->Next());
  return out;
}

// ---------------------------------------------------------------------------
// Results and measurements

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a over the rows, order included. Doubles fold their bit pattern
/// (their printed form rounds to four decimals), so equal digests mean
/// bit-identical rows.
uint64_t RowDigest(const sql::QueryResult& result) {
  uint64_t digest = kFnvOffset;
  auto fold = [&digest](unsigned char c) { digest = (digest ^ c) * kFnvPrime; };
  for (const auto& row : result.rows) {
    for (const auto& v : row) {
      if (v.type() == sql::Type::kDouble) {
        double d = v.AsDouble();
        unsigned char bits[sizeof(double)];
        std::memcpy(bits, &d, sizeof(d));
        for (unsigned char c : bits) fold(c);
      } else {
        for (unsigned char c : v.ToString()) fold(c);
      }
      fold('|');
    }
    fold('\n');
  }
  return digest;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// One closed-loop timed phase.
struct Phase {
  std::vector<double> latency_ms;
  std::vector<std::string> labels;  ///< which query/template each op ran
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  /// Wall time and ops attempted of each unit (pass or churn cycle).
  std::vector<double> unit_s;
  std::vector<double> unit_ops;

  /// Brackets one unit of work; call with the attempted count before it.
  void EndUnit(int64_t start_ns, uint64_t attempted_before) {
    unit_s.push_back(static_cast<double>(NowNs() - start_ns) / 1e9);
    unit_ops.push_back(static_cast<double>(attempted - attempted_before));
  }
};

/// What one TPC-H op returns, from either the single node or the fleet.
struct OpOutcome {
  sql::QueryResult result;
  sim::SimNanos sim_ns = 0;
  uint64_t pages_read = 0;
  uint64_t shipped_bytes = 0;
  sql::ExecStats stats;
};

/// Work counts summed over the ops of the traced phase (or the probes).
struct WorkCounts {
  uint64_t ops = 0;
  uint64_t pages_read = 0;
  uint64_t shipped_bytes = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_out = 0;

  void Add(const OpOutcome& o) {
    ++ops;
    pages_read += o.pages_read;
    shipped_bytes += o.shipped_bytes;
    rows_scanned += o.stats.rows_scanned;
    rows_out += o.stats.rows_output;
  }
};

using LayerValues = std::map<std::string, double>;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median duration of the spans named `name`, in `unit_ns` units.
double MedianSpan(const SpanLog& log, std::string_view name, double unit_ns) {
  std::vector<double> v;
  for (int64_t ns : log.Durations(name)) {
    v.push_back(static_cast<double>(ns) / unit_ns);
  }
  return Median(std::move(v));
}

double SumSpanNs(const SpanLog& log, std::string_view name) {
  double total = 0;
  for (int64_t ns : log.Durations(name)) total += static_cast<double>(ns);
  return total;
}

/// Process-wide registry counters, differenced around the traced phase.
std::map<std::string, int64_t> CounterSnapshot() {
  std::map<std::string, int64_t> out;
  for (auto& [name, value] : obs::MetricsRegistry::Global().Snapshot()) {
    out[name] = value;
  }
  return out;
}

int64_t CounterDelta(const std::map<std::string, int64_t>& before,
                     const std::map<std::string, int64_t>& after,
                     const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

// ---------------------------------------------------------------------------
// Probes shared by every workload

constexpr int kCryptoReps = 32;
constexpr int kCurveReps = 8;
constexpr int kProbeStorePages = 64;
constexpr double kMiB = 1024.0 * 1024.0;

/// A secure store the benchmark builds for itself: the page-write probe
/// (and the page-read probe where the workload's store is not reachable
/// through a public API).
struct ProbeStore {
  tee::DeviceManufacturer manufacturer{ToBytes("wallbench-mfg")};
  tee::TrustZoneDevice device{ToBytes("wallbench-node"), manufacturer,
                              tee::StorageNodeConfig{"probe", "eu", 1}};
  securestore::SecureStorageTa ta{&device};
  storage::BlockDevice disk;
  std::unique_ptr<securestore::SecureStore> store;
};

/// Times the page-crypto and signature primitives on seeded inputs.
Status ProbeCrypto(uint64_t seed, SpanLog* log) {
  SplitMix rng(StreamSeed(seed, 90));
  Bytes key = RandomBytes(&rng, 32);
  Bytes iv = RandomBytes(&rng, 16);
  Bytes page = RandomBytes(&rng, securestore::SecureStore::kPageSize);
  Bytes ciphertext;
  for (int i = 0; i < kCryptoReps; ++i) {
    Scope s(log, "crypto.AesCbcEncrypt", "crypto");
    ASSIGN_OR_RETURN(ciphertext, crypto::AesCbcEncrypt(key, iv, page));
  }
  for (int i = 0; i < kCryptoReps; ++i) {
    Scope s(log, "crypto.AesCbcDecrypt", "crypto");
    ASSIGN_OR_RETURN(Bytes plain, crypto::AesCbcDecrypt(key, iv, ciphertext));
    s.Close();
    if (plain != page) return Status::Internal("AES-CBC round trip differs");
  }
  for (int i = 0; i < kCryptoReps; ++i) {
    Scope s(log, "crypto.HmacSha512", "crypto");
    Bytes mac = crypto::HmacSha512(key, page);
    s.Close();
    if (mac.size() != 64) return Status::Internal("HMAC-SHA512 size");
  }
  ASSIGN_OR_RETURN(crypto::Ed25519KeyPair pair,
                   crypto::Ed25519KeyPairFromSeed(RandomBytes(&rng, 32)));
  Bytes message = RandomBytes(&rng, 256);
  Bytes signature;
  for (int i = 0; i < kCurveReps; ++i) {
    Scope s(log, "crypto.Ed25519Sign", "crypto");
    ASSIGN_OR_RETURN(signature, crypto::Ed25519Sign(pair.private_key, message));
  }
  for (int i = 0; i < kCurveReps; ++i) {
    Scope s(log, "crypto.Ed25519Verify", "crypto");
    bool ok = crypto::Ed25519Verify(pair.public_key, message, signature);
    s.Close();
    if (!ok) return Status::Internal("Ed25519 signature does not verify");
  }
  Bytes scalar = RandomBytes(&rng, 32);
  ASSIGN_OR_RETURN(Bytes point, crypto::X25519Base(RandomBytes(&rng, 32)));
  for (int i = 0; i < kCurveReps; ++i) {
    Scope s(log, "crypto.X25519", "crypto");
    ASSIGN_OR_RETURN(Bytes shared, crypto::X25519(scalar, point));
  }
  return Status::OK();
}

/// Builds a fresh store and times WritePage outside batch mode (each write
/// re-MACs, updates the Merkle path and commits the root, as DML does).
Result<std::unique_ptr<ProbeStore>> ProbeWrites(uint64_t seed, SpanLog* log) {
  auto probe = std::make_unique<ProbeStore>();
  ASSIGN_OR_RETURN(probe->store,
                   securestore::SecureStore::Create(&probe->disk, &probe->ta));
  SplitMix rng(StreamSeed(seed, 91));
  for (int i = 0; i < kProbeStorePages; ++i) {
    Bytes page = RandomBytes(&rng, securestore::SecureStore::kPageSize);
    Scope s(log, "securestore.SecureStore::WritePage", "securestore");
    RETURN_IF_ERROR(probe->store->WritePage(static_cast<uint64_t>(i), page));
  }
  return probe;
}

/// Reads and verifies every page of `store`.
Status ProbeReads(securestore::SecureStore* store, SpanLog* log) {
  for (uint64_t i = 0; i < store->num_pages(); ++i) {
    Scope s(log, "securestore.SecureStore::ReadPage", "securestore");
    RETURN_IF_ERROR(store->ReadPage(i).status());
  }
  return Status::OK();
}

/// Wire serde and channel sealing of the results a query ships.
struct SerdeProbe {
  std::unique_ptr<net::SecureChannel> sender;
  std::unique_ptr<net::SecureChannel> receiver;
  double bytes = 0;

  Status Init(uint64_t seed) {
    SplitMix rng(StreamSeed(seed, 92));
    ASSIGN_OR_RETURN(auto pair,
                     net::Handshake::FromSessionKey(RandomBytes(&rng, 32)));
    sender = std::move(pair.first);
    receiver = std::move(pair.second);
    return Status::OK();
  }

  Status Ship(const sql::QueryResult& result, SpanLog* log) {
    Scope ser(log, "net.SerializeResult", "net");
    Bytes wire = net::SerializeResult(result);
    ser.Close();
    bytes += static_cast<double>(wire.size());
    Scope de(log, "net.DeserializeResult", "net");
    ASSIGN_OR_RETURN(sql::QueryResult back, net::DeserializeResult(wire));
    de.Close();
    if (back.rows.size() != result.rows.size()) {
      return Status::Internal("wire round trip lost rows");
    }
    Scope seal(log, "net.SecureChannel::Send+Receive", "net");
    ASSIGN_OR_RETURN(Bytes frame, sender->Send(wire, nullptr));
    ASSIGN_OR_RETURN(Bytes opened, receiver->Receive(frame, nullptr));
    seal.Close();
    if (opened != wire) return Status::Internal("channel round trip differs");
    return Status::OK();
  }

  void Report(const SpanLog& log, LayerValues* out) const {
    double mib = bytes / kMiB;
    auto per_mib = [&](std::string_view name) {
      return mib > 0 ? SumSpanNs(log, name) / 1e3 / mib : 0.0;
    };
    (*out)["net.serialize_us_per_mib"] = per_mib("net.SerializeResult");
    (*out)["net.deserialize_us_per_mib"] = per_mib("net.DeserializeResult");
    (*out)["net.channel_seal_open_us_per_mib"] =
        per_mib("net.SecureChannel::Send+Receive");
  }
};

void ReportCommonProbes(const SpanLog& log, LayerValues* out) {
  (*out)["crypto.aes256_cbc_decrypt_us"] =
      MedianSpan(log, "crypto.AesCbcDecrypt", 1e3);
  (*out)["crypto.aes256_cbc_encrypt_us"] =
      MedianSpan(log, "crypto.AesCbcEncrypt", 1e3);
  (*out)["crypto.hmac_sha512_us"] = MedianSpan(log, "crypto.HmacSha512", 1e3);
  (*out)["crypto.ed25519_sign_us"] =
      MedianSpan(log, "crypto.Ed25519Sign", 1e3);
  (*out)["crypto.ed25519_verify_us"] =
      MedianSpan(log, "crypto.Ed25519Verify", 1e3);
  (*out)["crypto.x25519_us"] = MedianSpan(log, "crypto.X25519", 1e3);
  (*out)["securestore.read_page_us"] =
      MedianSpan(log, "securestore.SecureStore::ReadPage", 1e3);
  (*out)["securestore.write_page_us"] =
      MedianSpan(log, "securestore.SecureStore::WritePage", 1e3);
  (*out)["sql.plain_exec_ms"] = MedianSpan(log, "sql.Database::Execute", 1e6);
  (*out)["engine.partition_us"] = MedianSpan(log, "engine.PartitionQuery", 1e3);
}

void ReportWork(const WorkCounts& w, LayerValues* out) {
  double ops = static_cast<double>(std::max<uint64_t>(w.ops, 1));
  (*out)["securestore.pages_read_per_op"] =
      static_cast<double>(w.pages_read) / ops;
  (*out)["engine.shipped_bytes_per_op"] =
      static_cast<double>(w.shipped_bytes) / ops;
  (*out)["sql.rows_scanned_per_row_out"] =
      static_cast<double>(w.rows_scanned) /
      static_cast<double>(std::max<uint64_t>(w.rows_out, 1));
}

// ---------------------------------------------------------------------------
// Workloads

class Workload {
 public:
  explicit Workload(const Args& args) : args_(args) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual int clients() const = 0;
  virtual int default_setups() const = 0;
  /// Builds the system under test: everything a user waits for before
  /// the first op (system create, data generation and secure load,
  /// attestation, session opens).
  virtual Status Setup() = 0;
  /// Untimed correctness reference for every op the workload can send.
  virtual Status BuildReference() = 0;
  /// Wall time of one unit of work -- a pass over the queries (TPC-H) or
  /// a round of one statement per session (serving) -- on the 4-core box
  /// the benchmark was calibrated on. A run executes a fixed number of
  /// units, sized so it lasts about --seconds there: a fixed op count
  /// keeps the tail percentile on the same op kind run after run, where a
  /// time cut-off would add a pass on some runs and not on others.
  virtual double nominal_unit_s() const = 0;
  /// Closed-loop ops: `units` passes or rounds.
  virtual void Run(int units, SpanLog* log, Phase* phase) = 0;

  int UnitsFor(double seconds) const {
    if (args_.smoke) return 1;
    return std::max(1, static_cast<int>(std::lround(seconds / nominal_unit_s())));
  }
  /// Attribution probes of the traced run (after the traced phase).
  virtual Status Probe(SpanLog* log, LayerValues* out) = 0;

  uint64_t sim_cycles() const {
    return static_cast<uint64_t>(
        std::llround(static_cast<double>(sim_ns_) * kSimGhz));
  }
  const std::map<std::string, std::string>& digests() const {
    return digests_;
  }
  const std::vector<std::string>& errors() const { return errors_; }

 protected:
  void Fail(Phase* phase, const std::string& what) {
    if (phase != nullptr) ++phase->failed;
    if (errors_.size() < kMaxErrors) errors_.push_back(what);
  }
  /// Folds one op's simulated cost into the model-drift sum, which covers
  /// a fixed op window so it repeats exactly for a given seed.
  void AddSim(sim::SimNanos ns, size_t window) {
    if (sim_ops_ >= window) return;
    sim_ns_ += ns;
    ++sim_ops_;
  }

  const Args& args_;
  std::map<std::string, std::string> digests_;
  std::vector<std::string> errors_;
  int64_t next_op_ = 0;

 private:
  sim::SimNanos sim_ns_ = 0;
  uint64_t sim_ops_ = 0;
};

/// One client running TPC-H queries, each pass in a seeded order; the
/// single-node and fleet variants differ only in how a query runs.
class TpchWorkload : public Workload {
 public:
  TpchWorkload(const Args& args, std::vector<int> numbers)
      : Workload(args) {
    for (int n : numbers) {
      auto q = tpch::GetQuery(n);
      if (q.ok()) queries_.push_back(*q);
    }
  }

  int clients() const override { return 1; }

  Status BuildReference() override {
    reference_ = sql::Database::CreateInMemory();
    tpch::TpchGenerator gen(tpch::TpchConfig{kScaleFactor, kTpchDataSeed});
    RETURN_IF_ERROR(gen.LoadInto(reference_.get()));
    for (const tpch::TpchQuery* q : queries_) {
      ASSIGN_OR_RETURN(sql::QueryResult r, reference_->Execute(q->sql));
      reference_digest_[q->number] = RowDigest(r);
      digests_["Q" + std::to_string(q->number)] = Hex(RowDigest(r));
    }
    return Status::OK();
  }

  void Run(int units, SpanLog* log, Phase* phase) override {
    int64_t start = NowNs();
    bool traced = log != nullptr && log->enabled();
    for (int unit = 0; unit < units; ++unit) {
      int64_t unit_start = NowNs();
      uint64_t attempted_before = phase->attempted;
      std::vector<const tpch::TpchQuery*> order = queries_;
      SplitMix rng(StreamSeed(args_.seed, 100 + pass_++));
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.Uniform(i)]);
      }
      for (const tpch::TpchQuery* q : order) {
        int64_t op = next_op_++;
        if (log != nullptr) log->set_op(op);
        int64_t t0 = NowNs();
        Result<OpOutcome> out = RunQuery(q->sql, log);
        int64_t t1 = NowNs();
        ++phase->attempted;
        std::string label = "Q" + std::to_string(q->number);
        phase->latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        phase->labels.push_back(label);
        if (!out.ok()) {
          Fail(phase, label + ": " + out.status().ToString());
          continue;
        }
        if (RowDigest(out->result) != reference_digest_[q->number]) {
          Fail(phase, label + ": rows differ from the reference");
          continue;
        }
        AddSim(out->sim_ns, queries_.size());
        if (traced) traced_work_.Add(*out);
      }
      phase->EndUnit(unit_start, attempted_before);
    }
    if (log != nullptr) log->set_op(-1);
    phase->elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  }

  Status Probe(SpanLog* log, LayerValues* out) override {
    RETURN_IF_ERROR(ProbeCrypto(args_.seed, log));
    ASSIGN_OR_RETURN(std::unique_ptr<ProbeStore> probe_store,
                     ProbeWrites(args_.seed, log));
    securestore::SecureStore* loaded = LoadedStore();
    RETURN_IF_ERROR(ProbeReads(
        loaded != nullptr ? loaded : probe_store->store.get(), log));
    SerdeProbe serde;
    RETURN_IF_ERROR(serde.Init(args_.seed));
    for (const tpch::TpchQuery* q : queries_) {
      Scope plain(log, "sql.Database::Execute", "sql");
      RETURN_IF_ERROR(PlainDb()->Execute(q->sql).status());
      plain.Close();
      Scope part(log, "engine.PartitionQuery", "engine");
      ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                       sql::ParseSelect(q->sql));
      ASSIGN_OR_RETURN(engine::PartitionedQuery plan,
                       engine::PartitionQuery(*stmt, *SchemaDb()));
      part.Close();
      ASSIGN_OR_RETURN(std::vector<sql::QueryResult> shipped,
                       FragmentResults(q->sql, plan, log));
      for (const sql::QueryResult& r : shipped) {
        RETURN_IF_ERROR(serde.Ship(r, log));
      }
    }
    ReportCommonProbes(*log, out);
    serde.Report(*log, out);
    ReportWork(traced_work_, out);
    ReportDist(out);
    return Status::OK();
  }

 protected:
  virtual Result<OpOutcome> RunQuery(const std::string& sql, SpanLog* log) = 0;
  /// The store whose pages the ops read, when a public API reaches it.
  virtual securestore::SecureStore* LoadedStore() = 0;
  /// Where sql.plain_exec_ms runs the query without security.
  virtual sql::Database* PlainDb() = 0;
  /// Schemas for the partitioner.
  virtual sql::Database* SchemaDb() = 0;
  /// The near-data fragment results a query ships to the host.
  virtual Result<std::vector<sql::QueryResult>> FragmentResults(
      const std::string& sql, const engine::PartitionedQuery& plan,
      SpanLog* log) = 0;
  /// The dist.* per-layer values, where the workload runs dist.
  virtual void ReportDist(LayerValues*) {}

  static sql::ExecOptions StorageOptions() {
    sql::ExecOptions opts;
    opts.site = sim::Site::kStorage;
    opts.parallelism = engine::CsaOptions{}.storage_cores;
    return opts;
  }

  Status LoadTpch(sql::Database* db) const {
    tpch::TpchGenerator gen(tpch::TpchConfig{kScaleFactor, kTpchDataSeed});
    return gen.LoadInto(db);
  }

  std::vector<const tpch::TpchQuery*> queries_;
  std::unique_ptr<sql::Database> reference_;
  std::map<int, uint64_t> reference_digest_;
  WorkCounts traced_work_;
  uint64_t pass_ = 0;
};

std::vector<int> EvaluatedQueryNumbers() {
  std::vector<int> out;
  for (const tpch::TpchQuery& q : tpch::Queries()) out.push_back(q.number);
  return out;
}

/// tpch-scs: the 16 evaluated queries on CsaSystem in the scs config.
class ScsWorkload : public TpchWorkload {
 public:
  explicit ScsWorkload(const Args& args)
      : TpchWorkload(args, args.smoke ? std::vector<int>{6, 12, 14}
                                      : EvaluatedQueryNumbers()) {}

  int default_setups() const override { return 8; }
  double nominal_unit_s() const override { return 6.5; }

  Status Setup() override {
    engine::CsaOptions options;
    options.scale_factor = kScaleFactor;
    ASSIGN_OR_RETURN(csa_, engine::CsaSystem::Create(options));
    return csa_->Load([this](sql::Database* db) { return LoadTpch(db); });
  }

 protected:
  Result<OpOutcome> RunQuery(const std::string& sql, SpanLog* log) override {
    Scope s(log, "engine.CsaSystem::Run", "engine");
    ASSIGN_OR_RETURN(engine::QueryOutcome q,
                     csa_->Run(engine::SystemConfig::kScs, sql));
    OpOutcome out;
    out.result = std::move(q.result);
    out.sim_ns = q.cost.elapsed_ns();
    out.pages_read = q.storage_pages_read;
    out.shipped_bytes = q.shipped_bytes;
    out.stats = q.stats;
    return out;
  }

  securestore::SecureStore* LoadedStore() override {
    return csa_->secure_store();
  }
  sql::Database* PlainDb() override { return csa_->plain_db(); }
  sql::Database* SchemaDb() override { return csa_->secure_db(); }

  Result<std::vector<sql::QueryResult>> FragmentResults(
      const std::string&, const engine::PartitionedQuery& plan,
      SpanLog*) override {
    // Same rows the secure fragments ship, computed without page crypto.
    std::vector<sql::QueryResult> out;
    for (const auto& frag : plan.fragments) {
      ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                       sql::ParseSelect(frag.sql));
      sim::CostModel cost;
      ASSIGN_OR_RETURN(sql::QueryResult r,
                       sql::ExecuteSelect(csa_->plain_db(), *stmt, nullptr,
                                          &cost, StorageOptions()));
      out.push_back(std::move(r));
    }
    return out;
  }

 private:
  std::unique_ptr<engine::CsaSystem> csa_;
};

/// fleet-4shard: fig12's five queries on 4 shard groups x 2 replicas.
class FleetWorkload : public TpchWorkload {
 public:
  static constexpr int kShards = 4;

  explicit FleetWorkload(const Args& args)
      : TpchWorkload(args, args.smoke ? std::vector<int>{6, 14}
                                      : std::vector<int>{3, 6, 12, 13, 14}) {}

  int default_setups() const override { return 6; }
  double nominal_unit_s() const override { return 1.35; }

  Status Setup() override {
    dist::FleetOptions options;
    options.shard_count = kShards;
    options.replicas_per_shard = 2;
    options.partitions = tpch::TpchPartitionScheme();
    ASSIGN_OR_RETURN(fleet_, dist::ShardedCsaFleet::Create(options));
    return fleet_->Load([this](sql::Database* db) { return LoadTpch(db); });
  }

 protected:
  Result<OpOutcome> RunQuery(const std::string& sql, SpanLog* log) override {
    Scope s(log, "dist.ShardedCsaFleet::Run", "dist");
    ASSIGN_OR_RETURN(dist::FleetOutcome f, fleet_->Run(sql));
    OpOutcome out;
    out.result = std::move(f.result);
    out.sim_ns = f.cost.elapsed_ns();
    out.pages_read = f.storage_pages_read;
    out.shipped_bytes = f.shipped_bytes;
    out.stats = f.stats;
    return out;
  }

  // The nodes' stores are private to the fleet; the read probe uses the
  // benchmark's own store instead.
  securestore::SecureStore* LoadedStore() override { return nullptr; }
  sql::Database* PlainDb() override { return reference_.get(); }
  sql::Database* SchemaDb() override { return fleet_->node_db(0, 0); }

  /// Plans the query for the fleet, then runs each group's fragments on
  /// its first replica, one group after another (as the fleet does).
  Result<std::vector<sql::QueryResult>> FragmentResults(
      const std::string& sql, const engine::PartitionedQuery&,
      SpanLog* log) override {
    ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                     sql::ParseSelect(sql));
    dist::PlannerOptions planner;
    planner.shard_count = kShards;
    planner.co_located = [this](const std::string& a, const std::string& b) {
      return fleet_->CoLocated(a, b);
    };
    Scope plan_span(log, "dist.PlanQuery", "dist");
    ASSIGN_OR_RETURN(dist::DistPlan plan,
                     dist::PlanQuery(*stmt, *fleet_->node_db(0, 0),
                                     tpch::TpchPartitionScheme(), planner));
    plan_span.Close();
    std::vector<sql::QueryResult> out;
    double max_ms = 0;
    double sum_ms = 0;
    for (int g = 0; g < kShards; ++g) {
      int64_t t0 = NowNs();
      Scope group(log, "dist.shard_group", "dist");
      for (const dist::FragmentPlacement& p : plan.fragments) {
        if (!p.partitioned && p.home_group != g) continue;
        ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> frag,
                         sql::ParseSelect(p.fragment.sql));
        sim::CostModel cost;
        Scope exec(log, "sql.ExecuteSelect", "sql");
        ASSIGN_OR_RETURN(sql::QueryResult r,
                         sql::ExecuteSelect(fleet_->node_db(g, 0), *frag,
                                            nullptr, &cost, StorageOptions()));
        exec.Close();
        out.push_back(std::move(r));
      }
      group.Close();
      double ms = static_cast<double>(NowNs() - t0) / 1e6;
      max_ms = std::max(max_ms, ms);
      sum_ms += ms;
    }
    group_max_ms_.push_back(max_ms);
    group_sum_ms_.push_back(sum_ms);
    return out;
  }

  void ReportDist(LayerValues* out) override {
    double max_total = 0;
    double sum_total = 0;
    for (double v : group_max_ms_) max_total += v;
    for (double v : group_sum_ms_) sum_total += v;
    double n = static_cast<double>(std::max<size_t>(group_max_ms_.size(), 1));
    (*out)["dist.shard_fragment_ms_max"] = max_total / n;
    (*out)["dist.shard_fragment_ms_sum"] = sum_total / n;
  }

 private:
  std::unique_ptr<dist::ShardedCsaFleet> fleet_;
  std::vector<double> group_max_ms_;
  std::vector<double> group_sum_ms_;
};

/// serve-mixed: 8 closed-loop sessions multiplexed on this thread against
/// QueryService over a bootstrapped IronSafeSystem.
class ServeWorkload : public Workload {
 public:
  static constexpr int kSessions = 8;
  static constexpr int kTemplates = 16;
  /// Plan-cache entries are per (client, statement): 8 x 16 keys, twice
  /// the capacity, so both the hit and the miss path run.
  static constexpr size_t kPlanCacheCapacity = 64;
  static constexpr int kChurnEvery = 16;
  static constexpr int kRows = 200;
  static constexpr int kRowsPerBatch = 25;
  static constexpr double kInsertShare = 0.10;
  static constexpr size_t kSimWindow = 256;

  explicit ServeWorkload(const Args& args) : Workload(args) {
    access_day_ = *sql::ParseDate("1997-06-01");
    SplitMix data(StreamSeed(args.seed, 200));
    for (int b = 0; b < kRows / kRowsPerBatch; ++b) {
      bool live = b == 0 || (b != 1 && data.Unit() < 0.7);
      batch_expiry_.push_back(
          live ? access_day_ + 30 + static_cast<int64_t>(data.Uniform(700))
               : access_day_ - 1 - static_cast<int64_t>(data.Uniform(300)));
    }
    for (int i = 0; i < kRows; ++i) {
      balances_.push_back(100.0 + static_cast<double>(data.Uniform(20000)) / 4);
    }
    // Every fourth template is a range scan, the rest point lookups.
    for (int t = 0; t < kTemplates; ++t) {
      if (t % 4 == 3) {
        double lo = 100.0 + static_cast<double>(data.Uniform(14000)) / 4;
        templates_.push_back(
            "SELECT id, owner, balance FROM accounts WHERE balance >= " +
            sql::Value::Double(lo).ToString() + " AND balance < " +
            sql::Value::Double(lo + 1500).ToString());
      } else {
        templates_.push_back("SELECT owner, balance FROM accounts WHERE id = " +
                             std::to_string(data.Uniform(kRows)));
      }
    }
    // Zipf(1) popularity over the templates.
    double total = 0;
    for (int t = 0; t < kTemplates; ++t) total += 1.0 / (t + 1);
    double acc = 0;
    for (int t = 0; t < kTemplates; ++t) {
      acc += 1.0 / (t + 1) / total;
      zipf_cdf_.push_back(acc);
    }
  }

  int clients() const override { return kSessions; }
  int default_setups() const override { return 8; }
  double nominal_unit_s() const override { return 0.8; }

  Status Setup() override {
    engine::IronSafeSystem::Options options;
    options.csa.scale_factor = kScaleFactor;
    ASSIGN_OR_RETURN(system_, engine::IronSafeSystem::Create(options));
    RETURN_IF_ERROR(system_->Bootstrap());
    system_->set_current_date(access_day_);
    system_->RegisterClient("producer");
    std::string read = "read ::= sessionKeyIs(producer)";
    std::string write = "write ::= sessionKeyIs(producer)";
    for (int s = 0; s < kSessions; ++s) {
      std::string key = ClientKey(s);
      system_->RegisterClient(key);
      read += " | sessionKeyIs(" + key + ") & le(T, TIMESTAMP)";
      write += " | sessionKeyIs(" + key + ")";
    }
    RETURN_IF_ERROR(system_->CreateProtectedTable(
        "producer",
        "CREATE TABLE accounts (id INTEGER, owner VARCHAR, balance DOUBLE)",
        read + "\nwrite ::= sessionKeyIs(producer)\n", /*with_expiry=*/true,
        /*with_reuse=*/false));
    for (int b = 0; b < kRows / kRowsPerBatch; ++b) {
      std::string insert = "INSERT INTO accounts (id, owner, balance) VALUES ";
      for (int i = b * kRowsPerBatch; i < (b + 1) * kRowsPerBatch; ++i) {
        if (i > b * kRowsPerBatch) insert += ", ";
        insert += "(" + std::to_string(i) + ", 'user" + std::to_string(i) +
                  "', " + sql::Value::Double(balances_[i]).ToString() + ")";
      }
      RETURN_IF_ERROR(
          system_->Execute("producer", insert, "", batch_expiry_[b]).status());
    }
    RETURN_IF_ERROR(system_->CreateProtectedTable(
        "producer",
        "CREATE TABLE events (id INTEGER, client INTEGER, amount DOUBLE)",
        "read ::= sessionKeyIs(producer)\n" + write + "\n",
        /*with_expiry=*/false, /*with_reuse=*/false));
    server::ServiceOptions service_options;
    service_options.plan_cache_capacity = kPlanCacheCapacity;
    service_ =
        std::make_unique<server::QueryService>(system_.get(), service_options);
    for (int s = 0; s < kSessions; ++s) {
      Session session;
      session.key = ClientKey(s);
      session.rng = SplitMix(StreamSeed(args_.seed, 300 + s));
      RETURN_IF_ERROR(Open(&session, nullptr));
      sessions_.push_back(std::move(session));
    }
    return Status::OK();
  }

  /// The in-memory mirror: the accounts rows a consumer may see (expiry
  /// predicate applied), queried with each template.
  Status BuildReference() override {
    auto mirror = sql::Database::CreateInMemory();
    RETURN_IF_ERROR(
        mirror
            ->Execute(
                "CREATE TABLE accounts (id INTEGER, owner VARCHAR, "
                "balance DOUBLE)")
            .status());
    for (int i = 0; i < kRows; ++i) {
      if (batch_expiry_[i / kRowsPerBatch] < access_day_) continue;
      RETURN_IF_ERROR(
          mirror
              ->Execute("INSERT INTO accounts (id, owner, balance) VALUES (" +
                        std::to_string(i) + ", 'user" + std::to_string(i) +
                        "', " + sql::Value::Double(balances_[i]).ToString() +
                        ")")
              .status());
    }
    for (int t = 0; t < kTemplates; ++t) {
      ASSIGN_OR_RETURN(sql::QueryResult r, mirror->Execute(templates_[t]));
      reference_digest_.push_back(RowDigest(r));
      char label[8];
      std::snprintf(label, sizeof(label), "t%02d", t);
      digests_[label] = Hex(reference_digest_.back());
    }
    return Status::OK();
  }

  void Run(int units, SpanLog* log, Phase* phase) override {
    int64_t start = NowNs();
    bool traced = log != nullptr && log->enabled();
    server::QueryService::Stats before = service_->stats();
    // Smoke runs still take a few rounds, so sessions churn once.
    // A unit is one churn cycle: every session reopens once per unit.
    for (int unit = 0; unit < (args_.smoke ? 2 : units); ++unit) {
      int64_t unit_start = NowNs();
      uint64_t attempted_before = phase->attempted;
      for (int round = 0; round < kChurnEvery; ++round) Round(log, phase);
      phase->EndUnit(unit_start, attempted_before);
    }
    if (log != nullptr) log->set_op(-1);
    phase->elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    if (traced) {
      server::QueryService::Stats after = service_->stats();
      double hits = static_cast<double>(after.plan_cache_hits -
                                        before.plan_cache_hits);
      double misses = static_cast<double>(after.plan_cache_misses -
                                          before.plan_cache_misses);
      double admitted = static_cast<double>(after.statements_admitted -
                                            before.statements_admitted);
      double rejected = static_cast<double>(after.statements_rejected -
                                            before.statements_rejected);
      cache_hit_ratio_ = hits + misses > 0 ? hits / (hits + misses) : 0;
      reject_ratio_ =
          admitted + rejected > 0 ? rejected / (admitted + rejected) : 0;
    }
  }

  Status Probe(SpanLog* log, LayerValues* out) override {
    RETURN_IF_ERROR(ProbeCrypto(args_.seed, log));
    ASSIGN_OR_RETURN(std::unique_ptr<ProbeStore> probe_store,
                     ProbeWrites(args_.seed, log));
    RETURN_IF_ERROR(ProbeReads(system_->csa()->secure_store(), log));
    SerdeProbe serde;
    RETURN_IF_ERROR(serde.Init(args_.seed));
    WorkCounts work;
    const std::string client = ClientKey(0);
    for (int t = 0; t < kTemplates; ++t) {
      const std::string& text = templates_[t];
      Scope auth_span(log, "monitor.IronSafeSystem::Authorize", "monitor");
      ASSIGN_OR_RETURN(engine::IronSafeSystem::Authorized auth,
                       system_->Authorize(client, text));
      auth_span.Close();
      Scope exec_span(log, "engine.IronSafeSystem::ExecuteAuthorized",
                      "engine");
      ASSIGN_OR_RETURN(engine::IronSafeSystem::ExecutionResult exec,
                       system_->ExecuteAuthorized(auth.auth,
                                                  auth.auth.session_key, "",
                                                  text, auth.monitor_ns));
      exec_span.Close();
      if (RowDigest(exec.result) != reference_digest_[t]) {
        return Status::Internal("probe: template " + std::to_string(t) +
                                " rows differ from the mirror");
      }
      Scope cached_span(log, "monitor.IronSafeSystem::AuthorizeCached",
                        "monitor");
      ASSIGN_OR_RETURN(Bytes key, system_->AuthorizeCached(
                                      client, text, auth.auth.obligations));
      cached_span.Close();
      system_->monitor()->EndSession(key);

      const std::string rewritten = exec.rewritten_sql;
      Scope run_span(log, "engine.CsaSystem::Run", "engine");
      ASSIGN_OR_RETURN(engine::QueryOutcome outcome,
                       system_->csa()->Run(engine::SystemConfig::kScs,
                                           rewritten));
      run_span.Close();
      OpOutcome op;
      op.pages_read = outcome.storage_pages_read;
      op.shipped_bytes = outcome.shipped_bytes;
      op.stats = outcome.stats;
      work.Add(op);
      Scope plain(log, "sql.Database::Execute", "sql");
      RETURN_IF_ERROR(system_->csa()->plain_db()->Execute(rewritten).status());
      plain.Close();
      Scope part(log, "engine.PartitionQuery", "engine");
      ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                       sql::ParseSelect(rewritten));
      RETURN_IF_ERROR(
          engine::PartitionQuery(*stmt, *system_->csa()->secure_db())
              .status());
      part.Close();
      RETURN_IF_ERROR(serde.Ship(outcome.result, log));
    }
    ReportCommonProbes(*log, out);
    serde.Report(*log, out);
    ReportWork(work, out);
    (*out)["monitor.authorize_ms"] =
        MedianSpan(*log, "monitor.IronSafeSystem::Authorize", 1e6);
    (*out)["monitor.authorize_cached_ms"] =
        MedianSpan(*log, "monitor.IronSafeSystem::AuthorizeCached", 1e6);
    (*out)["engine.execute_authorized_ms"] =
        MedianSpan(*log, "engine.IronSafeSystem::ExecuteAuthorized", 1e6);
    (*out)["server.open_session_ms"] =
        MedianSpan(*log, "server.QueryService::OpenSession", 1e6);
    (*out)["server.submit_us"] =
        MedianSpan(*log, "server.QueryService::Submit", 1e3);
    (*out)["server.run_until_idle_ms"] =
        MedianSpan(*log, "server.QueryService::RunUntilIdle", 1e6);
    (*out)["server.plan_cache_hit_ratio"] = cache_hit_ratio_;
    (*out)["server.admission_reject_ratio"] = reject_ratio_;
    return Status::OK();
  }

  /// Untimed end check: every acknowledged insert is readable.
  Status CheckWrites() {
    ASSIGN_OR_RETURN(engine::IronSafeSystem::ExecutionResult r,
                     system_->Execute("producer",
                                      "SELECT COUNT(*) FROM events"));
    if (r.result.rows.size() != 1 ||
        r.result.rows[0][0].AsInt() != static_cast<int64_t>(inserts_)) {
      return Status::Internal("events holds " +
                              (r.result.rows.empty()
                                   ? std::string("no rows")
                                   : r.result.rows[0][0].ToString()) +
                              " rows, " + std::to_string(inserts_) +
                              " inserts were acknowledged");
    }
    return Status::OK();
  }

 private:
  struct Session {
    std::string key;
    uint64_t id = 0;
    std::unique_ptr<net::SecureChannel> channel;
    SplitMix rng{0};
    int since_open = 0;
  };

  /// One statement in flight this round.
  struct Pending {
    int64_t op = 0;
    int tmpl = -1;  // -1: an insert
    int64_t submitted_ns = 0;
    bool submitted = false;
  };

  static std::string ClientKey(int s) { return "c" + std::to_string(s); }

  Status Open(Session* session, SpanLog* log) {
    Scope s(log, "server.QueryService::OpenSession", "server");
    ASSIGN_OR_RETURN(server::QueryService::ClientSession opened,
                     service_->OpenSession(session->key));
    session->id = opened.id;
    session->channel = std::move(opened.channel);
    session->since_open = 0;
    return Status::OK();
  }

  void Round(SpanLog* log, Phase* phase) {
    Scope round(log, "round", "bench");
    std::vector<Pending> pending(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      Session& session = sessions_[s];
      Pending& p = pending[s];
      p.op = next_op_++;
      if (log != nullptr) log->set_op(p.op);
      server::StatementRequest request;
      if (session.rng.Unit() < kInsertShare) {
        uint64_t id = next_event_id_++;
        request.sql = "INSERT INTO events (id, client, amount) VALUES (" +
                      std::to_string(id) + ", " + std::to_string(s) + ", " +
                      std::to_string(session.rng.Uniform(100000)) + ".25)";
      } else {
        double u = session.rng.Unit();
        p.tmpl = static_cast<int>(
            std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end() - 1, u) -
            zipf_cdf_.begin());
        request.sql = templates_[p.tmpl];
      }
      ++phase->attempted;
      Scope seal(log, "net.SecureChannel::Send", "net");
      Result<Bytes> frame = session.channel->Send(
          server::EncodeStatementRequest(request), nullptr);
      seal.Close();
      if (!frame.ok()) {
        Fail(phase, "seal: " + frame.status().ToString());
        continue;
      }
      p.submitted_ns = NowNs();
      Status st = Status::OK();
      for (int attempt = 0; attempt < 8; ++attempt) {
        Scope submit(log, "server.QueryService::Submit", "server");
        Result<uint64_t> seq = service_->Submit(session.id, *frame);
        submit.Close();
        st = seq.status();
        if (!IsBackpressure(st)) break;
        Scope pump(log, "server.QueryService::RunUntilIdle", "server");
        service_->RunUntilIdle();
      }
      if (!st.ok()) {
        Fail(phase, "submit: " + st.ToString());
        continue;
      }
      p.submitted = true;
    }
    if (log != nullptr) log->set_op(-1);
    Scope idle(log, "server.QueryService::RunUntilIdle", "server");
    service_->RunUntilIdle();
    idle.Close();
    for (int s = 0; s < kSessions; ++s) {
      Session& session = sessions_[s];
      const Pending& p = pending[s];
      if (!p.submitted) continue;
      if (log != nullptr) log->set_op(p.op);
      Status st = Finish(session, p, log, phase);
      if (!st.ok()) Fail(phase, ClientKey(s) + ": " + st.ToString());
      if (++session.since_open == kChurnEvery) {
        Scope close(log, "server.QueryService::CloseSession", "server");
        Status closed = service_->CloseSession(session.id);
        session.channel->Close();
        close.Close();
        if (!closed.ok()) Fail(phase, "close: " + closed.ToString());
        Status opened = Open(&session, log);
        if (!opened.ok()) {
          // Without a session the loop cannot go on: stop with a failure.
          Fail(phase, "reopen: " + opened.ToString());
          std::fprintf(stderr, "wallbench: %s\n", opened.ToString().c_str());
          std::exit(1);
        }
      }
    }
  }

  /// Takes the statement's completion, opens and decodes it on the client
  /// side and checks it against the reference.
  Status Finish(Session& session, const Pending& p, SpanLog* log,
                Phase* phase) {
    Scope take(log, "server.QueryService::TakeCompletions", "server");
    std::vector<server::Completion> done =
        service_->TakeCompletions(session.id);
    take.Close();
    if (done.size() != 1) {
      return Status::Internal(std::to_string(done.size()) +
                              " completions for one statement");
    }
    if (!done[0].transport.ok()) return done[0].transport;
    Scope open(log, "net.SecureChannel::Receive", "net");
    ASSIGN_OR_RETURN(Bytes plain,
                     session.channel->Receive(done[0].response_frame, nullptr));
    open.Close();
    Scope decode(log, "server.DecodeStatementResponse", "server");
    ASSIGN_OR_RETURN(server::StatementResponse response,
                     server::DecodeStatementResponse(plain));
    decode.Close();
    phase->latency_ms.push_back(
        static_cast<double>(NowNs() - p.submitted_ns) / 1e6);
    char label[8];
    std::snprintf(label, sizeof(label), "t%02d", p.tmpl);
    phase->labels.push_back(p.tmpl < 0 ? "insert" : label);
    RETURN_IF_ERROR(response.status);
    if (p.tmpl < 0) {
      if (response.result.rows.size() != 1 ||
          response.result.rows[0][0].AsInt() != 1) {
        return Status::Internal("insert did not report one affected row");
      }
      ++inserts_;
    } else if (RowDigest(response.result) != reference_digest_[p.tmpl]) {
      return Status::Internal("template " + std::to_string(p.tmpl) +
                              " rows differ from the mirror");
    }
    AddSim(response.monitor_ns + response.execution_ns, kSimWindow);
    return Status::OK();
  }

  int64_t access_day_ = 0;
  std::vector<int64_t> batch_expiry_;
  std::vector<double> balances_;
  std::vector<std::string> templates_;
  std::vector<double> zipf_cdf_;
  std::vector<uint64_t> reference_digest_;

  // Declared before service_, which points into it.
  std::unique_ptr<engine::IronSafeSystem> system_;
  std::unique_ptr<server::QueryService> service_;
  std::vector<Session> sessions_;
  uint64_t next_event_id_ = 0;
  uint64_t inserts_ = 0;
  double cache_hit_ratio_ = 0;
  double reject_ratio_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "tpch-scs") return std::make_unique<ScsWorkload>(args);
  if (args.workload == "fleet-4shard") {
    return std::make_unique<FleetWorkload>(args);
  }
  if (args.workload == "serve-mixed") {
    return std::make_unique<ServeWorkload>(args);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Output

std::string JsonNumbers(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6f", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonPhase(const Phase& p) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"elapsed_s\": %.6f, \"latency_ms\": ",
                p.attempted, p.failed, p.elapsed_s);
  std::string labels = "[";
  for (size_t i = 0; i < p.labels.size(); ++i) {
    labels += (i ? ", " : "") + JsonString(p.labels[i]);
  }
  return buf + JsonNumbers(p.latency_ms) + ", \"labels\": " + labels +
         "], \"unit_s\": " + JsonNumbers(p.unit_s) +
         ", \"unit_ops\": " + JsonNumbers(p.unit_ops) + "}";
}

void PrintLatencyByLabel(const Phase& phase) {
  std::map<std::string, std::vector<double>> by_label;
  for (size_t i = 0; i < phase.labels.size(); ++i) {
    by_label[phase.labels[i]].push_back(phase.latency_ms[i]);
  }
  std::printf("\nper-op wall latency (untraced phase)\n");
  std::printf("  %-8s %6s %12s %12s\n", "op", "count", "median ms", "max ms");
  for (auto& [label, v] : by_label) {
    std::printf("  %-8s %6zu %12.3f %12.3f\n", label.c_str(), v.size(),
                Median(v), *std::max_element(v.begin(), v.end()));
  }
}

void PrintSelfTime(const SpanLog& log, const char* what, size_t first,
                   size_t last) {
  std::map<std::string, int64_t> self = log.SelfTimeByLayer(first, last);
  int64_t total = 0;
  for (auto& [layer, ns] : self) total += ns;
  std::printf("\nself time per layer, %s (%zu spans)\n", what, last - first);
  std::printf("  %-12s %12s %8s\n", "layer", "self ms", "share");
  for (auto& [layer, ns] : self) {
    std::printf("  %-12s %12.3f %7.1f%%\n", layer.c_str(),
                static_cast<double>(ns) / 1e6,
                total > 0 ? 100.0 * static_cast<double>(ns) /
                                static_cast<double>(total)
                          : 0.0);
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--workload") {
      args->workload = value();
    } else if (a == "--seed") {
      args->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      args->trace = value() == "1";
    } else if (a == "--smoke") {
      args->smoke = true;
    } else if (a == "--trace-json") {
      args->trace_json = value();
    } else {
      std::fprintf(stderr, "wallbench: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

/// One timed set-up repetition into a fresh `*out`.
bool TimedSetup(const Args& args, std::unique_ptr<Workload>* out,
                std::vector<double>* setup_s) {
  *out = MakeWorkload(args);
  int64_t t0 = NowNs();
  Status st = (*out)->Setup();
  setup_s->push_back(static_cast<double>(NowNs() - t0) / 1e9);
  if (!st.ok()) {
    std::fprintf(stderr, "wallbench: setup failed: %s\n",
                 st.ToString().c_str());
  }
  return st.ok();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    std::fprintf(stderr, "wallbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  int setups = args.smoke ? 1 : workload->default_setups();

  // Set-up runs several times, half before the ops and half after them,
  // so the median samples the host at both ends of the run. Each
  // repetition frees the previous system first; the last one before the
  // ops serves them.
  int setups_before = (setups + 1) / 2;
  std::vector<double> setup_s;
  for (int k = 0; k < setups_before; ++k) {
    workload.reset();
    if (!TimedSetup(args, &workload, &setup_s)) return 1;
  }
  if (Status st = workload->BuildReference(); !st.ok()) {
    std::fprintf(stderr, "wallbench: reference failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  std::printf("wallbench %s: seed %" PRIu64 ", %d closed-loop client(s), "
              "%d morsel worker(s), %d setup(s)\n",
              args.workload.c_str(), args.seed, workload->clients(),
              common::ThreadPool::EffectiveWorkers(
                  std::numeric_limits<int>::max()),
              setups);
  std::fflush(stdout);

  Phase timed;
  Phase traced;
  SpanLog log;
  LayerValues layers;
  uint64_t probe_failures = 0;
  if (!args.trace) {
    workload->Run(workload->UnitsFor(args.seconds), nullptr, &timed);
  } else {
    workload->Run(workload->UnitsFor(args.seconds / 2), nullptr, &timed);
    std::map<std::string, int64_t> before = CounterSnapshot();
    log.set_enabled(true);
    workload->Run(workload->UnitsFor(args.seconds / 2), &log, &traced);
    std::map<std::string, int64_t> after = CounterSnapshot();
    double ops = static_cast<double>(std::max<uint64_t>(traced.attempted, 1));
    auto per_op = [&](const char* name) {
      return static_cast<double>(CounterDelta(before, after, name)) / ops;
    };
    auto total = [&](const char* name) {
      return static_cast<double>(CounterDelta(before, after, name));
    };
    layers["securestore.reverifies"] = total("securestore.reverifies");
    layers["net.channel.send_bytes_per_op"] = per_op("net.channel.send_bytes");
    layers["net.channel.rejects"] = total("net.channel.rejects");
    layers["tee.sgx.transitions_per_op"] = per_op("tee.sgx.transitions");
    layers["tee.sgx.epc_faults_per_op"] = per_op("tee.sgx.epc_faults");
    layers["tee.rpmb.writes"] = total("tee.rpmb.writes");
    layers["dist.fragments_per_op"] = per_op("dist.fragments");
    layers["dist.failovers"] = total("dist.failovers");
    // Layers a workload never reaches report 0.
    for (const char* name :
         {"monitor.authorize_ms", "monitor.authorize_cached_ms",
          "engine.execute_authorized_ms", "server.open_session_ms",
          "server.submit_us", "server.run_until_idle_ms",
          "server.plan_cache_hit_ratio", "server.admission_reject_ratio",
          "dist.shard_fragment_ms_max", "dist.shard_fragment_ms_sum"}) {
      layers[name] = 0;
    }
    size_t probes_first = log.spans().size();
    if (Status st = workload->Probe(&log, &layers); !st.ok()) {
      ++probe_failures;
      std::fprintf(stderr, "wallbench: probe failed: %s\n",
                   st.ToString().c_str());
    }
    log.set_enabled(false);
    PrintSelfTime(log, "traced ops", 0, probes_first);
    PrintSelfTime(log, "probes", probes_first, log.spans().size());
    if (!args.trace_json.empty()) {
      if (log.WriteChromeTrace(args.trace_json)) {
        std::printf("trace written: %s\n", args.trace_json.c_str());
      } else {
        std::fprintf(stderr, "wallbench: cannot write %s\n",
                     args.trace_json.c_str());
      }
    }
  }
  PrintLatencyByLabel(timed);
  uint64_t end_check_failures = 0;
  if (auto* serve = dynamic_cast<ServeWorkload*>(workload.get())) {
    if (Status st = serve->CheckWrites(); !st.ok()) {
      ++end_check_failures;
      std::fprintf(stderr, "wallbench: %s\n", st.ToString().c_str());
    }
  }
  for (const std::string& e : workload->errors()) {
    std::fprintf(stderr, "wallbench: op failed: %s\n", e.c_str());
  }

  std::string json = "{\"workload\": " + JsonString(args.workload);
  json += ", \"seed\": " + std::to_string(args.seed);
  json += ", \"clients\": " + std::to_string(workload->clients());
  json += ", \"workers\": " +
          std::to_string(common::ThreadPool::EffectiveWorkers(
              std::numeric_limits<int>::max()));
  json += ", \"phase\": " + JsonPhase(timed);
  if (args.trace) json += ", \"traced_phase\": " + JsonPhase(traced);
  json += ", \"extra_failures\": " +
          std::to_string(probe_failures + end_check_failures);
  json += ", \"sim_cycles\": " + std::to_string(workload->sim_cycles());
  json += ", \"digests\": {";
  bool first = true;
  for (auto& [label, hex] : workload->digests()) {
    json += (first ? "" : ", ") + JsonString(label) + ": " + JsonString(hex);
    first = false;
  }
  json += "}, \"per_layer\": {";
  first = true;
  char buf[64];
  for (auto& [name, value] : layers) {
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    json += (first ? "" : ", ") + JsonString(name) + ": " + buf;
    first = false;
  }
  json += "}";

  workload.reset();
  for (int k = setups_before; k < setups; ++k) {
    std::unique_ptr<Workload> again;
    if (!TimedSetup(args, &again, &setup_s)) return 1;
  }
  json += ", \"setup_s\": " + JsonNumbers(setup_s) + "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace ironsafe::wallbench

int main(int argc, char** argv) {
  return ironsafe::wallbench::Main(argc, argv);
}
