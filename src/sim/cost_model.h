#ifndef IRONSAFE_SIM_COST_MODEL_H_
#define IRONSAFE_SIM_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ironsafe::sim {

/// Simulated time in nanoseconds.
using SimNanos = uint64_t;

/// CPU description for one side of the CSA.
///
/// `ipc_factor` captures per-clock throughput relative to the paper's host
/// CPU (i9-10900K = 1.0; Cortex-A72 ≈ 0.45): effective ops/second =
/// ghz * 1e9 * ipc_factor per core.
struct CpuProfile {
  double ghz = 3.7;
  int cores = 10;
  double ipc_factor = 1.0;

  bool operator==(const CpuProfile&) const = default;
};

/// I/O device / link description.
struct LinkProfile {
  double bytes_per_second = 0;
  SimNanos latency_ns = 0;  ///< per message / per IO-batch setup cost

  bool operator==(const LinkProfile&) const = default;
};

/// SGX-specific constants (paper §6.3 and published SGX measurements).
struct SgxProfile {
  uint64_t epc_bytes = 96ull * 1024 * 1024;  ///< usable EPC (paper: 96 MiB)
  uint64_t transition_cycles = 10500;        ///< ecall/ocall round trip
  /// One EPC page fault end-to-end: EWB eviction + ELDU page-in with
  /// re-encryption/integrity plus driver overhead — published SGX paging
  /// measurements put this at ~25-40 µs (≈100k cycles at 3.7 GHz).
  uint64_t epc_fault_cycles = 100000;
  double mee_slowdown = 1.2;                 ///< memory-encryption factor

  bool operator==(const SgxProfile&) const = default;
};

/// The full simulated testbed, mirroring the paper's §6.1 hardware.
struct HardwareProfile {
  CpuProfile host_cpu{3.7, 10, 1.0};
  CpuProfile storage_cpu{2.2, 16, 0.45};
  LinkProfile nvme{3329.0 * 1024 * 1024, 80'000};      ///< 3329 MB/s, 80 µs
  LinkProfile network{850.0 * 1024 * 1024, 50'000};    ///< 850 MB/s, 50 µs
  SgxProfile sgx;
  /// Per-4KiB-page secure-storage costs, charged by the reading CPU.
  uint64_t page_decrypt_cycles = 52000;   ///< AES-256-CBC of 4 KiB
  uint64_t page_hmac_cycles = 22000;      ///< HMAC-SHA-512 of 4 KiB
  /// One Merkle level during verification: metadata access + node HMAC.
  /// Calibrated so freshness ≈ 70-80% and decryption ≈ 15% of the secure
  /// storage read path, the breakdown the paper reports in Figure 9c.
  uint64_t merkle_node_cycles = 25000;

  static HardwareProfile Paper() { return HardwareProfile{}; }

  bool operator==(const HardwareProfile&) const = default;
};

/// Where work executes; selects the CPU profile used for cycle costs.
enum class Site { kHost, kStorage };

/// Accumulates simulated elapsed time and event counters for one query
/// (or one protocol run). Real computation runs natively; callers charge
/// this model per event so runs on any machine report the same simulated
/// timings. Components are tagged so benches can reproduce the paper's
/// cost breakdowns (Figure 8 / 9c).
class CostModel {
 public:
  explicit CostModel(HardwareProfile profile = HardwareProfile::Paper())
      : profile_(profile) {}

  const HardwareProfile& profile() const { return profile_; }

  /// Override used by the constrained-resource experiment (Figure 10).
  void set_storage_cores(int cores) { profile_.storage_cpu.cores = cores; }

  // ---- Charging interface ----

  /// Charges `cycles` of single-threaded CPU work at `site`.
  void ChargeCycles(Site site, uint64_t cycles);

  /// Charges CPU work that parallelizes across up to `ways` threads
  /// (capped by the site's core count).
  void ChargeParallelCycles(Site site, uint64_t cycles, int ways);

  /// Charges a disk read of `bytes`. Page-stream reads benefit from
  /// readahead, so the device latency is amortized over kReadaheadPages.
  void ChargeDiskRead(uint64_t bytes);

  /// Charges a disk write of `bytes` (spill-out, page flushes). Writes
  /// stream through the device write buffer, so the setup latency is
  /// amortized exactly like readahead on the read side.
  void ChargeDiskWrite(uint64_t bytes);

  /// Charges a network transfer of `bytes` (one message latency + bandwidth).
  void ChargeNetwork(uint64_t bytes);

  /// Charges a page-stream network transfer (NFS-style readahead): the
  /// round-trip latency is amortized over kReadaheadPages.
  void ChargeNetworkBytes(uint64_t bytes);

  static constexpr uint64_t kReadaheadPages = 32;

  /// Charges one enclave transition round trip (ecall+ocall).
  void ChargeEnclaveTransition();

  /// Charges one EPC page fault (eviction + re-encryption + page-in).
  void ChargeEpcFault();

  /// Charges a fixed simulated latency (e.g. attestation protocol stages
  /// whose end-to-end times the paper reports in Table 4).
  void ChargeFixed(SimNanos ns);

  /// Secure-storage charges, tagged for breakdown reporting. Crypto work
  /// uses hardware engines on both CPUs (AES-NI / ARMv8-CE), so it is
  /// charged at raw clock speed without the general IPC penalty; on the
  /// host it additionally pays the SGX memory-encryption slowdown.
  void ChargePageDecrypt(Site site);
  void ChargePageMacVerify(Site site);
  void ChargeMerkleNodes(Site site, uint64_t nodes);

  /// Folds a worker's privately accumulated slice into this model by
  /// summing every bucket and counter. Each charge converts cycles/bytes
  /// to integer nanoseconds independently, so merging N slices — in any
  /// grouping and any order — yields bit-identical totals to charging
  /// the same events on one model. This is the determinism anchor for
  /// morsel-parallel execution: real thread count never changes the
  /// simulated account. `child` must share this model's profile.
  void MergeChild(const CostModel& child);

  /// Folds N independently timed timelines that ran *concurrently on
  /// disjoint hardware* (one per storage shard) into this model: every
  /// component bucket and counter sums exactly like MergeChild, but the
  /// elapsed clock advances by the MAXIMUM child elapsed time — the
  /// makespan of the parallel phase. Each child must share this model's
  /// profile and have been charged independently from zero, so the merge
  /// is grouping- and order-independent like MergeChild; the elapsed
  /// total is what sharding improves while the bucket sums still account
  /// for all work done fleet-wide (docs/SHARDING.md).
  void MergeParallelTimelines(const std::vector<const CostModel*>& children);

  // ---- Readout ----

  SimNanos elapsed_ns() const { return total_ns_; }
  double elapsed_ms() const { return static_cast<double>(total_ns_) / 1e6; }

  /// Component buckets (ns) for Figure 8 / Figure 9c style breakdowns.
  SimNanos compute_ns() const { return compute_ns_; }
  SimNanos disk_ns() const { return disk_ns_; }
  SimNanos network_ns() const { return network_ns_; }
  SimNanos enclave_transition_ns() const { return transition_ns_; }
  SimNanos epc_fault_ns() const { return epc_fault_ns_; }
  SimNanos decrypt_ns() const { return decrypt_ns_; }
  SimNanos freshness_ns() const { return freshness_ns_; }
  SimNanos fixed_ns() const { return fixed_ns_; }

  uint64_t enclave_transitions() const { return transitions_; }
  uint64_t epc_faults() const { return epc_faults_; }
  uint64_t disk_bytes() const { return disk_bytes_; }
  uint64_t disk_write_bytes() const { return disk_write_bytes_; }
  uint64_t network_bytes() const { return network_bytes_; }
  uint64_t pages_decrypted() const { return pages_decrypted_; }

  void Reset();

  bool operator==(const CostModel&) const = default;

  /// Human-readable one-line summary for logs.
  std::string Summary() const;

 private:
  SimNanos CyclesToNs(Site site, uint64_t cycles, int ways) const;
  SimNanos CryptoCyclesToNs(Site site, uint64_t cycles) const;

  HardwareProfile profile_;

  SimNanos total_ns_ = 0;
  SimNanos compute_ns_ = 0;
  SimNanos disk_ns_ = 0;
  SimNanos network_ns_ = 0;
  SimNanos transition_ns_ = 0;
  SimNanos epc_fault_ns_ = 0;
  SimNanos decrypt_ns_ = 0;
  SimNanos freshness_ns_ = 0;
  SimNanos fixed_ns_ = 0;

  uint64_t transitions_ = 0;
  uint64_t epc_faults_ = 0;
  uint64_t disk_bytes_ = 0;       // all disk traffic (reads + writes)
  uint64_t disk_write_bytes_ = 0;
  uint64_t network_bytes_ = 0;
  uint64_t pages_decrypted_ = 0;
};

}  // namespace ironsafe::sim

#endif  // IRONSAFE_SIM_COST_MODEL_H_
