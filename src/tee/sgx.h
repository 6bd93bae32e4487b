#ifndef IRONSAFE_TEE_SGX_H_
#define IRONSAFE_TEE_SGX_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/ed25519.h"
#include "sim/cost_model.h"

namespace ironsafe::tee {

/// A signed SGX attestation quote: binds enclave identity (measurement)
/// and caller-chosen report data to the platform's attestation key.
struct SgxQuote {
  Bytes measurement;   ///< MRENCLAVE: SHA-256 of the enclave image
  Bytes report_data;   ///< 64 bytes chosen by the enclave (e.g. a pubkey)
  Bytes platform_id;   ///< identifies the CPU/platform
  Bytes signature;     ///< Ed25519 over (measurement||report_data||platform_id)

  Bytes Serialize() const;
  static Result<SgxQuote> Deserialize(const Bytes& data);
};

class SgxMachine;

/// A simulated SGX enclave: a measured, isolated execution context with a
/// bounded Enclave Page Cache. Host code interacts with it only through
/// ecalls; the EPC model charges paging costs when the enclave's resident
/// set exceeds the hardware limit (96 MiB on the paper's testbed).
class SgxEnclave {
 public:
  const Bytes& measurement() const { return measurement_; }
  const std::string& image_name() const { return image_name_; }

  /// Marks an ecall/ocall round trip and charges its cost. Fails only
  /// under injected ecall aborts (AEX storm / EPC pressure) — the charge
  /// is still paid, since the CPU did enter and fall back out.
  Status EnterExit(sim::CostModel* cost);

  /// Simulates the enclave touching `bytes` of heap at logical offset
  /// `region_id` (a coarse page-group key). Pages beyond EPC capacity
  /// trigger fault charges (FIFO resident set, as the SGX driver's
  /// eviction is approximately scan-resistant-less). Returns the number
  /// of faults this touch caused so callers can couple faults to
  /// re-fetch work (e.g. Merkle metadata re-reads).
  uint64_t TouchMemory(uint64_t region_id, uint64_t bytes,
                       sim::CostModel* cost);

  /// Releases the enclave's tracked resident set (e.g. end of query).
  void ClearMemory();

  uint64_t resident_bytes() const { return resident_bytes_ * kPageSize; }

  /// Produces a quote with `report_data` bound to this enclave's identity.
  SgxQuote GetQuote(const Bytes& report_data) const;

  /// Data sealing: encrypts to a key derived from (platform seal secret,
  /// measurement) so only the same enclave on the same platform can unseal.
  Result<Bytes> Seal(const Bytes& plaintext) const;
  Result<Bytes> Unseal(const Bytes& sealed) const;

 private:
  friend class SgxMachine;
  static constexpr uint64_t kPageSize = 4096;

  SgxEnclave(SgxMachine* machine, std::string image_name, Bytes measurement)
      : machine_(machine),
        image_name_(std::move(image_name)),
        measurement_(std::move(measurement)) {}

  SgxMachine* machine_;
  std::string image_name_;
  Bytes measurement_;

  // Simple FIFO resident-set model keyed by (region_id, page index).
  std::set<std::pair<uint64_t, uint64_t>> resident_;
  std::deque<std::pair<uint64_t, uint64_t>> fifo_;
  uint64_t resident_bytes_ = 0;  // in pages
};

/// A simulated SGX-capable platform: owns the (Intel-certified) platform
/// attestation key and the seal secret, and loads measured enclaves.
class SgxMachine {
 public:
  /// `platform_seed` makes platform identity deterministic per test.
  explicit SgxMachine(const Bytes& platform_seed);

  /// Loads an enclave from an "image" (any byte string standing in for
  /// the code). The measurement is SHA-256 of the image, exactly like
  /// MRENCLAVE is a digest of the loaded pages.
  std::unique_ptr<SgxEnclave> LoadEnclave(const std::string& image_name,
                                          const Bytes& image);

  const Bytes& platform_id() const { return platform_id_; }
  const Bytes& attestation_public_key() const {
    return attestation_key_.public_key;
  }

 private:
  friend class SgxEnclave;

  Bytes platform_id_;
  crypto::Ed25519KeyPair attestation_key_;
  Bytes seal_secret_;
};

/// Simulated Intel Attestation Service: verifies quotes against a registry
/// of known platform attestation keys (stand-in for Intel's EPID/DCAP PKI).
class SgxAttestationService {
 public:
  void RegisterPlatform(const Bytes& platform_id, const Bytes& public_key);

  /// Checks the quote signature and platform registration.
  Status VerifyQuote(const SgxQuote& quote) const;

 private:
  std::vector<std::pair<Bytes, Bytes>> platforms_;
};

}  // namespace ironsafe::tee

#endif  // IRONSAFE_TEE_SGX_H_
