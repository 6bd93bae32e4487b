#ifndef IRONSAFE_SECURESTORE_SECURE_STORE_H_
#define IRONSAFE_SECURESTORE_SECURE_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/chacha20.h"
#include "securestore/merkle_tree.h"
#include "sim/cost_model.h"
#include "storage/block_device.h"
#include "tee/trustzone.h"

namespace ironsafe::securestore {

/// The secure storage trusted application (paper §4.1/§5): runs in the
/// TrustZone secure world, owns the RPMB and the keys derived from the
/// hardware unique key, and anchors the Merkle root for freshness.
class SecureStorageTa {
 public:
  static constexpr uint32_t kDataKeySlot = 0;
  static constexpr uint32_t kRootSlot = 1;

  explicit SecureStorageTa(tee::TrustZoneDevice* device);

  /// Provisions the RPMB key and, on first boot, generates and persists
  /// the database encryption key. Idempotent.
  Status Initialize();

  /// Returns the 32-byte data encryption master key (only a trusted
  /// normal-world storage engine ever receives this; the trusted monitor
  /// gates that via attestation).
  Result<Bytes> GetDataKey();

  /// Persists HMAC(task_key, root || epoch) and the epoch to RPMB.
  Status CommitRoot(const Bytes& root, uint64_t epoch);

  /// Verifies a (root, epoch) pair against RPMB; StaleData on mismatch —
  /// this is the rollback detector.
  Status VerifyRoot(const Bytes& root, uint64_t epoch);

 private:
  Bytes RootMac(const Bytes& root, uint64_t epoch) const;

  tee::TrustZoneDevice* device_;
  Bytes task_key_;  ///< TA storage key derived from the HUK (paper §5)
  tee::RpmbClient rpmb_;
  crypto::Drbg drbg_;
  bool initialized_ = false;
};

/// Encrypted, integrity- and freshness-protected page store over an
/// untrusted BlockDevice. Unit of protection is a 4 KiB page, encrypted
/// with AES-256-CBC under a random IV and authenticated with
/// HMAC-SHA-512, with a keyed Merkle tree over the page MACs whose root
/// is anchored in RPMB (paper §4.1, §5).
class SecureStore {
 public:
  static constexpr size_t kPageSize = 4096;

  /// Creates a fresh store (generates tree, commits the empty root).
  static Result<std::unique_ptr<SecureStore>> Create(
      storage::BlockDevice* device, SecureStorageTa* ta);

  /// Opens an existing store: reloads the Merkle image from untrusted
  /// metadata and verifies the root against RPMB. Detects rollback of the
  /// whole image (StaleData) and metadata corruption (Corruption).
  static Result<std::unique_ptr<SecureStore>> Open(
      storage::BlockDevice* device, SecureStorageTa* ta);

  /// Which CPU pays the crypto cost (storage engine vs host-only mode).
  void set_site(sim::Site site) { site_ = site; }

  /// Writes a page (plaintext must be exactly kPageSize bytes).
  Status WritePage(uint64_t index, const Bytes& plaintext,
                   sim::CostModel* cost = nullptr);

  /// Reads and verifies a page: HMAC check, Merkle path to the trusted
  /// root, then decrypt. Safe to call concurrently with other reads — the
  /// verify/decrypt path only reads store state, and each caller charges
  /// its own `cost` model (morsel workers pass private slices).
  /// Concurrent writes are not supported.
  ///
  /// Recovery: a Corruption verdict (MAC or Merkle mismatch) triggers a
  /// bounded re-fetch-and-reverify — a transient media/DMA flip heals on
  /// retry, while persistent tampering still surfaces as Corruption.
  Result<Bytes> ReadPage(uint64_t index, sim::CostModel* cost = nullptr);

  /// Batch mode defers metadata persistence and the RPMB root commit to
  /// EndBatch() — the unit of durability for bulk loads.
  void BeginBatch() { in_batch_ = true; }
  Status EndBatch();

  uint64_t num_pages() const { return tree_.num_leaves(); }
  const Bytes& root() const { return tree_.Root(); }
  uint64_t epoch() const { return epoch_; }

  /// Merkle geometry, used by the EPC model: verifying a page touches
  /// one tree node per level inside the verifier's address space.
  uint64_t merkle_depth() const { return tree_.Depth(); }

 private:
  SecureStore(storage::BlockDevice* device, SecureStorageTa* ta,
              Bytes master_key, MerkleTree tree, uint64_t epoch);

  /// One fetch + verify + decrypt pass (no recovery).
  Result<Bytes> ReadPageOnce(uint64_t index, sim::CostModel* cost);

  Status Persist();

  storage::BlockDevice* device_;
  SecureStorageTa* ta_;
  Bytes enc_key_;
  Bytes mac_key_;
  MerkleTree tree_;
  uint64_t epoch_;
  crypto::Drbg iv_drbg_;
  sim::Site site_ = sim::Site::kStorage;
  bool in_batch_ = false;
};

}  // namespace ironsafe::securestore

#endif  // IRONSAFE_SECURESTORE_SECURE_STORE_H_
