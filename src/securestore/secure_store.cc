#include "securestore/secure_store.h"

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "obs/metrics.h"
#include "obs/retry.h"
#include "sim/fault.h"

namespace ironsafe::securestore {

// ---------------------------------------------------------------- TA ----

SecureStorageTa::SecureStorageTa(tee::TrustZoneDevice* device)
    : device_(device),
      task_key_(device->DeriveHardwareKey("ta-storage-key", 16)),
      rpmb_(device->rpmb(), device->DeriveHardwareKey("rpmb-auth-key", 32)),
      drbg_(device->DeriveHardwareKey("ta-drbg-seed", 32)) {}

Status SecureStorageTa::Initialize() {
  RETURN_IF_ERROR(rpmb_.Provision());
  Bytes nonce = drbg_.Generate(16);
  ASSIGN_OR_RETURN(Bytes existing, rpmb_.Read(kDataKeySlot, nonce));
  if (existing.empty()) {
    Bytes key = drbg_.RandomKey();
    RETURN_IF_ERROR(rpmb_.Write(kDataKeySlot, key));
  }
  initialized_ = true;
  return Status::OK();
}

Result<Bytes> SecureStorageTa::GetDataKey() {
  if (!initialized_) return Status::FailedPrecondition("TA not initialized");
  Bytes nonce = drbg_.Generate(16);
  ASSIGN_OR_RETURN(Bytes key, rpmb_.Read(kDataKeySlot, nonce));
  if (key.empty()) return Status::NotFound("data key not provisioned");
  return key;
}

Bytes SecureStorageTa::RootMac(const Bytes& root, uint64_t epoch) const {
  Bytes m;
  PutU64(&m, epoch);
  Append(&m, root);
  return crypto::HmacSha256(task_key_, m);
}

Status SecureStorageTa::CommitRoot(const Bytes& root, uint64_t epoch) {
  if (!initialized_) return Status::FailedPrecondition("TA not initialized");
  Bytes record;
  PutU64(&record, epoch);
  Append(&record, RootMac(root, epoch));
  return rpmb_.Write(kRootSlot, record);
}

Status SecureStorageTa::VerifyRoot(const Bytes& root, uint64_t epoch) {
  if (!initialized_) return Status::FailedPrecondition("TA not initialized");
  Bytes nonce = drbg_.Generate(16);
  ASSIGN_OR_RETURN(Bytes record, rpmb_.Read(kRootSlot, nonce));
  if (record.empty()) {
    return Status::StaleData("no committed root in RPMB");
  }
  ByteReader r(record);
  ASSIGN_OR_RETURN(uint64_t committed_epoch, r.ReadU64());
  ASSIGN_OR_RETURN(Bytes committed_mac, r.ReadBytes(32));
  if (committed_epoch != epoch) {
    return Status::StaleData("store epoch " + std::to_string(epoch) +
                             " != RPMB epoch " +
                             std::to_string(committed_epoch));
  }
  if (!ConstantTimeEqual(committed_mac, RootMac(root, epoch))) {
    return Status::StaleData("merkle root does not match RPMB anchor");
  }
  return Status::OK();
}

// ------------------------------------------------------------- Store ----

namespace {

constexpr std::string_view kEncLabel = "page-encryption";
constexpr std::string_view kMacLabel = "page-mac";
constexpr std::string_view kTreeLabel = "merkle-internal";

Bytes DeriveKey(const Bytes& master, std::string_view label) {
  return crypto::HkdfSha256({}, master, ToBytes(label), 32);
}

Bytes PageMacInput(uint64_t index, const Bytes& iv, const Bytes& ciphertext) {
  Bytes m;
  PutU64(&m, index);
  Append(&m, iv);
  Append(&m, ciphertext);
  return m;
}

}  // namespace

SecureStore::SecureStore(storage::BlockDevice* device, SecureStorageTa* ta,
                         Bytes master_key, MerkleTree tree, uint64_t epoch)
    : device_(device),
      ta_(ta),
      enc_key_(DeriveKey(master_key, kEncLabel)),
      mac_key_(DeriveKey(master_key, kMacLabel)),
      tree_(std::move(tree)),
      epoch_(epoch),
      iv_drbg_(crypto::HkdfSha256({}, master_key, ToBytes("iv-drbg"), 32)) {}

Result<std::unique_ptr<SecureStore>> SecureStore::Create(
    storage::BlockDevice* device, SecureStorageTa* ta) {
  RETURN_IF_ERROR(ta->Initialize());
  ASSIGN_OR_RETURN(Bytes master, ta->GetDataKey());
  MerkleTree tree(DeriveKey(master, kTreeLabel), 0);
  auto store = std::unique_ptr<SecureStore>(
      new SecureStore(device, ta, std::move(master), std::move(tree), 1));
  RETURN_IF_ERROR(store->Persist());
  return store;
}

Result<std::unique_ptr<SecureStore>> SecureStore::Open(
    storage::BlockDevice* device, SecureStorageTa* ta) {
  RETURN_IF_ERROR(ta->Initialize());
  ASSIGN_OR_RETURN(Bytes master, ta->GetDataKey());

  const Bytes& metadata = device->ReadMetadata();
  ByteReader r(metadata);
  ASSIGN_OR_RETURN(uint64_t epoch, r.ReadU64());
  ASSIGN_OR_RETURN(Bytes tree_image, r.ReadLengthPrefixed());
  ASSIGN_OR_RETURN(
      MerkleTree tree,
      MerkleTree::Deserialize(DeriveKey(master, kTreeLabel), tree_image));

  // Freshness gate: the untrusted metadata must match the RPMB anchor.
  RETURN_IF_ERROR(ta->VerifyRoot(tree.Root(), epoch));

  return std::unique_ptr<SecureStore>(
      new SecureStore(device, ta, std::move(master), std::move(tree), epoch));
}

Status SecureStore::Persist() {
  Bytes metadata;
  PutU64(&metadata, epoch_);
  PutLengthPrefixed(&metadata, tree_.SerializeLeaves());
  device_->WriteMetadata(std::move(metadata));
  return ta_->CommitRoot(tree_.Root(), epoch_);
}

Status SecureStore::EndBatch() {
  in_batch_ = false;
  ++epoch_;
  return Persist();
}

Status SecureStore::WritePage(uint64_t index, const Bytes& plaintext,
                              sim::CostModel* cost) {
  if (plaintext.size() != kPageSize) {
    return Status::InvalidArgument("page must be exactly 4096 bytes");
  }
  Bytes iv = iv_drbg_.RandomIv();
  ASSIGN_OR_RETURN(Bytes ciphertext,
                   crypto::AesCbcEncrypt(enc_key_, iv, plaintext));
  Bytes mac = crypto::HmacSha512(mac_key_, PageMacInput(index, iv, ciphertext));

  Bytes frame;
  Append(&frame, iv);
  PutLengthPrefixed(&frame, ciphertext);
  Append(&frame, mac);
  device_->WriteFrame(index, std::move(frame));

  uint64_t updated = tree_.UpdateLeaf(index, mac);
  if (cost != nullptr) {
    cost->ChargePageDecrypt(site_);  // symmetric cost for encrypt
    cost->ChargePageMacVerify(site_);
    cost->ChargeMerkleNodes(site_, updated);
  }

  if (!in_batch_) {
    ++epoch_;
    return Persist();
  }
  return Status::OK();
}

Result<Bytes> SecureStore::ReadPage(uint64_t index, sim::CostModel* cost) {
  auto page = ReadPageOnce(index, cost);
  if (page.ok() || !page.status().IsCorruption()) return page;
  // Re-fetch-and-reverify: re-read the frame from the device and run the
  // full MAC + Merkle + decrypt pipeline again. A transient flip between
  // the platters and the verifier heals; a persistently tampered frame
  // keeps failing verification and Corruption stands.
  IRONSAFE_COUNTER_ADD("securestore.reverifies", 1);
  RetryPolicy policy = obs::ObservedRetryPolicy("securestore.reverify", cost);
  policy.retryable = [](const Status& s) { return s.IsCorruption(); };
  Status recovered = ResumeRetryWithBackoff(
      policy, page.status(), [&]() -> Status {
        page = ReadPageOnce(index, cost);
        return page.status();
      });
  if (!recovered.ok()) return recovered;
  return page;
}

Result<Bytes> SecureStore::ReadPageOnce(uint64_t index, sim::CostModel* cost) {
  ASSIGN_OR_RETURN(Bytes frame, device_->ReadFrame(index, cost));
  // Injected transient media/DMA damage between the device and the
  // verifier: one byte in the frame's trailing MAC region flips (staying
  // clear of the length prefix keeps the failure a verification failure,
  // not a parse error), so the HMAC check below must reject the page.
  if (auto hit = sim::FaultAt(sim::fault_site::kStoreReadBitflip)) {
    if (frame.size() >= 64) frame[frame.size() - 1 - hit->param % 64] ^= 0x01;
  }

  ByteReader r(frame);
  ASSIGN_OR_RETURN(Bytes iv, r.ReadBytes(16));
  ASSIGN_OR_RETURN(Bytes ciphertext, r.ReadLengthPrefixed());
  ASSIGN_OR_RETURN(Bytes mac, r.ReadBytes(64));

  // 1. Authenticity of the frame itself.
  if (cost != nullptr) cost->ChargePageMacVerify(site_);
  if (!crypto::VerifyHmacSha512(mac_key_, PageMacInput(index, iv, ciphertext),
                                mac)) {
    return Status::Corruption("page " + std::to_string(index) +
                              " MAC verification failed");
  }
  // 2. Freshness/placement: the MAC must be the one in the trusted tree.
  uint64_t nodes = 0;
  Status tree_status = tree_.VerifyLeaf(index, mac, &nodes);
  if (cost != nullptr) cost->ChargeMerkleNodes(site_, nodes ? nodes : tree_.Depth());
  if (!tree_status.ok()) {
    return Status::Corruption("page " + std::to_string(index) +
                              " failed freshness check: " +
                              tree_status.message());
  }
  // 3. Confidentiality.
  if (cost != nullptr) cost->ChargePageDecrypt(site_);
  ASSIGN_OR_RETURN(Bytes plaintext,
                   crypto::AesCbcDecrypt(enc_key_, iv, ciphertext));
  if (plaintext.size() != kPageSize) {
    return Status::Corruption("page plaintext has wrong size");
  }
  return plaintext;
}

}  // namespace ironsafe::securestore
