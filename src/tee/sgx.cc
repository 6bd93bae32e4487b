#include "tee/sgx.h"

#include "crypto/aead.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "sim/fault.h"

namespace ironsafe::tee {

Bytes SgxQuote::Serialize() const {
  Bytes out;
  PutLengthPrefixed(&out, measurement);
  PutLengthPrefixed(&out, report_data);
  PutLengthPrefixed(&out, platform_id);
  PutLengthPrefixed(&out, signature);
  return out;
}

Result<SgxQuote> SgxQuote::Deserialize(const Bytes& data) {
  ByteReader r(data);
  SgxQuote q;
  ASSIGN_OR_RETURN(q.measurement, r.ReadLengthPrefixed());
  ASSIGN_OR_RETURN(q.report_data, r.ReadLengthPrefixed());
  ASSIGN_OR_RETURN(q.platform_id, r.ReadLengthPrefixed());
  ASSIGN_OR_RETURN(q.signature, r.ReadLengthPrefixed());
  return q;
}

namespace {
Bytes QuoteSigningInput(const SgxQuote& q) {
  Bytes m;
  PutLengthPrefixed(&m, q.measurement);
  PutLengthPrefixed(&m, q.report_data);
  PutLengthPrefixed(&m, q.platform_id);
  return m;
}
}  // namespace

SgxMachine::SgxMachine(const Bytes& platform_seed) {
  platform_id_ = crypto::Sha256::Hash(platform_seed);
  platform_id_.resize(16);
  Bytes att_seed = crypto::HkdfSha256(
      /*salt=*/{}, platform_seed, ToBytes("sgx-attestation-key"), 32);
  attestation_key_ = *crypto::Ed25519KeyPairFromSeed(att_seed);
  seal_secret_ =
      crypto::HkdfSha256({}, platform_seed, ToBytes("sgx-seal-secret"), 32);
}

std::unique_ptr<SgxEnclave> SgxMachine::LoadEnclave(
    const std::string& image_name, const Bytes& image) {
  Bytes measurement = crypto::Sha256::Hash(image);
  return std::unique_ptr<SgxEnclave>(
      new SgxEnclave(this, image_name, std::move(measurement)));
}

Status SgxEnclave::EnterExit(sim::CostModel* cost) {
  IRONSAFE_COUNTER_ADD("tee.sgx.transitions", 1);
  if (cost != nullptr) cost->ChargeEnclaveTransition();
  // Injected asynchronous enclave exit: the transition cost is already
  // paid, but the ecall did not complete and the caller must re-enter.
  if (sim::FaultAt(sim::fault_site::kSgxEcallFail)) {
    IRONSAFE_COUNTER_ADD("tee.sgx.ecall_failures", 1);
    return Status::Unavailable("injected: ecall aborted (AEX)");
  }
  return Status::OK();
}

uint64_t SgxEnclave::TouchMemory(uint64_t region_id, uint64_t bytes,
                                 sim::CostModel* cost) {
  const uint64_t epc_pages = (cost != nullptr)
                                 ? cost->profile().sgx.epc_bytes / kPageSize
                                 : (96ull << 20) / kPageSize;
  uint64_t pages = (bytes + kPageSize - 1) / kPageSize;
  uint64_t faults = 0;
  // Injected EPC-pressure spike: other enclaves on the platform evicted
  // some of our pages, so this touch pays extra page-in faults.
  if (auto hit = sim::FaultAt(sim::fault_site::kSgxEpcSpike)) {
    uint64_t extra = 1 + hit->param % 64;
    for (uint64_t i = 0; i < extra; ++i) {
      if (cost != nullptr) cost->ChargeEpcFault();
    }
    faults += extra;
  }
  for (uint64_t p = 0; p < pages; ++p) {
    auto key = std::make_pair(region_id, p);
    if (resident_.count(key)) continue;
    if (resident_bytes_ >= epc_pages) {
      // Evict the oldest page; every eviction implies a later fault when
      // that page is touched again, so charging on page-in is equivalent.
      auto victim = fifo_.front();
      fifo_.pop_front();
      resident_.erase(victim);
      --resident_bytes_;
      if (cost != nullptr) cost->ChargeEpcFault();
      ++faults;
    }
    resident_.insert(key);
    fifo_.push_back(key);
    ++resident_bytes_;
  }
  if (faults > 0) IRONSAFE_COUNTER_ADD("tee.sgx.epc_faults", faults);
  return faults;
}

void SgxEnclave::ClearMemory() {
  resident_.clear();
  fifo_.clear();
  resident_bytes_ = 0;
}

SgxQuote SgxEnclave::GetQuote(const Bytes& report_data) const {
  SgxQuote q;
  q.measurement = measurement_;
  q.report_data = report_data;
  q.platform_id = machine_->platform_id_;
  q.signature = *crypto::Ed25519Sign(machine_->attestation_key_.private_key,
                                     QuoteSigningInput(q));
  return q;
}

Result<Bytes> SgxEnclave::Seal(const Bytes& plaintext) const {
  Bytes ikm = machine_->seal_secret_;
  Append(&ikm, measurement_);
  Bytes key = crypto::HkdfSha256({}, ikm, ToBytes("seal"), crypto::Aead::kKeySize);
  ASSIGN_OR_RETURN(crypto::Aead aead, crypto::Aead::Create(key));
  // Nonce derived from plaintext digest: sealing is deterministic in the
  // simulation; uniqueness per content is sufficient here.
  Bytes nonce = crypto::Sha256::Hash(plaintext);
  nonce.resize(crypto::Aead::kNonceSize);
  return aead.Seal(nonce, measurement_, plaintext);
}

Result<Bytes> SgxEnclave::Unseal(const Bytes& sealed) const {
  Bytes ikm = machine_->seal_secret_;
  Append(&ikm, measurement_);
  Bytes key = crypto::HkdfSha256({}, ikm, ToBytes("seal"), crypto::Aead::kKeySize);
  ASSIGN_OR_RETURN(crypto::Aead aead, crypto::Aead::Create(key));
  return aead.Open(measurement_, sealed);
}

void SgxAttestationService::RegisterPlatform(const Bytes& platform_id,
                                             const Bytes& public_key) {
  platforms_.emplace_back(platform_id, public_key);
}

Status SgxAttestationService::VerifyQuote(const SgxQuote& quote) const {
  for (const auto& [id, pk] : platforms_) {
    if (id == quote.platform_id) {
      if (crypto::Ed25519Verify(pk, QuoteSigningInput(quote),
                                quote.signature)) {
        return Status::OK();
      }
      return Status::Unauthenticated("SGX quote signature invalid");
    }
  }
  return Status::Unauthenticated("unknown SGX platform");
}

}  // namespace ironsafe::tee
