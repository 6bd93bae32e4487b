#ifndef IRONSAFE_STORAGE_BLOCK_DEVICE_H_
#define IRONSAFE_STORAGE_BLOCK_DEVICE_H_

#include <cstdint>
#include <map>

#include "common/bytes.h"
#include "common/result.h"
#include "sim/cost_model.h"

namespace ironsafe::storage {

/// The untrusted storage medium (the paper's NVMe SSD). Stores opaque
/// frames by slot index, with a separate metadata area for the Merkle
/// tree image. Completely untrusted: tests use the adversary interface to
/// flip bits, displace frames, and roll the image back to stale versions.
class BlockDevice {
 public:
  BlockDevice() = default;

  // Movable, not copyable (slots can be large).
  BlockDevice(BlockDevice&&) = default;
  BlockDevice& operator=(BlockDevice&&) = default;

  void WriteFrame(uint64_t slot, Bytes frame);

  /// Reads a frame, charging NVMe cost to `cost` if provided.
  Result<Bytes> ReadFrame(uint64_t slot, sim::CostModel* cost) const;

  void WriteMetadata(Bytes metadata) { metadata_ = std::move(metadata); }
  const Bytes& ReadMetadata() const { return metadata_; }

  // ---- Adversary interface (tests only) ----

  /// Direct mutable access, bypassing any protocol.
  Bytes* MutableFrame(uint64_t slot);
  Bytes* MutableMetadata() { return &metadata_; }

  /// Swaps two frames (displacement attack).
  void SwapFrames(uint64_t a, uint64_t b);

  /// Whole-image snapshot/restore (rollback & forking attacks).
  struct Image {
    std::map<uint64_t, Bytes> frames;
    Bytes metadata;
  };
  Image Snapshot() const { return Image{frames_, metadata_}; }
  void Restore(const Image& image) {
    frames_ = image.frames;
    metadata_ = image.metadata;
  }

 private:
  std::map<uint64_t, Bytes> frames_;
  Bytes metadata_;
};

}  // namespace ironsafe::storage

#endif  // IRONSAFE_STORAGE_BLOCK_DEVICE_H_
