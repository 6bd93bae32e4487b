#include "securestore/merkle_tree.h"

#include "crypto/hmac.h"

namespace ironsafe::securestore {

namespace {
uint64_t RoundUpPow2(uint64_t n) {
  uint64_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

MerkleTree::MerkleTree(Bytes hmac_key, uint64_t num_leaves)
    : key_(std::move(hmac_key)),
      num_leaves_(num_leaves),
      leaf_capacity_(RoundUpPow2(std::max<uint64_t>(1, num_leaves))) {
  depth_ = 0;
  for (uint64_t c = leaf_capacity_; c > 1; c >>= 1) ++depth_;
  nodes_.assign(2 * leaf_capacity_, Bytes{});
  RecomputeAll();
}

Bytes MerkleTree::HashChildren(const Bytes& left, const Bytes& right) const {
  Bytes input;
  PutLengthPrefixed(&input, left);
  PutLengthPrefixed(&input, right);
  return crypto::HmacSha256(key_, input);
}

void MerkleTree::RecomputeAll() {
  for (uint64_t i = leaf_capacity_ - 1; i >= 1; --i) {
    nodes_[i] = HashChildren(nodes_[2 * i], nodes_[2 * i + 1]);
  }
}

uint64_t MerkleTree::UpdateLeaf(uint64_t index, const Bytes& leaf_mac) {
  if (index >= leaf_capacity_) {
    // Grow: double capacity until it fits, then rebuild.
    while (leaf_capacity_ <= index) leaf_capacity_ <<= 1;
    std::vector<Bytes> old_leaves(nodes_.begin() + nodes_.size() / 2,
                                  nodes_.end());
    nodes_.assign(2 * leaf_capacity_, Bytes{});
    std::copy(old_leaves.begin(), old_leaves.end(),
              nodes_.begin() + leaf_capacity_);
    depth_ = 0;
    for (uint64_t c = leaf_capacity_; c > 1; c >>= 1) ++depth_;
    RecomputeAll();
  }
  if (index >= num_leaves_) num_leaves_ = index + 1;
  nodes_[leaf_capacity_ + index] = leaf_mac;
  uint64_t updated = 0;
  for (uint64_t i = (leaf_capacity_ + index) / 2; i >= 1; i /= 2) {
    nodes_[i] = HashChildren(nodes_[2 * i], nodes_[2 * i + 1]);
    ++updated;
  }
  return updated;
}

Status MerkleTree::VerifyLeaf(uint64_t index, const Bytes& leaf_mac,
                              uint64_t* nodes_checked) const {
  if (index >= leaf_capacity_) {
    return Status::InvalidArgument("merkle leaf index out of range");
  }
  if (nodes_[leaf_capacity_ + index] != leaf_mac) {
    return Status::Corruption("leaf MAC does not match tree");
  }
  // Recompute the path from the (claimed) leaf up and compare to the root.
  Bytes current = leaf_mac;
  uint64_t node = leaf_capacity_ + index;
  uint64_t checked = 0;
  while (node > 1) {
    uint64_t sibling = node ^ 1;
    const Bytes& sib = nodes_[sibling];
    current = (node % 2 == 0) ? HashChildren(current, sib)
                              : HashChildren(sib, current);
    node /= 2;
    ++checked;
  }
  if (nodes_checked != nullptr) *nodes_checked = checked;
  if (current != nodes_[1]) {
    return Status::Corruption("merkle path does not reach trusted root");
  }
  return Status::OK();
}

Bytes MerkleTree::SerializeLeaves() const {
  Bytes out;
  PutU64(&out, num_leaves_);
  for (uint64_t i = 0; i < num_leaves_; ++i) {
    PutLengthPrefixed(&out, nodes_[leaf_capacity_ + i]);
  }
  return out;
}

Result<MerkleTree> MerkleTree::Deserialize(Bytes hmac_key,
                                           const Bytes& image) {
  ByteReader r(image);
  ASSIGN_OR_RETURN(uint64_t n, r.ReadU64());
  // The count is untrusted: each leaf carries at least its 4-byte length
  // prefix, so a count the rest of the image cannot hold is rejected
  // before the tree is allocated.
  if (n > r.remaining() / 4) {
    return Status::Corruption("implausible leaf count");
  }
  MerkleTree tree(std::move(hmac_key), n);
  for (uint64_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(Bytes leaf, r.ReadLengthPrefixed());
    tree.nodes_[tree.leaf_capacity_ + i] = std::move(leaf);
  }
  tree.RecomputeAll();
  return tree;
}

}  // namespace ironsafe::securestore
