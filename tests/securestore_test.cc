#include <gtest/gtest.h>

#include "securestore/merkle_tree.h"
#include "securestore/secure_store.h"
#include "storage/block_device.h"
#include "tee/trustzone.h"

namespace ironsafe::securestore {
namespace {

using storage::BlockDevice;
using tee::DeviceManufacturer;
using tee::StorageNodeConfig;
using tee::TrustZoneDevice;

Bytes Page(uint8_t fill) { return Bytes(SecureStore::kPageSize, fill); }

// ---------------- Merkle tree ----------------

TEST(MerkleTreeTest, EmptyTreeHasStableRoot) {
  MerkleTree a(Bytes(32, 1), 0);
  MerkleTree b(Bytes(32, 1), 0);
  EXPECT_EQ(a.Root(), b.Root());
}

TEST(MerkleTreeTest, RootChangesWithLeaf) {
  MerkleTree t(Bytes(32, 1), 4);
  Bytes r0 = t.Root();
  t.UpdateLeaf(2, ToBytes("mac-a"));
  Bytes r1 = t.Root();
  EXPECT_NE(r0, r1);
  t.UpdateLeaf(2, ToBytes("mac-b"));
  EXPECT_NE(t.Root(), r1);
}

TEST(MerkleTreeTest, RootIsKeyDependent) {
  MerkleTree t1(Bytes(32, 1), 4);
  MerkleTree t2(Bytes(32, 2), 4);
  t1.UpdateLeaf(0, ToBytes("x"));
  t2.UpdateLeaf(0, ToBytes("x"));
  EXPECT_NE(t1.Root(), t2.Root());
}

TEST(MerkleTreeTest, VerifyLeafAcceptsCorrectMac) {
  MerkleTree t(Bytes(32, 7), 8);
  for (uint64_t i = 0; i < 8; ++i) {
    t.UpdateLeaf(i, ToBytes("leaf-" + std::to_string(i)));
  }
  for (uint64_t i = 0; i < 8; ++i) {
    uint64_t nodes = 0;
    EXPECT_TRUE(t.VerifyLeaf(i, ToBytes("leaf-" + std::to_string(i)), &nodes).ok());
    EXPECT_EQ(nodes, 3u);  // depth of an 8-leaf tree
  }
}

TEST(MerkleTreeTest, VerifyLeafRejectsWrongMac) {
  MerkleTree t(Bytes(32, 7), 4);
  t.UpdateLeaf(1, ToBytes("real"));
  EXPECT_TRUE(t.VerifyLeaf(1, ToBytes("fake")).IsCorruption());
}

TEST(MerkleTreeTest, GrowsBeyondInitialCapacity) {
  MerkleTree t(Bytes(32, 3), 2);
  t.UpdateLeaf(0, ToBytes("a"));
  t.UpdateLeaf(100, ToBytes("b"));  // forces growth
  EXPECT_GE(t.num_leaves(), 101u);
  EXPECT_TRUE(t.VerifyLeaf(0, ToBytes("a")).ok());
  EXPECT_TRUE(t.VerifyLeaf(100, ToBytes("b")).ok());
}

TEST(MerkleTreeTest, SerializeDeserializePreservesRoot) {
  MerkleTree t(Bytes(32, 9), 5);
  for (uint64_t i = 0; i < 5; ++i) t.UpdateLeaf(i, ToBytes(std::to_string(i)));
  auto back = MerkleTree::Deserialize(Bytes(32, 9), t.SerializeLeaves());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Root(), t.Root());
  EXPECT_EQ(back->num_leaves(), 5u);
}

TEST(MerkleTreeTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(MerkleTree::Deserialize(Bytes(32, 0), ToBytes("junk")).ok());
}

// The leaf count comes from untrusted device metadata: a count the image
// cannot hold (each leaf carries a 4-byte length prefix) is rejected
// before any tree is allocated.
TEST(MerkleTreeTest, DeserializeRejectsInflatedLeafCount) {
  Bytes image;
  PutU64(&image, uint64_t{1} << 32);
  auto back = MerkleTree::Deserialize(Bytes(32, 0), image);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption()) << back.status().ToString();
}

// ---------------- SecureStore fixture ----------------

class SecureStoreTest : public ::testing::Test {
 protected:
  SecureStoreTest()
      : manufacturer_(ToBytes("mfg")),
        device_(ToBytes("serial-1"), manufacturer_,
                StorageNodeConfig{"s1", "eu", 1}),
        ta_(&device_) {}

  DeviceManufacturer manufacturer_;
  TrustZoneDevice device_;
  SecureStorageTa ta_;
  BlockDevice disk_;
};

TEST_F(SecureStoreTest, WriteReadRoundTrip) {
  auto store = SecureStore::Create(&disk_, &ta_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->WritePage(0, Page(0xAB)).ok());
  ASSERT_TRUE((*store)->WritePage(1, Page(0xCD)).ok());
  auto p0 = (*store)->ReadPage(0);
  auto p1 = (*store)->ReadPage(1);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p0, Page(0xAB));
  EXPECT_EQ(*p1, Page(0xCD));
}

TEST_F(SecureStoreTest, RejectsWrongPageSize) {
  auto store = SecureStore::Create(&disk_, &ta_);
  EXPECT_TRUE((*store)->WritePage(0, Bytes(100, 0)).IsInvalidArgument());
}

TEST_F(SecureStoreTest, DataAtRestIsCiphertext) {
  auto store = SecureStore::Create(&disk_, &ta_);
  Bytes page = Page(0);
  std::string secret = "ssn=123-45-6789";
  std::copy(secret.begin(), secret.end(), page.begin());
  ASSERT_TRUE((*store)->WritePage(0, page).ok());

  const Bytes* frame = disk_.MutableFrame(0);
  ASSERT_NE(frame, nullptr);
  std::string raw(frame->begin(), frame->end());
  EXPECT_EQ(raw.find(secret), std::string::npos)
      << "plaintext leaked to the untrusted medium";
}

TEST_F(SecureStoreTest, BitFlipDetected) {
  auto store = SecureStore::Create(&disk_, &ta_);
  ASSERT_TRUE((*store)->WritePage(0, Page(0x11)).ok());
  // Adversary flips one ciphertext bit on the untrusted medium.
  (*disk_.MutableFrame(0))[40] ^= 0x01;
  EXPECT_TRUE((*store)->ReadPage(0).status().IsCorruption());
}

TEST_F(SecureStoreTest, MacTamperDetected) {
  auto store = SecureStore::Create(&disk_, &ta_);
  ASSERT_TRUE((*store)->WritePage(0, Page(0x11)).ok());
  Bytes* frame = disk_.MutableFrame(0);
  (*frame)[frame->size() - 1] ^= 0x80;  // flip a MAC bit
  EXPECT_TRUE((*store)->ReadPage(0).status().IsCorruption());
}

TEST_F(SecureStoreTest, PageDisplacementDetected) {
  auto store = SecureStore::Create(&disk_, &ta_);
  ASSERT_TRUE((*store)->WritePage(0, Page(0xAA)).ok());
  ASSERT_TRUE((*store)->WritePage(1, Page(0xBB)).ok());
  // Adversary swaps two validly-MACed frames; the per-page MAC binds the
  // index, so this must fail.
  disk_.SwapFrames(0, 1);
  EXPECT_TRUE((*store)->ReadPage(0).status().IsCorruption());
  EXPECT_TRUE((*store)->ReadPage(1).status().IsCorruption());
}

TEST_F(SecureStoreTest, RollbackOfWholeImageDetected) {
  auto store = SecureStore::Create(&disk_, &ta_);
  ASSERT_TRUE((*store)->WritePage(0, Page(0x01)).ok());
  auto stale = disk_.Snapshot();  // adversary snapshots v1
  ASSERT_TRUE((*store)->WritePage(0, Page(0x02)).ok());
  store->reset();  // "reboot"

  disk_.Restore(stale);  // adversary rolls the medium back to v1
  auto reopened = SecureStore::Open(&disk_, &ta_);
  EXPECT_TRUE(reopened.status().IsStaleData())
      << "rollback must be caught by the RPMB-anchored root";
}

TEST_F(SecureStoreTest, HonestRebootReopens) {
  {
    auto store = SecureStore::Create(&disk_, &ta_);
    ASSERT_TRUE((*store)->WritePage(0, Page(0x42)).ok());
    ASSERT_TRUE((*store)->WritePage(7, Page(0x43)).ok());
  }
  auto reopened = SecureStore::Open(&disk_, &ta_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto p = (*reopened)->ReadPage(7);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, Page(0x43));
}

TEST_F(SecureStoreTest, MetadataTamperDetectedAtOpen) {
  {
    auto store = SecureStore::Create(&disk_, &ta_);
    ASSERT_TRUE((*store)->WritePage(0, Page(0x01)).ok());
  }
  // Flip a byte inside the serialized Merkle image.
  Bytes* md = disk_.MutableMetadata();
  ASSERT_GT(md->size(), 20u);
  (*md)[md->size() - 1] ^= 0xFF;
  auto reopened = SecureStore::Open(&disk_, &ta_);
  EXPECT_FALSE(reopened.ok());
}

TEST_F(SecureStoreTest, BatchModeCommitsOnce) {
  auto store = SecureStore::Create(&disk_, &ta_);
  uint32_t counter_before = device_.rpmb()->write_counter();
  (*store)->BeginBatch();
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE((*store)->WritePage(i, Page(static_cast<uint8_t>(i))).ok());
  }
  ASSERT_TRUE((*store)->EndBatch().ok());
  // Exactly one RPMB commit for the whole batch.
  EXPECT_EQ(device_.rpmb()->write_counter(), counter_before + 1);
  for (uint64_t i = 0; i < 50; ++i) {
    auto p = (*store)->ReadPage(i);
    ASSERT_TRUE(p.ok()) << i;
    EXPECT_EQ(*p, Page(static_cast<uint8_t>(i)));
  }
}

TEST_F(SecureStoreTest, CostChargedPerRead) {
  auto store = SecureStore::Create(&disk_, &ta_);
  (*store)->BeginBatch();
  for (uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE((*store)->WritePage(i, Page(1)).ok());
  }
  ASSERT_TRUE((*store)->EndBatch().ok());

  sim::CostModel cm;
  ASSERT_TRUE((*store)->ReadPage(3, &cm).ok());
  EXPECT_EQ(cm.pages_decrypted(), 1u);
  EXPECT_GT(cm.decrypt_ns(), 0u);
  EXPECT_GT(cm.freshness_ns(), 0u);
  EXPECT_GT(cm.disk_bytes(), SecureStore::kPageSize);  // frame overhead
}

TEST_F(SecureStoreTest, FreshnessDominatesDecryptInBreakdown) {
  // Paper Figure 9c: freshness verification ~70-80%, decryption ~15% of
  // secure-storage overhead. Our model must preserve that ordering.
  auto store = SecureStore::Create(&disk_, &ta_);
  (*store)->BeginBatch();
  for (uint64_t i = 0; i < 1024; ++i) {
    ASSERT_TRUE((*store)->WritePage(i, Page(7)).ok());
  }
  ASSERT_TRUE((*store)->EndBatch().ok());

  sim::CostModel cm;
  for (uint64_t i = 0; i < 1024; ++i) {
    ASSERT_TRUE((*store)->ReadPage(i, &cm).ok());
  }
  EXPECT_GT(cm.freshness_ns(), cm.decrypt_ns());
}

TEST_F(SecureStoreTest, OpenWithoutDataFails) {
  BlockDevice empty;
  EXPECT_FALSE(SecureStore::Open(&empty, &ta_).ok());
}

TEST_F(SecureStoreTest, SequentialEpochsSurviveManyReopens) {
  {
    auto store = SecureStore::Create(&disk_, &ta_);
    ASSERT_TRUE((*store)->WritePage(0, Page(1)).ok());
  }
  for (int round = 2; round < 6; ++round) {
    auto store = SecureStore::Open(&disk_, &ta_);
    ASSERT_TRUE(store.ok()) << "round " << round;
    ASSERT_TRUE(
        (*store)->WritePage(0, Page(static_cast<uint8_t>(round))).ok());
  }
  auto store = SecureStore::Open(&disk_, &ta_);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->ReadPage(0), Page(5));
}

}  // namespace
}  // namespace ironsafe::securestore
