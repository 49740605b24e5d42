// Out-of-core spill tier of RRCollection: eviction, transparent decode
// fault-in, LRU residency under the sticky target, and the
// no-state-change failure contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rrset/rr_collection.h"
#include "support/random.h"

namespace opim {
namespace {

constexpr uint32_t kNodes = 50000;

/// Builds a collection whose pool spans several 4096-set chunks: every
/// set has >= 2 members, so nothing is inline-tagged and each chunk
/// carries real encoded bytes.
RRCollection MultiChunkCollection(uint32_t num_sets, uint64_t seed) {
  RRCollection rr(kNodes);
  Rng rng(seed);
  std::vector<NodeId> members;
  for (uint32_t i = 0; i < num_sets; ++i) {
    members.clear();
    const uint32_t size = 2 + rng.NextU32() % 12;
    for (uint32_t j = 0; j < size; ++j) {
      members.push_back(rng.NextU32() % kNodes);
    }
    rr.AddSet(members, members.size());
  }
  return rr;
}

std::vector<std::vector<NodeId>> DecodeAll(const RRCollection& rr) {
  std::vector<std::vector<NodeId>> out;
  out.reserve(rr.num_sets());
  for (RRId id = 0; id < rr.num_sets(); ++id) {
    out.push_back(rr.DecodeSet(id));
  }
  return out;
}

TEST(RRSpillTest, SpillWithoutEnableIsFailedPrecondition) {
  RRCollection rr(kNodes);
  auto r = rr.SpillColdChunks(0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RRSpillTest, EnableSpillIsIdempotentAndRejectsBadDir) {
  RRCollection rr(kNodes);
  ASSERT_TRUE(rr.EnableSpill({.dir = ::testing::TempDir()}).ok());
  EXPECT_TRUE(rr.spill_enabled());
  EXPECT_TRUE(rr.EnableSpill({.dir = ::testing::TempDir()}).ok());

  RRCollection other(kNodes);
  auto st = other.EnableSpill({.dir = "/nonexistent/opim_spill"});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_FALSE(other.spill_enabled());
}

TEST(RRSpillTest, SpillEvictsAndDecodesIdentically) {
  RRCollection rr = MultiChunkCollection(3 * 4096 + 700, /*seed=*/11);
  const std::vector<std::vector<NodeId>> before = DecodeAll(rr);
  const uint64_t resident_before = rr.MemoryUsage();
  const uint64_t pool_bytes = rr.CompressedMemberBytes();
  ASSERT_GT(pool_bytes, 0u);

  ASSERT_TRUE(rr.EnableSpill({.dir = ::testing::TempDir()}).ok());
  auto evicted = rr.SpillColdChunks(/*target_resident_bytes=*/0);
  ASSERT_TRUE(evicted.ok()) << evicted.status().ToString();
  // All three sealed chunks go; the open tail chunk stays resident.
  EXPECT_EQ(evicted.ValueOrDie(), 3u);
  EXPECT_EQ(rr.SpillStats().chunks_spilled, 3u);
  EXPECT_GT(rr.SpilledBytes(), 0u);
  EXPECT_LT(rr.SpilledBytes(), pool_bytes);  // tail chunk not spilled
  EXPECT_LT(rr.MemoryUsage(), resident_before);
  // The logical pool is unchanged — only residency moved.
  EXPECT_EQ(rr.CompressedMemberBytes(), pool_bytes);

  // Decoding faults spilled chunks back transparently, byte-identical.
  const std::vector<std::vector<NodeId>> after = DecodeAll(rr);
  EXPECT_EQ(before, after);
  EXPECT_GT(rr.SpillStats().chunks_faulted, 0u);
}

TEST(RRSpillTest, CoverageSurvivesASpillRoundTrip) {
  RRCollection rr = MultiChunkCollection(2 * 4096 + 100, /*seed=*/23);
  std::vector<NodeId> probes = {0, 17, 4242, kNodes - 1};
  std::vector<uint32_t> counts_before;
  for (NodeId v : probes) counts_before.push_back(rr.CoveringCount(v));

  ASSERT_TRUE(rr.EnableSpill({.dir = ::testing::TempDir()}).ok());
  ASSERT_TRUE(rr.SpillColdChunks(0).ok());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(rr.CoveringCount(probes[i]), counts_before[i]);
  }
}

TEST(RRSpillTest, StickyTargetKeepsResidencyBounded) {
  RRCollection rr = MultiChunkCollection(4 * 4096, /*seed=*/37);
  ASSERT_TRUE(rr.EnableSpill({.dir = ::testing::TempDir()}).ok());
  // Room for roughly one chunk: fault-ins must keep evicting colder
  // chunks instead of accumulating the whole pool back on the heap.
  const uint64_t target = rr.CompressedMemberBytes() / 4;
  ASSERT_TRUE(rr.SpillColdChunks(target).ok());
  const uint64_t spilled_floor = rr.SpilledBytes();
  ASSERT_GT(spilled_floor, 0u);

  // Sweep every set (touches every chunk, coldest-to-hottest churn).
  uint64_t checksum = 0;
  for (RRId id = 0; id < rr.num_sets(); ++id) {
    rr.ForEachMember(id, [&](NodeId v) { checksum += v; });
  }
  EXPECT_GT(checksum, 0u);
  // After the sweep, re-evictions must have kept cold bytes on disk:
  // the pool cannot be fully resident again.
  EXPECT_GT(rr.SpilledBytes(), 0u);
  EXPECT_GT(rr.SpillStats().chunks_faulted, 0u);
  EXPECT_GT(rr.SpillStats().chunks_spilled, 3u);  // re-evictions counted
}

TEST(RRSpillTest, InlineOnlyPoolHasNothingToSpill) {
  RRCollection rr(kNodes);
  for (uint32_t i = 0; i < 5000; ++i) {
    const NodeId v = i % kNodes;
    rr.AddSet(std::span<const NodeId>(&v, 1), 1);
  }
  ASSERT_TRUE(rr.EnableSpill({.dir = ::testing::TempDir()}).ok());
  auto evicted = rr.SpillColdChunks(0);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(evicted.ValueOrDie(), 0u);
  EXPECT_EQ(rr.SpilledBytes(), 0u);
}

TEST(RRSpillTest, MoveCarriesTheSpillState) {
  RRCollection rr = MultiChunkCollection(4096 + 50, /*seed=*/5);
  ASSERT_TRUE(rr.EnableSpill({.dir = ::testing::TempDir()}).ok());
  ASSERT_TRUE(rr.SpillColdChunks(0).ok());
  const std::vector<std::vector<NodeId>> before = DecodeAll(rr);

  RRCollection moved = std::move(rr);
  EXPECT_TRUE(moved.spill_enabled());
  EXPECT_EQ(DecodeAll(moved), before);
}

}  // namespace
}  // namespace opim
