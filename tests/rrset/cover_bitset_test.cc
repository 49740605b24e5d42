// CoverBitset semantics plus the counting kernel against a brute-force
// count on randomized postings.

#include "rrset/cover_bitset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/random.h"

namespace opim {
namespace {

TEST(CoverBitsetTest, ResetClearsAndSizes) {
  CoverBitset bits;
  bits.Reset(130);
  EXPECT_EQ(bits.num_bits(), 130u);
  EXPECT_EQ(bits.num_words(), 3u);
  for (uint64_t i = 0; i < 130; ++i) EXPECT_FALSE(bits.Test(i));
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  bits.Reset(130);
  for (uint64_t i = 0; i < 130; ++i) EXPECT_FALSE(bits.Test(i));
}

TEST(CoverBitsetTest, ForEachNewlyCoveredIdsReportsOnlyFreshBits) {
  CoverBitset bits;
  bits.Reset(200);
  bits.Set(5);
  bits.Set(70);
  const std::vector<RRId> ids = {3, 5, 70, 71, 199};
  std::vector<RRId> fresh;
  ForEachNewlyCoveredIds(ids, bits.words(),
                         [&](RRId id) { fresh.push_back(id); });
  EXPECT_EQ(fresh, (std::vector<RRId>{3, 71, 199}));
  for (RRId id : ids) EXPECT_TRUE(bits.Test(id));
  // Second pass: everything already covered.
  fresh.clear();
  ForEachNewlyCoveredIds(ids, bits.words(),
                         [&](RRId id) { fresh.push_back(id); });
  EXPECT_TRUE(fresh.empty());
}

/// Brute-force oracle for CountUncoveredIds.
uint64_t BruteCountIds(const std::vector<RRId>& ids, const CoverBitset& bits) {
  uint64_t c = 0;
  for (RRId id : ids) c += bits.Test(id) ? 0 : 1;
  return c;
}

struct RandomCase {
  CoverBitset bits;
  std::vector<RRId> ids;
};

RandomCase MakeRandomCase(Rng& rng, uint64_t num_bits) {
  RandomCase c;
  c.bits.Reset(num_bits);
  const uint64_t set_bits = rng.UniformBelow(num_bits);
  for (uint64_t i = 0; i < set_bits; ++i) {
    c.bits.Set(rng.UniformBelow(num_bits));
  }
  const uint32_t len = rng.UniformBelow(300);
  for (uint32_t i = 0; i < len; ++i) {
    c.ids.push_back(rng.UniformBelow(num_bits));
  }
  std::sort(c.ids.begin(), c.ids.end());
  c.ids.erase(std::unique(c.ids.begin(), c.ids.end()), c.ids.end());
  return c;
}

TEST(CoverKernelTest, ScalarMatchesBruteForce) {
  Rng rng(11, 0x5ca1a);
  for (int trial = 0; trial < 200; ++trial) {
    RandomCase c = MakeRandomCase(rng, 64 + rng.UniformBelow(2048));
    EXPECT_EQ(CountUncoveredIds(c.ids, c.bits.words()),
              BruteCountIds(c.ids, c.bits));
  }
}

TEST(CoverKernelTest, TailLengthsCovered) {
  // Short lists, including the empty one.
  CoverBitset bits;
  bits.Reset(256);
  for (uint64_t i = 0; i < 256; i += 3) bits.Set(i);
  std::vector<RRId> ids;
  for (uint32_t len = 0; len <= 12; ++len) {
    ids.clear();
    for (uint32_t i = 0; i < len; ++i) ids.push_back(i * 17 % 256);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    EXPECT_EQ(CountUncoveredIds(ids, bits.words()), BruteCountIds(ids, bits))
        << "len " << len;
  }
}

}  // namespace
}  // namespace opim
