#include "select/greedy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/random.h"

namespace opim {
namespace {

/// Builds a collection from explicit sets.
RRCollection MakeCollection(uint32_t n,
                            const std::vector<std::vector<NodeId>>& sets) {
  RRCollection rr(n);
  for (const auto& s : sets) rr.AddSet(s, 1);
  return rr;
}

/// Brute-force optimal coverage of any size-k subset (small inputs only).
uint64_t BruteForceOptimalCoverage(const RRCollection& rr, uint32_t k) {
  const uint32_t n = rr.num_nodes();
  uint64_t best = 0;
  std::vector<NodeId> subset;
  // Enumerate k-subsets via bitmask (n <= 20).
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (static_cast<uint32_t>(__builtin_popcount(mask)) != k) continue;
    subset.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (mask & (1u << v)) subset.push_back(v);
    }
    best = std::max(best, rr.CoverageOf(subset));
  }
  return best;
}

TEST(GreedyTest, SingleSetPicksItsMember) {
  RRCollection rr = MakeCollection(3, {{1}});
  GreedyResult r = SelectGreedy(rr, 1);
  ASSERT_EQ(r.seeds.size(), 1u);
  EXPECT_EQ(r.seeds[0], 1u);
  EXPECT_EQ(r.coverage, 1u);
}

TEST(GreedyTest, PicksHighestCoverageFirst) {
  // Node 2 covers three sets, others one each.
  RRCollection rr = MakeCollection(4, {{2}, {2, 0}, {2, 1}, {3}});
  GreedyResult r = SelectGreedy(rr, 2);
  EXPECT_EQ(r.seeds[0], 2u);
  EXPECT_EQ(r.seeds[1], 3u);
  EXPECT_EQ(r.coverage, 4u);
}

TEST(GreedyTest, TieBreaksTowardSmallestId) {
  RRCollection rr = MakeCollection(4, {{1}, {3}});
  GreedyResult r = SelectGreedy(rr, 1);
  EXPECT_EQ(r.seeds[0], 1u);
}

TEST(GreedyTest, MarginalNotRawCoverageDrivesLaterPicks) {
  // Node 0 covers sets {A,B}; node 1 covers {A,B,C}; node 2 covers {D}.
  // After picking 1, node 0's marginal is 0, so node 2 must be next.
  RRCollection rr = MakeCollection(3, {{0, 1}, {0, 1}, {1}, {2}});
  GreedyResult r = SelectGreedy(rr, 2);
  EXPECT_EQ(r.seeds[0], 1u);
  EXPECT_EQ(r.seeds[1], 2u);
  EXPECT_EQ(r.coverage, 4u);
}

TEST(GreedyTest, FillsToKWhenCoverageSaturates) {
  RRCollection rr = MakeCollection(5, {{4}});
  GreedyResult r = SelectGreedy(rr, 3);
  ASSERT_EQ(r.seeds.size(), 3u);
  EXPECT_EQ(r.seeds[0], 4u);
  // Filled deterministically with smallest unused ids.
  EXPECT_EQ(r.seeds[1], 0u);
  EXPECT_EQ(r.seeds[2], 1u);
}

TEST(GreedyTest, KLargerThanNClamps) {
  RRCollection rr = MakeCollection(3, {{0}, {1}});
  GreedyResult r = SelectGreedy(rr, 10);
  EXPECT_EQ(r.seeds.size(), 3u);
}

TEST(GreedyTest, EmptyCollection) {
  RRCollection rr(4);
  GreedyResult r = SelectGreedy(rr, 2);
  EXPECT_EQ(r.coverage, 0u);
  EXPECT_EQ(r.seeds.size(), 2u);  // filled deterministically
}

TEST(GreedyTest, TraceShapesAndBoundaries) {
  RRCollection rr = MakeCollection(4, {{0}, {0, 1}, {2}, {3}});
  const uint32_t k = 3;
  GreedyResult r = SelectGreedy(rr, k, {k});
  ASSERT_EQ(r.coverage_at.size(), k + 1);
  ASSERT_EQ(r.topk_marginal_at.size(), k + 1);
  EXPECT_EQ(r.coverage_at[0], 0u);
  EXPECT_EQ(r.coverage_at[k], r.coverage);
  // coverage_at[0] + topk at prefix 0 = sum of the k largest singleton
  // coverages = 2 (node 0) + 1 + 1 = 4.
  EXPECT_EQ(r.topk_marginal_at[0], 4u);
}

TEST(GreedyTest, TraceCoverageIsMonotoneAndConcave) {
  Rng rng(3);
  const uint32_t n = 30;
  std::vector<std::vector<NodeId>> sets;
  for (int i = 0; i < 200; ++i) {
    std::vector<NodeId> s;
    uint32_t len = 1 + rng.UniformBelow(4);
    for (uint32_t j = 0; j < len; ++j) s.push_back(rng.UniformBelow(n));
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    sets.push_back(std::move(s));
  }
  RRCollection rr = MakeCollection(n, sets);
  GreedyResult r = SelectGreedy(rr, 8, {8});
  for (size_t i = 1; i < r.coverage_at.size(); ++i) {
    EXPECT_GE(r.coverage_at[i], r.coverage_at[i - 1]) << "monotone";
  }
  // Submodularity: greedy gains are non-increasing.
  for (size_t i = 2; i < r.coverage_at.size(); ++i) {
    EXPECT_LE(r.coverage_at[i] - r.coverage_at[i - 1],
              r.coverage_at[i - 1] - r.coverage_at[i - 2])
        << "concavity at " << i;
  }
}

TEST(GreedyTest, AchievesOneMinusInvEOfOptimal) {
  // Property sweep vs brute force on random small instances.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const uint32_t n = 12;
    std::vector<std::vector<NodeId>> sets;
    for (int i = 0; i < 60; ++i) {
      std::vector<NodeId> s;
      uint32_t len = 1 + rng.UniformBelow(3);
      for (uint32_t j = 0; j < len; ++j) s.push_back(rng.UniformBelow(n));
      std::sort(s.begin(), s.end());
      s.erase(std::unique(s.begin(), s.end()), s.end());
      sets.push_back(std::move(s));
    }
    RRCollection rr = MakeCollection(n, sets);
    for (uint32_t k : {1u, 2u, 3u}) {
      GreedyResult r = SelectGreedy(rr, k);
      uint64_t opt = BruteForceOptimalCoverage(rr, k);
      EXPECT_GE(static_cast<double>(r.coverage),
                (1.0 - 1.0 / std::exp(1.0)) * static_cast<double>(opt))
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(GreedyCelfTest, MatchesDestructiveGreedyOnRandomInstances) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed * 17);
    const uint32_t n = 40;
    std::vector<std::vector<NodeId>> sets;
    for (int i = 0; i < 300; ++i) {
      std::vector<NodeId> s;
      uint32_t len = 1 + rng.UniformBelow(5);
      for (uint32_t j = 0; j < len; ++j) s.push_back(rng.UniformBelow(n));
      std::sort(s.begin(), s.end());
      s.erase(std::unique(s.begin(), s.end()), s.end());
      sets.push_back(std::move(s));
    }
    RRCollection rr = MakeCollection(n, sets);
    GreedyResult a = SelectGreedy(rr, 6);
    GreedyResult b = SelectGreedyCelf(rr, 6);
    EXPECT_EQ(a.coverage, b.coverage) << "seed " << seed;
    EXPECT_EQ(a.seeds, b.seeds) << "seed " << seed;
  }
}

TEST(GreedyCelfTest, SaturationFillsLikeDestructive) {
  RRCollection rr = MakeCollection(5, {{4}});
  GreedyResult a = SelectGreedy(rr, 3);
  GreedyResult b = SelectGreedyCelf(rr, 3);
  EXPECT_EQ(a.seeds, b.seeds);
}

}  // namespace
}  // namespace opim
