// Wide parameterized sweep: the two greedy implementations must agree on
// every (collection shape, k) combination, and the greedy trace must
// satisfy its structural invariants everywhere — these are the
// foundations the §5 bound sits on.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "bounds/bounds.h"
#include "select/greedy.h"
#include "support/math_util.h"
#include "support/random.h"

namespace opim {
namespace {

RRCollection MakeRandom(uint32_t n, int num_sets, uint32_t max_len,
                        uint64_t seed) {
  Rng rng(seed);
  RRCollection rr(n);
  std::vector<NodeId> s;
  for (int i = 0; i < num_sets; ++i) {
    s.clear();
    uint32_t len = 1 + rng.UniformBelow(max_len);
    for (uint32_t j = 0; j < len; ++j) s.push_back(rng.UniformBelow(n));
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    rr.AddSet(s, 1);
  }
  return rr;
}

using SweepParam = std::tuple<uint32_t /*n*/, int /*sets*/, uint32_t /*k*/>;

class GreedySweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GreedySweepTest, CelfMatchesDestructive) {
  auto [n, sets, k] = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RRCollection rr = MakeRandom(n, sets, 5, seed * 1001);
    GreedyResult a = SelectGreedy(rr, k);
    GreedyResult b = SelectGreedyCelf(rr, k);
    ASSERT_EQ(a.coverage, b.coverage) << "n=" << n << " k=" << k;
    ASSERT_EQ(a.seeds, b.seeds) << "n=" << n << " k=" << k;
  }
}

TEST_P(GreedySweepTest, TraceInvariantsHold) {
  auto [n, sets, k] = GetParam();
  RRCollection rr = MakeRandom(n, sets, 5, 7);
  GreedyResult r = SelectGreedy(rr, k, {k});
  const uint32_t keff = std::min(k, n);
  ASSERT_EQ(r.coverage_at.size(), keff + 1);
  ASSERT_EQ(r.topk_marginal_at.size(), keff + 1);

  // Λ monotone; trace bound chain of Lemma 5.2 holds.
  for (size_t i = 1; i < r.coverage_at.size(); ++i) {
    EXPECT_GE(r.coverage_at[i], r.coverage_at[i - 1]);
  }
  uint64_t lu = LambdaUpperFromTrace(r);
  EXPECT_GE(lu, r.coverage);
  EXPECT_LE(static_cast<double>(lu),
            static_cast<double>(r.coverage) / kOneMinusInvE + 1e-9);
  // The final prefix evaluates to the Leskovec bound; the min dominates.
  EXPECT_LE(lu, LambdaUpperLeskovec(r));
  // Seeds are exactly min(k, n) distinct nodes.
  EXPECT_EQ(r.seeds.size(), keff);
  std::vector<NodeId> sorted = r.seeds;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GreedySweepTest,
    ::testing::Values(SweepParam{10, 30, 1}, SweepParam{10, 30, 3},
                      SweepParam{10, 30, 10},   // k == n
                      SweepParam{10, 30, 15},   // k > n clamps
                      SweepParam{50, 400, 5}, SweepParam{50, 400, 25},
                      SweepParam{200, 50, 8},   // sparse coverage
                      SweepParam{200, 2000, 8}, SweepParam{3, 100, 2}));

}  // namespace
}  // namespace opim
