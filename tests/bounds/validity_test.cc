// Statistical validity of the paper's concentration machinery: the
// Lemma 4.2 / 4.3 bounds are probabilistic contracts ("holds w.p. >=
// 1 - δ"); these tests measure the empirical failure rate over repeated
// independent trials and check it stays within the promised budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bounds/bounds.h"
#include "diffusion/cascade.h"
#include "gen/generators.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "select/greedy.h"
#include "support/random.h"

namespace opim {
namespace {

class BoundsValidityTest : public ::testing::TestWithParam<DiffusionModel> {
};

TEST_P(BoundsValidityTest, SigmaLowerHoldsAtRateOneMinusDelta) {
  // Fixed seed set, ground truth from a large forward-MC run; 200
  // independent judge pools at δ2 = 0.1. Failures (σ_l > σ(S)) must stay
  // near or below δ2 — binomial slack: 3σ over 200 trials ≈ 0.064.
  Graph g = GenerateErdosRenyi(200, 1400);
  const DiffusionModel model = GetParam();
  const std::vector<NodeId> seeds = {3, 17, 42};

  SpreadEstimator est(g, model, 2);
  const double truth = est.Estimate(seeds, 400000, 123);

  const int trials = 200;
  const double delta2 = 0.1;
  const uint64_t theta2 = 300;
  int failures = 0;
  auto sampler = MakeRRSampler(g, model);
  Rng rng(99);
  for (int t = 0; t < trials; ++t) {
    RRCollection r2(g.num_nodes());
    sampler->Generate(&r2, theta2, rng);
    double lower =
        SigmaLower(r2.CoverageOf(seeds), theta2, g.num_nodes(), delta2);
    // Tolerate the MC truth's own error with a 2% cushion.
    if (lower > truth * 1.02) ++failures;
  }
  EXPECT_LE(failures, static_cast<int>(trials * (delta2 + 0.065)))
      << "failure rate " << static_cast<double>(failures) / trials;
}

TEST_P(BoundsValidityTest, SigmaLowerIsNotVacuous) {
  // Conservative is fine, useless is not: with a decent sample the lower
  // bound should recover a large fraction of the truth.
  Graph g = GenerateErdosRenyi(200, 1400);
  const DiffusionModel model = GetParam();
  const std::vector<NodeId> seeds = {3, 17, 42};
  SpreadEstimator est(g, model, 2);
  const double truth = est.Estimate(seeds, 200000, 123);

  auto sampler = MakeRRSampler(g, model);
  Rng rng(7);
  RRCollection r2(g.num_nodes());
  sampler->Generate(&r2, 20000, rng);
  double lower =
      SigmaLower(r2.CoverageOf(seeds), r2.num_sets(), g.num_nodes(), 0.01);
  EXPECT_GT(lower, 0.75 * truth);
  EXPECT_LT(lower, 1.05 * truth);
}

TEST_P(BoundsValidityTest, SigmaUpperCoversStrongReferenceSeedSet) {
  // σ_u(S°) must dominate the spread of ANY size-k set, in particular a
  // strong reference found by large-sample greedy. 100 trials at
  // δ1 = 0.1 with small pools.
  Graph g = GenerateBarabasiAlbert(200, 4);
  const DiffusionModel model = GetParam();
  const uint32_t k = 4;

  // Reference: greedy on a large pool — high-spread size-k set.
  auto sampler = MakeRRSampler(g, model);
  Rng rng(5);
  RRCollection big(g.num_nodes());
  sampler->Generate(&big, 50000, rng);
  GreedyResult reference = SelectGreedy(big, k);
  SpreadEstimator est(g, model, 2);
  const double ref_spread = est.Estimate(reference.seeds, 300000, 77);

  const int trials = 100;
  const double delta1 = 0.1;
  int failures = 0;
  for (int t = 0; t < trials; ++t) {
    RRCollection r1(g.num_nodes());
    sampler->Generate(&r1, 400, rng);
    GreedyResult greedy = SelectGreedy(r1, k, {k});
    double upper = SigmaUpper(BoundKind::kImproved, greedy, r1.num_sets(),
                              g.num_nodes(), delta1);
    if (upper < ref_spread * 0.98) ++failures;
  }
  EXPECT_LE(failures, static_cast<int>(trials * (delta1 + 0.09)))
      << "failure rate " << static_cast<double>(failures) / trials;
}

INSTANTIATE_TEST_SUITE_P(BothModels, BoundsValidityTest,
                         ::testing::Values(
                             DiffusionModel::kIndependentCascade,
                             DiffusionModel::kLinearThreshold),
                         [](const auto& info) {
                           return DiffusionModelName(info.param);
                         });

TEST(BoundsValidityTest2, EndToEndAlphaContractOnKnownOptimum) {
  // A graph whose optimum is known exactly: star with hub 0 and p = 1
  // edges. σ(S°) for k = 1 is n (seed the hub). Any reported α must
  // satisfy σ(seeds) >= α·n.
  const uint32_t n = 64;
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) b.AddEdge(0, v, 1.0);
  Graph g = b.Build();

  auto sampler = MakeRRSampler(g, DiffusionModel::kIndependentCascade);
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    RRCollection r1(n), r2(n);
    sampler->Generate(&r1, 200, rng);
    sampler->Generate(&r2, 200, rng);
    GreedyResult greedy = SelectGreedy(r1, 1, {1});
    double lower = SigmaLower(r2.CoverageOf(greedy.seeds), r2.num_sets(), n,
                              0.05);
    double upper =
        SigmaUpper(BoundKind::kImproved, greedy, r1.num_sets(), n, 0.05);
    double alpha = ApproxRatio(lower, upper);
    // Greedy always finds the hub here, so σ(S*) = n = σ(S°); α <= 1 must
    // certify no more than that.
    ASSERT_EQ(greedy.seeds[0], 0u);
    EXPECT_LE(alpha * n, n * 1.0 + 1e-9);
    EXPECT_GT(alpha, 0.3) << "bound uselessly loose on a trivial instance";
  }
}

}  // namespace
}  // namespace opim
