#include "core/opim_c.h"

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/mc_greedy.h"
#include "gen/generators.h"
#include "support/math_util.h"

namespace opim {
namespace {

TEST(OpimCFormulaTest, ThetaMaxPositiveAndScalesWithEps) {
  double loose = OpimCThetaMax(10000, 50, 0.5, 0.01, 10000, 50);
  double tight = OpimCThetaMax(10000, 50, 0.05, 0.01, 10000, 50);
  EXPECT_GT(loose, 0.0);
  // θ_max ~ ε^-2: a 10x smaller ε needs 100x more samples.
  EXPECT_NEAR(tight / loose, 100.0, 1.0);
}

TEST(OpimCFormulaTest, Theta0IsThetaMaxScaled) {
  // RunOpimC's first iteration holds θ0 = ⌈θ_max · ε²k/n⌉ sets in R1
  // (Eq. (17)).
  const Graph g = GenerateBarabasiAlbert(4096, 3);
  const uint32_t n = g.num_nodes(), k = 10;
  const double eps = 0.1, delta = 0.01;
  const OpimCResult r =
      RunOpimC(g, DiffusionModel::kIndependentCascade, k, eps, delta);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace[0].theta1,
            CeilToU64(OpimCThetaMax(n, k, eps, delta, n, k) * eps * eps * k /
                      n));
}

TEST(OpimCFormulaTest, ThetaMaxGrowsWithK) {
  // ln C(n,k) grows ~ k ln n while the denominator has k; net effect for
  // moderate k is roughly flat-to-growing numerator — just check finiteness
  // and positivity across k.
  for (uint32_t k : {1u, 10u, 100u, 1000u}) {
    double v = OpimCThetaMax(100000, k, 0.1, 0.001, 100000, k);
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 0.0);
  }
}

class OpimCModelTest : public ::testing::TestWithParam<DiffusionModel> {};

TEST_P(OpimCModelTest, ReturnsKSeedsAndMeetsTarget) {
  Graph g = GenerateBarabasiAlbert(500, 5);
  const double eps = 0.3, delta = 0.01;
  OpimCResult r = RunOpimC(g, GetParam(), 5, eps, delta);
  EXPECT_EQ(r.seeds.size(), 5u);
  EXPECT_GE(r.iterations, 1u);
  EXPECT_LE(r.iterations, r.i_max);
  if (r.iterations < r.i_max) {
    // Early stop requires the bound to have cleared the target.
    EXPECT_GE(r.alpha, kOneMinusInvE - eps);
  }
  EXPECT_EQ(r.trace.size(), r.iterations);
}

TEST_P(OpimCModelTest, DeterministicForSeed) {
  Graph g = GenerateBarabasiAlbert(300, 4);
  OpimCOptions o;
  o.seed = 42;
  OpimCResult a = RunOpimC(g, GetParam(), 4, 0.2, 0.05, o);
  OpimCResult b = RunOpimC(g, GetParam(), 4, 0.2, 0.05, o);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.num_rr_sets, b.num_rr_sets);
  EXPECT_EQ(a.alpha, b.alpha);
}

TEST_P(OpimCModelTest, ImprovedBoundNeedsNoMoreRRSetsThanBasic) {
  // σ̂_u <= σ_u pointwise, so with the same stream the improved stopping
  // rule can only fire earlier (same seed = same RR sets per iteration).
  Graph g = GenerateBarabasiAlbert(600, 6);
  OpimCOptions basic, improved;
  basic.bound = BoundKind::kBasic;
  improved.bound = BoundKind::kImproved;
  basic.seed = improved.seed = 9;
  OpimCResult rb = RunOpimC(g, GetParam(), 10, 0.15, 0.01, basic);
  OpimCResult ri = RunOpimC(g, GetParam(), 10, 0.15, 0.01, improved);
  EXPECT_LE(ri.iterations, rb.iterations);
  EXPECT_LE(ri.num_rr_sets, rb.num_rr_sets);
}

INSTANTIATE_TEST_SUITE_P(BothModels, OpimCModelTest,
                         ::testing::Values(
                             DiffusionModel::kIndependentCascade,
                             DiffusionModel::kLinearThreshold),
                         [](const auto& info) {
                           return DiffusionModelName(info.param);
                         });

TEST(OpimCTest, SpreadMatchesMcGreedyReference) {
  // The approximation contract in practice: OPIM-C's seeds should achieve
  // a spread close to the (near-optimal) MC-greedy reference.
  Graph g = GenerateBarabasiAlbert(200, 4);
  const DiffusionModel model = DiffusionModel::kIndependentCascade;
  const uint32_t k = 4;
  OpimCResult r = RunOpimC(g, model, k, 0.1, 0.05);
  std::vector<NodeId> reference = SelectMcGreedy(g, model, k, 2000, 3);

  SpreadEstimator est(g, model, 2);
  double ours = est.Estimate(r.seeds, 40000, 4);
  double ref = est.Estimate(reference, 40000, 4);
  EXPECT_GE(ours, 0.9 * ref) << "ours " << ours << " ref " << ref;
}

TEST(OpimCTest, TraceAlphasRecorded) {
  Graph g = GenerateBarabasiAlbert(400, 5);
  OpimCResult r =
      RunOpimC(g, DiffusionModel::kLinearThreshold, 5, 0.25, 0.05);
  ASSERT_FALSE(r.trace.empty());
  for (size_t i = 0; i < r.trace.size(); ++i) {
    EXPECT_GT(r.trace[i].theta1, 0u);
    EXPECT_GE(r.trace[i].alpha, 0.0);
    EXPECT_LE(r.trace[i].alpha, 1.0);
    if (i > 0) {
      EXPECT_EQ(r.trace[i].theta1, r.trace[i - 1].theta1 * 2)
          << "pool must double each iteration";
    }
  }
  EXPECT_EQ(r.trace.back().alpha, r.alpha);
}

TEST(OpimCTest, TinyEpsStillTerminates) {
  // Small graph + strict eps: must finish via early bound satisfaction,
  // not run to θ_max.
  Graph g = GenerateBarabasiAlbert(150, 4);
  OpimCResult r =
      RunOpimC(g, DiffusionModel::kIndependentCascade, 2, 0.05, 0.05);
  EXPECT_EQ(r.seeds.size(), 2u);
  EXPECT_GE(r.alpha, kOneMinusInvE - 0.05);
}

TEST(OpimCTest, KEqualsNDegenerate) {
  Graph g = GenerateBarabasiAlbert(20, 2);
  OpimCResult r =
      RunOpimC(g, DiffusionModel::kIndependentCascade, 20, 0.3, 0.1);
  EXPECT_EQ(r.seeds.size(), 20u);  // every node selected
}

}  // namespace
}  // namespace opim
