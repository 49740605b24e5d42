#include "bounds/bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/math_util.h"
#include "support/random.h"

namespace opim {
namespace {

RRCollection MakeRandomCollection(uint32_t n, int num_sets, uint64_t seed) {
  Rng rng(seed);
  RRCollection rr(n);
  std::vector<NodeId> s;
  for (int i = 0; i < num_sets; ++i) {
    s.clear();
    uint32_t len = 1 + rng.UniformBelow(4);
    for (uint32_t j = 0; j < len; ++j) s.push_back(rng.UniformBelow(n));
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    rr.AddSet(s, 1);
  }
  return rr;
}

TEST(SigmaLowerTest, ZeroCoverageGivesZero) {
  EXPECT_EQ(SigmaLower(0, 1000, 100, 0.01), 0.0);
}

TEST(SigmaLowerTest, NeverExceedsEmpiricalEstimate) {
  // σ_l must undercut the unbiased estimate Λ2·n/θ2.
  const uint32_t n = 1000;
  const uint64_t theta = 5000;
  for (uint64_t lambda : {1ULL, 10ULL, 100ULL, 1000ULL, 5000ULL}) {
    double empirical = static_cast<double>(lambda) * n / theta;
    EXPECT_LE(SigmaLower(lambda, theta, n, 0.05), empirical + 1e-9)
        << "lambda " << lambda;
  }
}

TEST(SigmaLowerTest, IncreasingInCoverage) {
  double prev = -1.0;
  for (uint64_t lambda = 0; lambda <= 2000; lambda += 100) {
    double v = SigmaLower(lambda, 4000, 500, 0.01);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(SigmaLowerTest, TightensAsDeltaGrows) {
  // Larger allowed failure probability -> less slack -> larger bound.
  double strict = SigmaLower(500, 4000, 500, 1e-9);
  double loose = SigmaLower(500, 4000, 500, 0.2);
  EXPECT_LT(strict, loose);
}

TEST(SigmaLowerTest, ConvergesToEmpiricalAtLargeTheta) {
  // Λ/θ fixed at 0.5, θ -> ∞: the bound approaches 0.5·n.
  const uint32_t n = 100;
  double v_small = SigmaLower(50, 100, n, 0.01);
  double v_large = SigmaLower(500000, 1000000, n, 0.01);
  EXPECT_LT(v_small, v_large);
  EXPECT_NEAR(v_large, 50.0, 0.5);
}

TEST(SigmaUpperTest, AtLeastScaledGreedyCoverage) {
  // σ_u >= Λ1(S*)/(1-1/e)·n/θ1 always (the concentration slack only adds).
  const uint32_t n = 1000;
  const uint64_t theta = 2000;
  for (uint64_t lambda : {0ULL, 5ULL, 50ULL, 500ULL}) {
    double base = static_cast<double>(lambda) / kOneMinusInvE * n / theta;
    EXPECT_GE(SigmaUpperBasic(lambda, theta, n, 0.01), base - 1e-9);
  }
}

TEST(SigmaUpperTest, LoosensAsDeltaShrinks) {
  double strict = SigmaUpperBasic(500, 4000, 500, 1e-9);
  double loose = SigmaUpperBasic(500, 4000, 500, 0.2);
  EXPECT_GT(strict, loose);
}

TEST(SigmaUpperTest, PositiveEvenAtZeroCoverage) {
  // The additive ln(1/δ) slack keeps the bound meaningful.
  EXPECT_GT(SigmaUpperBasic(0, 1000, 100, 0.01), 0.0);
}

TEST(LambdaUpperTest, TraceBoundNeverWorseThanBasic) {
  // Lemma 5.2: Λ1ᵘ(S°) <= Λ1(S*)/(1 - 1/e), on many random instances.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RRCollection rr = MakeRandomCollection(25, 150, seed);
    GreedyResult g = SelectGreedy(rr, 5, {5});
    uint64_t lu = LambdaUpperFromTrace(g);
    EXPECT_LE(static_cast<double>(lu),
              static_cast<double>(g.coverage) / kOneMinusInvE + 1e-9)
        << "seed " << seed;
    // And it is an upper bound on the achieved coverage itself.
    EXPECT_GE(lu, g.coverage);
  }
}

TEST(LambdaUpperTest, TraceBoundDominatesBruteForceOptimum) {
  // Lemma 5.1 holds for ANY size-k set, so Λ1ᵘ must dominate the true
  // optimal coverage. Brute-force check on small instances.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RRCollection rr = MakeRandomCollection(12, 80, seed * 3);
    const uint32_t k = 3;
    GreedyResult g = SelectGreedy(rr, k, {k});
    uint64_t lu = LambdaUpperFromTrace(g);

    uint64_t opt = 0;
    std::vector<NodeId> subset;
    for (uint32_t mask = 0; mask < (1u << 12); ++mask) {
      if (static_cast<uint32_t>(__builtin_popcount(mask)) != k) continue;
      subset.clear();
      for (NodeId v = 0; v < 12; ++v) {
        if (mask & (1u << v)) subset.push_back(v);
      }
      opt = std::max(opt, rr.CoverageOf(subset));
    }
    EXPECT_GE(lu, opt) << "seed " << seed;
  }
}

TEST(LambdaUpperTest, LeskovecBoundDominatesOptimumToo) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RRCollection rr = MakeRandomCollection(12, 80, seed * 7);
    const uint32_t k = 3;
    GreedyResult g = SelectGreedy(rr, k, {k});
    uint64_t lv = LambdaUpperLeskovec(g);
    uint64_t lu = LambdaUpperFromTrace(g);
    // Λ1⋄ evaluates Eq. (10)'s summand at one prefix; the min over all
    // prefixes can only be tighter.
    EXPECT_LE(lu, lv);
  }
}

TEST(SigmaUpperTest, ImprovedNeverWorseThanBasic) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RRCollection rr = MakeRandomCollection(30, 200, seed);
    GreedyResult g = SelectGreedy(rr, 6, {6});
    double basic = SigmaUpper(BoundKind::kBasic, g, rr.num_sets(), 30, 0.01);
    double improved =
        SigmaUpper(BoundKind::kImproved, g, rr.num_sets(), 30, 0.01);
    EXPECT_LE(improved, basic + 1e-9) << "seed " << seed;
  }
}

TEST(LambdaUpperTest, TwinHubsReproduceTheKEqualsOneAnomaly) {
  // The paper's Figures 3/5 observation: OPIM' can be *worse* than OPIM0
  // at k = 1. Mechanism: with two near-equal top singletons, the final-
  // prefix Leskovec bound is Λ1(S*) + (second-best marginal) ≈ 2·Λ1(S*),
  // exceeding the worst-case Λ1(S*)/(1-1/e) ≈ 1.58·Λ1(S*). Build two
  // disjoint equal "hubs" by hand: nodes 0 and 1 each cover 40 disjoint
  // RR sets.
  RRCollection rr(10);
  for (int i = 0; i < 40; ++i) rr.AddSet(std::vector<NodeId>{0}, 1);
  for (int i = 0; i < 40; ++i) rr.AddSet(std::vector<NodeId>{1}, 1);
  GreedyResult g = SelectGreedy(rr, /*k=*/1, {1});
  ASSERT_EQ(g.coverage, 40u);

  const uint64_t leskovec = LambdaUpperLeskovec(g);   // 40 + 40 = 80
  EXPECT_EQ(leskovec, 80u);
  EXPECT_GT(static_cast<double>(leskovec),
            static_cast<double>(g.coverage) / kOneMinusInvE);  // > 63.3
  // So σ⋄ > σ_u and α_leskovec < α_basic — OPIM' loses to OPIM0 here —
  // while the Eq. (10) trace bound still dominates everything.
  double basic = SigmaUpper(BoundKind::kBasic, g, rr.num_sets(), 10.0, 0.05);
  double lesk =
      SigmaUpper(BoundKind::kLeskovec, g, rr.num_sets(), 10.0, 0.05);
  double improved =
      SigmaUpper(BoundKind::kImproved, g, rr.num_sets(), 10.0, 0.05);
  EXPECT_GT(lesk, basic);
  EXPECT_LE(improved, basic);
}

TEST(ApproxRatioTest, ClampsAndHandlesZero) {
  EXPECT_EQ(ApproxRatio(1.0, 0.0), 0.0);
  EXPECT_EQ(ApproxRatio(-1.0, 2.0), 0.0);
  EXPECT_EQ(ApproxRatio(3.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(ApproxRatio(1.0, 2.0), 0.5);
}

TEST(BorgsGuaranteeTest, RealisticGammaGivesNearZero) {
  // The paper's example: 0.1-approximation on n = 1e5, m = 1e6 needs
  // > 2e12 edges examined. Check the converse: 1e9 edges -> alpha ~ 0.
  double alpha = BorgsApproxGuarantee(1000000000ULL, 100000, 1000000);
  EXPECT_LT(alpha, 0.06);
  EXPECT_GT(alpha, 0.0);
}

TEST(BorgsGuaranteeTest, CappedAtQuarter) {
  double alpha = BorgsApproxGuarantee(UINT64_MAX / 2, 100, 100);
  EXPECT_DOUBLE_EQ(alpha, 0.25);
}

TEST(BorgsGuaranteeTest, FormulaExactValue) {
  // β = γ / (1492992 · (n + m) · ln n), straight from §3.2.
  const uint64_t gamma = 1000000;
  const uint32_t n = 1000;
  const uint64_t m = 9000;
  const double expected =
      1000000.0 / (1492992.0 * 10000.0 * std::log(1000.0));
  EXPECT_NEAR(BorgsApproxGuarantee(gamma, n, m), expected, 1e-15);
}

TEST(BorgsGuaranteeTest, PaperExampleNeedsTrillionsOfEdges) {
  // §3.2's example: a 0.1-approximation on n = 1e5, m = 1e6 requires
  // more than 2e12 edges examined.
  const uint32_t n = 100000;
  const uint64_t m = 1000000;
  // γ just under 2e12 is not yet enough for 0.1...
  EXPECT_LT(BorgsApproxGuarantee(1800000000000ULL, n, m), 0.1);
  // ...and ~2e12 barely clears it, matching "more than 2e12 edges".
  EXPECT_NEAR(BorgsApproxGuarantee(2000000000000ULL, n, m), 0.1, 0.01);
}

TEST(BorgsGuaranteeTest, MonotoneInGamma) {
  double a = BorgsApproxGuarantee(1000000, 1000, 10000);
  double b = BorgsApproxGuarantee(2000000, 1000, 10000);
  EXPECT_LE(a, b);
}

TEST(LemmaFGTest, FDecreasingGIncreasing) {
  // Appendix B: f decreases in x, g increases in x.
  double prev_f = 1e300, prev_g = -1.0;
  for (double x = 0.5; x < 30.0; x += 0.5) {
    double f = LemmaF(100.0, x);
    double g = LemmaG(1000.0, x);
    EXPECT_LE(f, prev_f + 1e-9);
    EXPECT_GE(g, prev_g - 1e-9);
    prev_f = f;
    prev_g = g;
  }
}

TEST(DeltaSplitRatioTest, NearOneAcrossFigureOneGrid) {
  // Figure 1's claim: the ratio is close to 1 for Λ2 = 100 and a wide
  // range of δ and Λ1. "Close" per the figure: above ~0.8.
  for (double delta : {1e-9, 1e-6, 1e-3, 0.1}) {
    for (double lambda1 : {100.0, 1000.0, 10000.0}) {
      double r = DeltaSplitRatio(lambda1, 100.0, delta);
      EXPECT_GT(r, 0.8) << "delta " << delta << " lambda1 " << lambda1;
      EXPECT_LE(r, 1.0 + 1e-9);
    }
  }
}

TEST(BoundKindTest, Names) {
  EXPECT_STREQ(BoundKindName(BoundKind::kBasic), "OPIM0");
  EXPECT_STREQ(BoundKindName(BoundKind::kImproved), "OPIM+");
  EXPECT_STREQ(BoundKindName(BoundKind::kLeskovec), "OPIM'");
}

/// End-to-end statistical validity: on a real sampling setup the bounds
/// must sandwich the truth with comfortable margin.
TEST(BoundsIntegrationTest, LowerAndUpperSandwichTruth) {
  // Known truth on a star: center seed set {0}, sigma({0}) = 1+(n-1)p.
  // We approximate with the collection-level machinery instead of closed
  // form: generate many sets, check σ_l <= Λ·n/θ and σ_u >= estimate.
  RRCollection rr = MakeRandomCollection(50, 5000, 99);
  GreedyResult g = SelectGreedy(rr, 5, {5});
  double est = static_cast<double>(g.coverage) * 50 / rr.num_sets();
  double lower = SigmaLower(g.coverage, rr.num_sets(), 50, 0.01);
  double upper = SigmaUpper(BoundKind::kImproved, g, rr.num_sets(), 50, 0.01);
  EXPECT_LE(lower, est);
  EXPECT_GE(upper, est);
  EXPECT_GT(lower, 0.0);
}

}  // namespace
}  // namespace opim
