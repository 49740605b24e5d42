// Property test for prefix-complete trace queries: for every query size
// k' <= k, the seeds, λᵘ, and σ_l/σ_u/α that BoundsAt answers from one
// k-run's SeedTrace must equal what an independent from-scratch
// evaluation at k' produces — a fresh SelectGreedy(k') over the same
// nominator pool, its Eq. (10)/(15) bound arithmetic, and a direct
// judge-pool coverage of its seed set. Greedy prefix-consistency is the
// claim under test; the comparisons are bitwise, not approximate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "bounds/bounds.h"
#include "rrset/rr_collection.h"
#include "select/greedy.h"
#include "select/seed_trace.h"
#include "support/random.h"

namespace opim {
namespace {

RRCollection MakeRandomCollection(uint32_t n, uint32_t num_sets,
                                  uint32_t max_len, uint64_t seed) {
  Rng rng(seed);
  RRCollection rr(n);
  std::vector<NodeId> s;
  for (uint32_t i = 0; i < num_sets; ++i) {
    s.clear();
    const uint32_t len = 1 + rng.UniformBelow(max_len);
    for (uint32_t j = 0; j < len; ++j) {
      s.push_back(static_cast<NodeId>(rng.UniformBelow(n)));
    }
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    rr.AddSet(s, len);
  }
  return rr;
}

struct QueryCase {
  uint32_t n;
  uint32_t theta1;
  uint32_t theta2;
  uint32_t max_len;
  uint32_t k;
  uint64_t seed;
};

// Spanning dense ties (tiny n), saturation (k beyond what coverage
// supports), and larger sparse instances.
const QueryCase kCases[] = {
    {20, 150, 130, 3, 8, 1},  {50, 400, 380, 4, 12, 2},
    {10, 60, 50, 2, 10, 3},   {100, 900, 850, 5, 20, 4},
    {6, 30, 25, 2, 6, 5},     {200, 1500, 1400, 4, 15, 6},
};

/// Arms a trace by running the production path: traced CELF over r1 with
/// a SeedTrace attached, judge attribution over r2, bound params set the
/// way the engine sets them.
SeedTrace MakeTrace(const RRCollection& r1, const RRCollection& r2,
                    uint32_t k, double scale, double delta) {
  SeedTrace trace;
  SelectGreedyCelf(r1, k, /*with_trace=*/true, &trace);
  trace.AttributeJudgeCoverage(r2);
  trace.SetBoundParams(r1.num_sets(), r2.num_sets(), scale, delta, delta);
  return trace;
}

std::vector<uint32_t> QuerySizes(uint32_t k) {
  std::vector<uint32_t> ks = {1, std::max(1u, k / 2), k};
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  return ks;
}

TEST(TraceQueryBoundsTest, SeedsAtMatchesFreshSelection) {
  for (const QueryCase& c : kCases) {
    const RRCollection r1 = MakeRandomCollection(c.n, c.theta1, c.max_len,
                                                 c.seed);
    const RRCollection r2 = MakeRandomCollection(c.n, c.theta2, c.max_len,
                                                 c.seed + 1000);
    const uint32_t k = std::min(c.k, c.n);
    const SeedTrace trace = MakeTrace(r1, r2, k, c.n, 0.01);
    for (const uint32_t kp : QuerySizes(k)) {
      const GreedyResult fresh = SelectGreedy(r1, kp, /*with_trace=*/true);
      const std::span<const NodeId> answered = trace.SeedsAt(kp);
      EXPECT_EQ(fresh.seeds,
                std::vector<NodeId>(answered.begin(), answered.end()))
          << "k'=" << kp << " seed=" << c.seed;
    }
  }
}

TEST(TraceQueryBoundsTest, LambdaUpperAtMatchesFreshTraceBounds) {
  for (const QueryCase& c : kCases) {
    const RRCollection r1 = MakeRandomCollection(c.n, c.theta1, c.max_len,
                                                 c.seed);
    const RRCollection r2 = MakeRandomCollection(c.n, c.theta2, c.max_len,
                                                 c.seed + 1000);
    const uint32_t k = std::min(c.k, c.n);
    const SeedTrace trace = MakeTrace(r1, r2, k, c.n, 0.01);
    for (const uint32_t kp : QuerySizes(k)) {
      const GreedyResult fresh = SelectGreedy(r1, kp, /*with_trace=*/true);
      EXPECT_EQ(LambdaUpperFromTrace(fresh),
                LambdaUpperAt(trace, BoundKind::kImproved, kp))
          << "k'=" << kp << " seed=" << c.seed;
      EXPECT_EQ(LambdaUpperLeskovec(fresh),
                LambdaUpperAt(trace, BoundKind::kLeskovec, kp))
          << "k'=" << kp << " seed=" << c.seed;
    }
  }
}

TEST(TraceQueryBoundsTest, BoundsAtMatchesIndependentEvaluation) {
  const double kDelta = 0.005;
  for (const QueryCase& c : kCases) {
    const RRCollection r1 = MakeRandomCollection(c.n, c.theta1, c.max_len,
                                                 c.seed);
    const RRCollection r2 = MakeRandomCollection(c.n, c.theta2, c.max_len,
                                                 c.seed + 1000);
    const uint32_t k = std::min(c.k, c.n);
    const double scale = c.n;
    const SeedTrace trace = MakeTrace(r1, r2, k, scale, kDelta);
    for (const uint32_t kp : QuerySizes(k)) {
      const GreedyResult fresh = SelectGreedy(r1, kp, /*with_trace=*/true);
      const uint64_t lambda2 = r2.CoverageOf(fresh.seeds);
      EXPECT_EQ(lambda2, trace.Lambda2At(kp)) << "k'=" << kp;
      const double sigma_lower =
          SigmaLower(lambda2, r2.num_sets(), scale, kDelta);
      for (const BoundKind kind :
           {BoundKind::kImproved, BoundKind::kLeskovec}) {
        const double sigma_upper =
            SigmaUpper(kind, fresh, r1.num_sets(), scale, kDelta);
        const TraceQueryBounds q = BoundsAt(trace, kind, kp);
        EXPECT_EQ(sigma_lower, q.sigma_lower) << "k'=" << kp;
        EXPECT_EQ(sigma_upper, q.sigma_upper) << "k'=" << kp;
        EXPECT_EQ(ApproxRatio(sigma_lower, sigma_upper), q.alpha)
            << "k'=" << kp;
        EXPECT_GE(q.alpha, 0.0);
        EXPECT_LE(q.alpha, 1.0);
      }
    }
  }
}

TEST(TraceQueryBoundsTest, Lambda2PrefixesMatchDirectCoverage) {
  // Every prefix 0..k, not just the queried sizes: the incremental
  // judge-pool walk must equal CoverageOf on the literal prefix.
  const RRCollection r1 = MakeRandomCollection(60, 500, 4, 21);
  const RRCollection r2 = MakeRandomCollection(60, 450, 4, 22);
  const uint32_t k = 10;
  const SeedTrace trace = MakeTrace(r1, r2, k, 60.0, 0.01);
  const std::span<const NodeId> seeds = trace.seeds();
  for (uint32_t i = 0; i <= k; ++i) {
    const std::vector<NodeId> prefix(
        seeds.begin(), seeds.begin() + std::min<size_t>(i, seeds.size()));
    EXPECT_EQ(r2.CoverageOf(prefix), trace.Lambda2At(i)) << "prefix " << i;
  }
}

TEST(TraceQueryBoundsTest, SaturatedTraceStillAnswersAllSizes) {
  // Coverage saturates long before k: queries past the last real pick
  // must answer with the padded (flat-coverage, zero-marginal) rows and
  // still match fresh evaluations.
  RRCollection r1(12);
  r1.AddSet(std::vector<NodeId>{1, 2}, 2);
  r1.AddSet(std::vector<NodeId>{2, 3}, 2);
  RRCollection r2(12);
  r2.AddSet(std::vector<NodeId>{2}, 1);
  r2.AddSet(std::vector<NodeId>{5}, 1);
  const uint32_t k = 8;
  const SeedTrace trace = MakeTrace(r1, r2, k, 12.0, 0.01);
  for (uint32_t kp = 1; kp <= k; ++kp) {
    const GreedyResult fresh = SelectGreedy(r1, kp, /*with_trace=*/true);
    const std::span<const NodeId> answered = trace.SeedsAt(kp);
    EXPECT_EQ(fresh.seeds,
              std::vector<NodeId>(answered.begin(), answered.end()));
    EXPECT_EQ(LambdaUpperFromTrace(fresh),
              LambdaUpperAt(trace, BoundKind::kImproved, kp));
    EXPECT_EQ(r2.CoverageOf(fresh.seeds), trace.Lambda2At(kp));
  }
}

}  // namespace
}  // namespace opim
