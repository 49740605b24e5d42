// Property test for prefix-complete traces: one traced k-run that names
// smaller seed-set sizes k' must answer each of them — seeds, λᵘ,
// σ_l/σ_u/α and the judge coverage Λ2 of every prefix — exactly as an
// independent from-scratch evaluation at k' does: a fresh SelectGreedy(k')
// over the same nominator pool, its Eq. (10)/(15) bound arithmetic, and a
// judge-pool scan of its seed set. Greedy prefix-consistency is the claim
// under test; the comparisons are bitwise, not approximate. The traced
// side evaluates what TwoPoolEngine::Certify evaluates at each size.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "bounds/bounds.h"
#include "rrset/rr_collection.h"
#include "select/greedy.h"
#include "support/random.h"

namespace opim {
namespace {

/// The engine's judge pool keeps no index; R1 does.
constexpr RRStoreOptions kJudgeStore{.index = false};

RRCollection MakeRandomCollection(uint32_t n, uint32_t num_sets,
                                  uint32_t max_len, uint64_t seed,
                                  RRStoreOptions options = {}) {
  Rng rng(seed);
  RRCollection rr(n, options);
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

struct Pools {
  RRCollection r1;
  RRCollection r2;
};

Pools MakePools(const QueryCase& c) {
  return {MakeRandomCollection(c.n, c.theta1, c.max_len, c.seed),
          MakeRandomCollection(c.n, c.theta2, c.max_len, c.seed + 1000,
                               kJudgeStore)};
}

std::vector<uint32_t> QuerySizes(uint32_t k) {
  std::vector<uint32_t> ks = {1, std::max(1u, k / 2), k};
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  return ks;
}

/// The first `j` seeds of a selection.
std::vector<NodeId> Prefix(const GreedyResult& greedy, uint32_t j) {
  return {greedy.seeds.begin(), greedy.seeds.begin() + j};
}

TEST(TraceQueryTest, SeedsMatchFreshSelection) {
  for (const QueryCase& c : kCases) {
    const Pools p = MakePools(c);
    const uint32_t k = std::min(c.k, c.n);
    const GreedyResult traced = SelectGreedyCelf(p.r1, k, QuerySizes(k));
    EXPECT_EQ(traced.trace_ks, QuerySizes(k)) << "seed=" << c.seed;
    for (const uint32_t kp : QuerySizes(k)) {
      const GreedyResult fresh = SelectGreedy(p.r1, kp, {kp});
      EXPECT_EQ(fresh.seeds, Prefix(traced, kp))
          << "k'=" << kp << " seed=" << c.seed;
    }
  }
}

TEST(TraceQueryTest, LambdaUpperMatchesFreshTraceBounds) {
  for (const QueryCase& c : kCases) {
    const Pools p = MakePools(c);
    const uint32_t k = std::min(c.k, c.n);
    const GreedyResult traced = SelectGreedyCelf(p.r1, k, QuerySizes(k));
    for (const uint32_t kp : QuerySizes(k)) {
      const GreedyResult fresh = SelectGreedy(p.r1, kp, {kp});
      EXPECT_EQ(LambdaUpperFromTrace(fresh), LambdaUpperFromTrace(traced, kp))
          << "k'=" << kp << " seed=" << c.seed;
      EXPECT_EQ(LambdaUpperLeskovec(fresh), LambdaUpperLeskovec(traced, kp))
          << "k'=" << kp << " seed=" << c.seed;
    }
  }
}

TEST(TraceQueryTest, CertificatesMatchIndependentEvaluation) {
  const double kDelta = 0.005;
  for (const QueryCase& c : kCases) {
    const Pools p = MakePools(c);
    const uint32_t k = std::min(c.k, c.n);
    const double scale = c.n;
    const GreedyResult traced = SelectGreedyCelf(p.r1, k, QuerySizes(k));
    // The one judge scan a certificate reads Λ2 of every prefix from.
    const std::vector<uint64_t> lambda2_at =
        p.r2.CoverageByPrefix(traced.seeds);
    for (const uint32_t kp : QuerySizes(k)) {
      const GreedyResult fresh = SelectGreedy(p.r1, kp, {kp});
      // Λ2 of every prefix of the fresh selection is the traced scan's.
      const std::vector<uint64_t> fresh_at = p.r2.CoverageByPrefix(fresh.seeds);
      EXPECT_TRUE(std::equal(fresh_at.begin(), fresh_at.end(),
                             lambda2_at.begin()))
          << "k'=" << kp;
      const uint64_t lambda2 = p.r2.CoverageOf(fresh.seeds);
      EXPECT_EQ(lambda2, lambda2_at[kp]) << "k'=" << kp;
      const double sigma_lower =
          SigmaLower(lambda2, p.r2.num_sets(), scale, kDelta);
      EXPECT_EQ(sigma_lower, SigmaLower(lambda2_at[kp], p.r2.num_sets(),
                                        scale, kDelta));
      for (const BoundKind kind :
           {BoundKind::kBasic, BoundKind::kImproved, BoundKind::kLeskovec}) {
        const double sigma_upper =
            SigmaUpper(kind, fresh, p.r1.num_sets(), scale, kDelta);
        const double traced_upper =
            SigmaUpper(kind, traced, p.r1.num_sets(), scale, kDelta, kp);
        EXPECT_EQ(sigma_upper, traced_upper)
            << "k'=" << kp << " " << BoundKindName(kind);
        const double alpha = ApproxRatio(sigma_lower, traced_upper);
        EXPECT_EQ(ApproxRatio(sigma_lower, sigma_upper), alpha);
        EXPECT_GE(alpha, 0.0);
        EXPECT_LE(alpha, 1.0);
      }
    }
  }
}

TEST(TraceQueryTest, Lambda2PrefixesMatchDirectCoverage) {
  // Every prefix 0..k, not just the traced sizes: the judge scan's prefix
  // counts must equal CoverageOf on the literal prefix.
  const RRCollection r1 = MakeRandomCollection(60, 500, 4, 21);
  const RRCollection r2 = MakeRandomCollection(60, 450, 4, 22, kJudgeStore);
  const uint32_t k = 10;
  const GreedyResult traced = SelectGreedyCelf(r1, k, {k});
  const std::vector<uint64_t> lambda2_at = r2.CoverageByPrefix(traced.seeds);
  ASSERT_EQ(lambda2_at.size(), k + 1u);
  for (uint32_t i = 0; i <= k; ++i) {
    EXPECT_EQ(r2.CoverageOf(Prefix(traced, i)), lambda2_at[i])
        << "prefix " << i;
  }
}

TEST(TraceQueryTest, SaturatedTraceStillAnswersAllSizes) {
  // Coverage saturates long before k: sizes past the last real pick must
  // answer from the padded (flat-coverage, zero-marginal) prefixes and
  // still match fresh evaluations.
  RRCollection r1(12);
  r1.AddSet(std::vector<NodeId>{1, 2}, 2);
  r1.AddSet(std::vector<NodeId>{2, 3}, 2);
  RRCollection r2(12, kJudgeStore);
  r2.AddSet(std::vector<NodeId>{2}, 1);
  r2.AddSet(std::vector<NodeId>{5}, 1);
  const uint32_t k = 8;
  std::vector<uint32_t> all_sizes(k);
  std::iota(all_sizes.begin(), all_sizes.end(), 1u);
  const GreedyResult traced = SelectGreedyCelf(r1, k, all_sizes);
  const std::vector<uint64_t> lambda2_at = r2.CoverageByPrefix(traced.seeds);
  for (uint32_t kp = 1; kp <= k; ++kp) {
    const GreedyResult fresh = SelectGreedy(r1, kp, {kp});
    EXPECT_EQ(fresh.seeds, Prefix(traced, kp));
    EXPECT_EQ(LambdaUpperFromTrace(fresh), LambdaUpperFromTrace(traced, kp));
    EXPECT_EQ(LambdaUpperLeskovec(fresh), LambdaUpperLeskovec(traced, kp));
    EXPECT_EQ(r2.CoverageOf(fresh.seeds), lambda2_at[kp]);
  }
}

}  // namespace
}  // namespace opim
