// TwoPoolEngine contracts: every way the engine samples a batch — one
// Stage of both pools merged at once, a Stage filling one pool only, a
// speculative Stage merged later — produces pools byte-identical to
// ParallelGenerate with the same seeds and thread count; discarded
// speculation never reaches the pools; the anytime floor only fires
// after a trip; and the certificate is the Eq. (5) / upper-bound pair
// the bounds module computes on the same pools.

#include "core/two_pool_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "bounds/bounds.h"
#include "gen/generators.h"
#include "rrset/parallel_generate.h"
#include "support/random.h"
#include "support/run_control.h"

namespace opim {
namespace {

constexpr RRStoreOptions kNoCosts{.retain_set_costs = false};

enum class Roots { kUniform, kWeighted };

using Param = std::tuple<DiffusionModel, Roots, unsigned>;

std::vector<double> RootWeights(const Graph& g, Roots roots) {
  if (roots == Roots::kUniform) return {};
  Rng rng(5);
  std::vector<double> w(g.num_nodes());
  for (double& x : w) x = 0.1 + rng.UniformDouble() * 4.0;
  return w;
}

/// Same stored bytes: slot words, per-chunk encoded runs, compressed
/// size, membership counts and totals.
void ExpectSamePool(const RRCollection& got, const RRCollection& want) {
  ASSERT_EQ(got.num_sets(), want.num_sets());
  EXPECT_EQ(got.total_size(), want.total_size());
  EXPECT_EQ(got.total_edges_examined(), want.total_edges_examined());
  EXPECT_EQ(got.CompressedMemberBytes(), want.CompressedMemberBytes());
  EXPECT_TRUE(std::ranges::equal(got.slots(), want.slots()));
  ASSERT_EQ(got.num_pool_chunks(), want.num_pool_chunks());
  for (uint32_t c = 0; c < got.num_pool_chunks(); ++c) {
    EXPECT_TRUE(std::ranges::equal(got.ChunkRun(c), want.ChunkRun(c)))
        << "chunk " << c;
  }
  EXPECT_TRUE(std::ranges::equal(got.MemberCounts(), want.MemberCounts()));
}

class TwoPoolEngineStreamTest : public ::testing::TestWithParam<Param> {
 protected:
  TwoPoolEngineStreamTest()
      : g_(GenerateBarabasiAlbert(400, 4)),
        weights_(RootWeights(g_, std::get<1>(GetParam()))) {}

  DiffusionModel model() const { return std::get<0>(GetParam()); }
  unsigned threads() const { return std::get<2>(GetParam()); }

  /// Pools built by plain ParallelGenerate calls, one per (pool, batch).
  void Reference(RRCollection* r1, RRCollection* r2) const {
    for (const auto& [count1, seed1, count2, seed2] : kBatches) {
      ParallelGenerate(g_, model(), r1, count1, seed1, threads(), weights_);
      ParallelGenerate(g_, model(), r2, count2, seed2, threads(), weights_);
    }
  }

  static constexpr std::tuple<uint64_t, uint64_t, uint64_t, uint64_t>
      kBatches[] = {{700, 11, 650, 12}, {1400, 13, 1301, 14}};

  Graph g_;
  std::vector<double> weights_;
};

TEST_P(TwoPoolEngineStreamTest, StagedBatchesMatchParallelGenerate) {
  RRCollection want1(g_.num_nodes(), kNoCosts);
  RRCollection want2(g_.num_nodes(), kNoCosts);
  Reference(&want1, &want2);

  TwoPoolEngine engine(g_, model(), weights_, threads());
  uint64_t merged = 0;
  for (const auto& [count1, seed1, count2, seed2] : kBatches) {
    engine.Stage(count1, seed1, count2, seed2, nullptr,
                 /*speculative=*/false);
    EXPECT_TRUE(engine.staging());
    merged += engine.Merge(nullptr);
    EXPECT_FALSE(engine.staging());
  }
  EXPECT_EQ(merged, want1.num_sets() + want2.num_sets());
  ExpectSamePool(engine.r1(), want1);
  ExpectSamePool(engine.r2(), want2);
}

TEST_P(TwoPoolEngineStreamTest, EagerAndSpeculativeBatchesMatchToo) {
  RRCollection want1(g_.num_nodes(), kNoCosts);
  RRCollection want2(g_.num_nodes(), kNoCosts);
  Reference(&want1, &want2);

  // First batch as two one-pool stages, second as speculation merged
  // after a selection ran on the pools in between (the pipelined loop's
  // order).
  TwoPoolEngine engine(g_, model(), weights_, threads());
  const auto& [c1, s1, c2, s2] = kBatches[0];
  engine.Stage(c1, s1, 0, 0, nullptr, /*speculative=*/false);
  EXPECT_EQ(engine.Merge(nullptr), c1);
  engine.Stage(0, 0, c2, s2, nullptr, /*speculative=*/false);
  EXPECT_EQ(engine.Merge(nullptr), c2);
  const auto& [d1, t1, d2, t2] = kBatches[1];
  TwoPoolEngine::SelectOptions select;
  if (engine.has_workers()) {
    select.after_initial_gains = [&] {
      engine.Stage(d1, t1, d2, t2, nullptr, /*speculative=*/true);
    };
    engine.Select(5, select);
  } else {
    engine.Stage(d1, t1, d2, t2, nullptr, /*speculative=*/true);
  }
  EXPECT_EQ(engine.Merge(nullptr), d1 + d2);
  ExpectSamePool(engine.r1(), want1);
  ExpectSamePool(engine.r2(), want2);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsRootsThreads, TwoPoolEngineStreamTest,
    ::testing::Combine(::testing::Values(DiffusionModel::kIndependentCascade,
                                         DiffusionModel::kLinearThreshold),
                       ::testing::Values(Roots::kUniform, Roots::kWeighted),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(std::get<0>(info.param) ==
                                 DiffusionModel::kIndependentCascade
                             ? "IC"
                             : "LT") +
             (std::get<1>(info.param) == Roots::kWeighted ? "Weighted"
                                                          : "Uniform") +
             std::to_string(std::get<2>(info.param)) + "Threads";
    });

TEST(TwoPoolEngineTest, DiscardedSpeculationNeverReachesThePools) {
  const Graph g = GenerateBarabasiAlbert(400, 4);
  TwoPoolEngine engine(g, DiffusionModel::kIndependentCascade, {}, 4);
  engine.Stage(500, 1, 500, 2, nullptr, /*speculative=*/false);
  engine.Merge(nullptr);
  const uint64_t bytes = engine.r1().CompressedMemberBytes() +
                         engine.r2().CompressedMemberBytes();
  engine.Stage(500, 3, 500, 4, nullptr, /*speculative=*/true);
  EXPECT_LE(engine.Discard(), 1000u);
  EXPECT_FALSE(engine.staging());
  EXPECT_EQ(engine.r1().num_sets(), 500u);
  EXPECT_EQ(engine.r2().num_sets(), 500u);
  EXPECT_EQ(engine.r1().CompressedMemberBytes() +
                engine.r2().CompressedMemberBytes(),
            bytes);
  // The engine stays usable: the next batch merges normally.
  engine.Stage(10, 5, 10, 6, nullptr, /*speculative=*/false);
  EXPECT_EQ(engine.Merge(nullptr), 20u);
}

TEST(TwoPoolEngineTest, FloorFillsEmptyPoolsOnlyAfterATrip) {
  const Graph g = GenerateBarabasiAlbert(200, 3);
  TwoPoolEngine engine(g, DiffusionModel::kIndependentCascade, {}, 1);
  auto seed_for = [](int pool) { return 100u + pool; };
  RunControl untripped;
  engine.FloorEmptyPools(&untripped, seed_for);
  engine.FloorEmptyPools(nullptr, seed_for);
  EXPECT_EQ(engine.r1().num_sets(), 0u);
  EXPECT_EQ(engine.r2().num_sets(), 0u);

  RunControl cancelled;
  cancelled.RequestCancel();
  // Stops at its first poll.
  engine.Stage(1000, 7, 0, 0, &cancelled, /*speculative=*/false);
  EXPECT_EQ(engine.Merge(&cancelled), 0u);
  EXPECT_EQ(engine.r1().num_sets(), 0u);
  engine.FloorEmptyPools(&cancelled, seed_for);
  EXPECT_EQ(engine.r1().num_sets(), 1u);
  EXPECT_EQ(engine.r2().num_sets(), 1u);
  // Each floored set is the pool's one-set batch with its own seed.
  for (int pool : {0, 1}) {
    RRCollection want(g.num_nodes(), kNoCosts);
    ParallelGenerate(g, DiffusionModel::kIndependentCascade, &want, 1,
                     seed_for(pool), 1);
    ExpectSamePool(pool == 0 ? engine.r1() : engine.r2(), want);
  }
  engine.FloorEmptyPools(&cancelled, seed_for);  // pools no longer empty
  EXPECT_EQ(engine.r1().num_sets(), 1u);
}

TEST(TwoPoolEngineTest, CertificateMatchesTheBoundsModule) {
  const Graph g = GenerateBarabasiAlbert(300, 4);
  TwoPoolEngine engine(g, DiffusionModel::kIndependentCascade, {}, 1);
  engine.Stage(3000, 1, 3000, 2, nullptr, /*speculative=*/false);
  engine.Merge(nullptr);
  TwoPoolEngine::SelectOptions select;
  select.with_trace = true;
  const GreedyResult greedy = engine.Select(5, select);
  const double d1 = 0.01, d2 = 0.02;
  const TwoPoolEngine::Certificate cert =
      engine.Certify(greedy, BoundKind::kImproved, d1, d2);
  const uint64_t lambda2 = engine.r2().CoverageOf(greedy.seeds);
  EXPECT_EQ(cert.lambda2, lambda2);
  EXPECT_EQ(cert.sigma_lower,
            SigmaLower(lambda2, engine.r2().num_sets(), engine.scale(), d2));
  EXPECT_EQ(cert.sigma_upper,
            SigmaUpper(BoundKind::kImproved, greedy, engine.r1().num_sets(),
                       engine.scale(), d1));
  EXPECT_EQ(cert.alpha, ApproxRatio(cert.sigma_lower, cert.sigma_upper));
  EXPECT_EQ(engine.UpperBound(greedy, BoundKind::kBasic, d1),
            SigmaUpper(BoundKind::kBasic, greedy, engine.r1().num_sets(),
                       engine.scale(), d1));
}

}  // namespace
}  // namespace opim
