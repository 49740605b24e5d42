// TwoPoolEngine contracts: every way the engine samples a batch — one
// Stage of both pools merged at once, a Stage filling one pool only, a
// speculative Stage merged later — produces the pools a serial oracle
// builds from the same seeds and thread count; batches are deterministic,
// append in order, and sample the same distribution at any thread count;
// discarded speculation never reaches the pools; the anytime floor only
// fires after a trip; and the certificate is the Eq. (5) / upper-bound
// pair the bounds module computes on the same pools. The engine keeps R2
// unindexed, so R2 is compared by its bytes and by the coverage its judge
// scan reports against the indexed reference pool.

#include "core/two_pool_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "bounds/bounds.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "rrset/rr_sampler.h"
#include "support/random.h"
#include "support/run_control.h"

namespace opim {
namespace {

enum class Roots { kUniform, kWeighted };

using Param = std::tuple<DiffusionModel, Roots, unsigned>;

std::vector<double> RootWeights(const Graph& g, Roots roots) {
  if (roots == Roots::kUniform) return {};
  Rng rng(5);
  std::vector<double> w(g.num_nodes());
  for (double& x : w) x = 0.1 + rng.UniformDouble() * 4.0;
  return w;
}

/// The engine's batch schedule written out serially, sharing no code with
/// StagedGeneration, ShardEncoder or AddCompressedShards: a batch of
/// `count` sets on `threads` threads has GenerateShardCount(count,
/// threads) shards, and shard s samples sets [count·s/shards,
/// count·(s+1)/shards) from Rng(seed, 0x70617267 + s) and appends them
/// to `out` with AddSet. Empty `weights` selects uniform roots.
void SerialOracle(const Graph& g, DiffusionModel model,
                  std::span<const double> weights, unsigned threads,
                  uint64_t count, uint64_t seed, RRCollection* out) {
  if (count == 0) return;
  const SamplingView& view =
      SamplingView::For(g, SamplingViewPartsFor(model), nullptr);
  AliasSampler root;
  if (!weights.empty()) {
    root.Build(std::vector<double>(weights.begin(), weights.end()));
  }
  const unsigned shards = GenerateShardCount(count, threads);
  std::vector<NodeId> members;
  for (unsigned s = 0; s < shards; ++s) {
    auto sampler = MakeRRSampler(view, model, root.empty() ? nullptr : &root);
    Rng rng(seed, 0x70617267ULL + s);
    for (uint64_t i = count * s / shards; i < count * (s + 1) / shards; ++i) {
      const uint64_t cost = sampler->SampleInto(rng, &members);
      out->AddSet(members, cost);
    }
  }
}

/// Same stored bytes: slot words, per-chunk encoded runs, compressed
/// size, totals and γ, and every node's posting list — or, when `got`
/// keeps no index, the coverage of a few seed lists (every prefix).
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
  if (got.indexed()) {
    for (NodeId v = 0; v < got.num_nodes(); ++v) {
      EXPECT_TRUE(std::ranges::equal(got.Covering(v), want.Covering(v)))
          << "node " << v;
    }
    return;
  }
  Rng rng(17);
  for (uint32_t k : {1u, 5u, 20u}) {
    std::vector<NodeId> seeds(k);
    for (NodeId& v : seeds) v = rng.UniformBelow(got.num_nodes());
    EXPECT_EQ(got.CoverageByPrefix(seeds), want.CoverageByPrefix(seeds))
        << "k=" << k;
  }
}

class TwoPoolEngineStreamTest : public ::testing::TestWithParam<Param> {
 protected:
  TwoPoolEngineStreamTest()
      : g_(GenerateBarabasiAlbert(400, 4)),
        weights_(RootWeights(g_, std::get<1>(GetParam()))) {}

  DiffusionModel model() const { return std::get<0>(GetParam()); }
  unsigned threads() const { return std::get<2>(GetParam()); }

  /// Pools built by the serial oracle, one call per (pool, batch).
  void Reference(RRCollection* r1, RRCollection* r2) const {
    for (const auto& [count1, seed1, count2, seed2] : kBatches) {
      SerialOracle(g_, model(), weights_, threads(), count1, seed1, r1);
      SerialOracle(g_, model(), weights_, threads(), count2, seed2, r2);
    }
  }

  static constexpr std::tuple<uint64_t, uint64_t, uint64_t, uint64_t>
      kBatches[] = {{700, 11, 650, 12}, {1400, 13, 1301, 14}};

  Graph g_;
  std::vector<double> weights_;
};

TEST_P(TwoPoolEngineStreamTest, StagedBatchesMatchParallelGenerate) {
  RRCollection want1(g_.num_nodes());
  RRCollection want2(g_.num_nodes());
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
  RRCollection want1(g_.num_nodes());
  RRCollection want2(g_.num_nodes());
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
  engine.Stage(d1, t1, d2, t2, nullptr, /*speculative=*/true);
  engine.Select(5);
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

/// One eager batch of `count` sets with `seed` into R1 of `engine`.
void FillR1(TwoPoolEngine* engine, uint64_t count, uint64_t seed) {
  engine->Stage(count, seed, 0, 0, nullptr, /*speculative=*/false);
  engine->Merge(nullptr);
}

/// Both pools hold the same sets in the same order with the same γ.
void ExpectSameSets(const RRCollection& a, const RRCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.total_size(), b.total_size());
  EXPECT_EQ(a.total_edges_examined(), b.total_edges_examined());
  for (RRId id = 0; id < a.num_sets(); ++id) {
    EXPECT_EQ(a.DecodeSet(id), b.DecodeSet(id)) << "set " << id;
  }
}

class TwoPoolEngineBatchTest
    : public ::testing::TestWithParam<DiffusionModel> {};

TEST_P(TwoPoolEngineBatchTest, ProducesRequestedCount) {
  const Graph g = GenerateBarabasiAlbert(200, 4);
  TwoPoolEngine engine(g, GetParam(), {}, /*num_threads=*/4);
  FillR1(&engine, 1000, /*seed=*/1);
  EXPECT_EQ(engine.r1().num_sets(), 1000u);
  EXPECT_GT(engine.r1().total_size(), 1000u);  // roots alone give >= 1
  EXPECT_GT(engine.r1().total_edges_examined(), 0u);
  EXPECT_EQ(engine.r2().num_sets(), 0u);
}

TEST_P(TwoPoolEngineBatchTest, DeterministicForFixedSeedAndThreads) {
  const Graph g = GenerateBarabasiAlbert(200, 4);
  TwoPoolEngine a(g, GetParam(), {}, 3), b(g, GetParam(), {}, 3);
  FillR1(&a, 500, 7);
  FillR1(&b, 500, 7);
  ExpectSameSets(a.r1(), b.r1());
}

TEST_P(TwoPoolEngineBatchTest, StatisticallyEquivalentAcrossThreads) {
  // Different thread counts give different streams but the same
  // distribution: spread estimates of a fixed seed set must agree.
  const Graph g = GenerateErdosRenyi(150, 900);
  TwoPoolEngine serial(g, GetParam(), {}, 1), parallel4(g, GetParam(), {}, 4);
  FillR1(&serial, 40000, 11);
  FillR1(&parallel4, 40000, 11);
  const std::vector<NodeId> seeds = {0, 10, 20};
  const double a = serial.r1().EstimateSpread(seeds);
  const double b = parallel4.r1().EstimateSpread(seeds);
  EXPECT_NEAR(a, b, 0.15 * std::max(a, 1.0));
}

TEST_P(TwoPoolEngineBatchTest, ZeroCountIsNoop) {
  const Graph g = GenerateBarabasiAlbert(50, 3);
  TwoPoolEngine engine(g, GetParam(), {}, 4);
  engine.Stage(0, 1, 0, 2, nullptr, /*speculative=*/false);
  EXPECT_EQ(engine.Merge(nullptr), 0u);
  EXPECT_EQ(engine.r1().num_sets(), 0u);
  EXPECT_EQ(engine.r2().num_sets(), 0u);
}

TEST_P(TwoPoolEngineBatchTest, MoreThreadsThanSamples) {
  const Graph g = GenerateBarabasiAlbert(50, 3);
  TwoPoolEngine engine(g, GetParam(), {}, 16);
  FillR1(&engine, 3, 1);
  EXPECT_EQ(engine.r1().num_sets(), 3u);
}

TEST_P(TwoPoolEngineBatchTest, PoolIsReusedAcrossBatches) {
  // Every batch runs its shards on the engine's one pool (4 sampling
  // tasks per batch), whose task count, reported after each merge, grows
  // across batches instead of dying with a per-batch pool.
  const Graph g = GenerateBarabasiAlbert(100, 3);
  auto tasks_run = [] {
    const MetricsSnapshot s = MetricsRegistry::Default().Snapshot();
    const CounterSample* c = s.FindCounter("opim.pool.tasks_run");
    return c != nullptr ? c->value : 0;
  };
  TwoPoolEngine engine(g, GetParam(), {}, 4);
  const uint64_t tasks_before = tasks_run();
  for (uint64_t seed : {1, 2, 3}) FillR1(&engine, 200, seed);
  EXPECT_EQ(engine.r1().num_sets(), 600u);
  if (OPIM_TELEMETRY_ENABLED) {
    EXPECT_GE(tasks_run(), tasks_before + 12);
  }
}

TEST_P(TwoPoolEngineBatchTest, IncrementalBatchesMatchOneShot) {
  // Growing a pool across batches (the doubling pattern RunOpimC uses)
  // appends each batch after the last: the grown pool holds exactly the
  // sets each batch samples on its own, in batch order.
  const Graph g = GenerateBarabasiAlbert(150, 4);
  TwoPoolEngine grown(g, GetParam(), {}, 2);
  FillR1(&grown, 300, 5);
  FillR1(&grown, 300, 6);
  TwoPoolEngine first(g, GetParam(), {}, 2), second(g, GetParam(), {}, 2);
  FillR1(&first, 300, 5);
  FillR1(&second, 300, 6);
  const RRCollection& pool = grown.r1();
  ASSERT_EQ(pool.num_sets(), 600u);
  EXPECT_EQ(pool.total_size(),
            first.r1().total_size() + second.r1().total_size());
  EXPECT_EQ(pool.total_edges_examined(), first.r1().total_edges_examined() +
                                             second.r1().total_edges_examined());
  for (RRId id = 0; id < 300; ++id) {
    EXPECT_EQ(pool.DecodeSet(id), first.r1().DecodeSet(id)) << "set " << id;
    EXPECT_EQ(pool.DecodeSet(300 + id), second.r1().DecodeSet(id))
        << "set " << 300 + id;
  }
  for (NodeId v = 0; v < pool.num_nodes(); ++v) {
    const std::span<const RRId> head = first.r1().Covering(v);
    std::vector<RRId> want(head.begin(), head.end());
    for (RRId id : second.r1().Covering(v)) want.push_back(300 + id);
    EXPECT_TRUE(std::ranges::equal(pool.Covering(v), want)) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(BothModels, TwoPoolEngineBatchTest,
                         ::testing::Values(DiffusionModel::kIndependentCascade,
                                           DiffusionModel::kLinearThreshold),
                         [](const auto& info) {
                           return DiffusionModelName(info.param);
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
    RRCollection want(g.num_nodes());
    SerialOracle(g, DiffusionModel::kIndependentCascade, {}, 1, 1,
                 seed_for(pool), &want);
    ExpectSamePool(pool == 0 ? engine.r1() : engine.r2(), want);
  }
  engine.FloorEmptyPools(&cancelled, seed_for);  // pools no longer empty
  EXPECT_EQ(engine.r1().num_sets(), 1u);
}

TEST(TwoPoolEngineTest, CertificateMatchesTheBoundsModule) {
  // One certificate per traced size, ascending, each equal to a direct
  // evaluation of the bounds at that size, and k's last.
  const Graph g = GenerateBarabasiAlbert(300, 4);
  TwoPoolEngine engine(g, DiffusionModel::kIndependentCascade, {}, 1);
  engine.Stage(3000, 1, 3000, 2, nullptr, /*speculative=*/false);
  engine.Merge(nullptr);
  const GreedyResult greedy = engine.Select(5, {2, 1});
  const uint32_t sizes[] = {1, 2, 5};
  const double d1 = 0.01, d2 = 0.02;
  for (const BoundKind kind :
       {BoundKind::kBasic, BoundKind::kImproved, BoundKind::kLeskovec}) {
    const std::vector<TwoPoolEngine::Certificate> certs =
        engine.Certify(greedy, kind, d1, d2);
    ASSERT_EQ(certs.size(), 3u);
    for (size_t c = 0; c < certs.size(); ++c) {
      const TwoPoolEngine::Certificate& cert = certs[c];
      const uint32_t j = sizes[c];
      EXPECT_EQ(cert.k, j);
      const uint64_t lambda2 = engine.r2().CoverageOf(
          std::span<const NodeId>(greedy.seeds).first(j));
      EXPECT_EQ(cert.lambda2, lambda2);
      EXPECT_EQ(cert.sigma_lower, SigmaLower(lambda2, engine.r2().num_sets(),
                                             engine.scale(), d2));
      EXPECT_EQ(cert.sigma_upper,
                SigmaUpper(kind, greedy, engine.r1().num_sets(),
                           engine.scale(), d1, j));
      EXPECT_EQ(cert.alpha, ApproxRatio(cert.sigma_lower, cert.sigma_upper));
    }
    EXPECT_EQ(certs.back().sigma_upper, engine.UpperBound(greedy, kind, d1));
  }
  // Untraced, the one certificate is k's under the basic bound.
  const GreedyResult plain = engine.Select(5);
  const std::vector<TwoPoolEngine::Certificate> certs =
      engine.Certify(plain, BoundKind::kBasic, d1, d2);
  ASSERT_EQ(certs.size(), 1u);
  EXPECT_EQ(certs[0].k, 5u);
  EXPECT_EQ(certs[0].lambda2, engine.r2().CoverageOf(plain.seeds));
  EXPECT_EQ(certs[0].sigma_upper,
            SigmaUpper(BoundKind::kBasic, plain, engine.r1().num_sets(),
                       engine.scale(), d1));
}

}  // namespace
}  // namespace opim
