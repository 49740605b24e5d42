// Node-weighted influence maximization: importance-weighted RR roots turn
// every estimator/bound into statements about σ_w(S) = Σ_v w_v·Pr[S
// activates v]. These tests pin the weighted machinery end to end.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/online_maximizer.h"
#include "core/opim_c.h"
#include "gen/generators.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"

namespace opim {
namespace {

/// Two disjoint stars with certain edges:
///   hub A = 0 -> leaves 1..10   (10 low-weight leaves)
///   hub B = 11 -> leaves 12..14 (3 high-weight leaves)
/// Unit-weight optimum for k = 1 is hub A (spread 11); with leaf weights
/// 100 on B's side the weighted optimum is hub B (σ_w = 300 + w_B).
struct TwoStars {
  Graph graph;
  std::vector<double> weights;
  static constexpr NodeId kHubA = 0;
  static constexpr NodeId kHubB = 11;
};

TwoStars MakeTwoStars() {
  GraphBuilder b(15);
  for (NodeId v = 1; v <= 10; ++v) b.AddEdge(0, v, 1.0);
  for (NodeId v = 12; v <= 14; ++v) b.AddEdge(11, v, 1.0);
  TwoStars out{b.Build(), std::vector<double>(15, 1.0)};
  for (NodeId v = 12; v <= 14; ++v) out.weights[v] = 100.0;
  return out;
}

TEST(WeightedSamplerTest, RootsFollowWeights) {
  GraphBuilder b(4);
  Graph g = b.Build();  // no edges: RR set == root
  std::vector<double> w = {1.0, 0.0, 3.0, 0.0};
  IcRRSampler sampler(g, w);
  Rng rng(1);
  std::vector<NodeId> out;
  int count0 = 0, count2 = 0;
  const int samples = 40000;
  for (int i = 0; i < samples; ++i) {
    sampler.SampleInto(rng, &out);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_TRUE(out[0] == 0 || out[0] == 2) << "zero-weight root sampled";
    (out[0] == 0 ? count0 : count2) += 1;
  }
  EXPECT_NEAR(static_cast<double>(count0) / samples, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(count2) / samples, 0.75, 0.01);
}

TEST(WeightedSamplerTest, WeightedRisIdentityHolds) {
  // W·Pr[S ∩ R ≠ ∅] == σ_w(S): check against the weighted forward
  // estimator on a random graph with random weights.
  Graph g = GenerateErdosRenyi(120, 700);
  Rng wrng(2);
  std::vector<double> w(g.num_nodes());
  double total = 0.0;
  for (double& x : w) {
    x = wrng.UniformDouble() * 5.0;
    total += x;
  }

  auto sampler = MakeRRSampler(g, DiffusionModel::kIndependentCascade, w);
  Rng rng(3);
  RRCollection rr(g.num_nodes());
  sampler->Generate(&rr, 60000, rng);

  SpreadEstimator est(g, DiffusionModel::kIndependentCascade, 2);
  std::vector<NodeId> seeds = {0, 5, 9};
  double ris = static_cast<double>(rr.CoverageOf(seeds)) * total /
               rr.num_sets();
  double mc = est.EstimateWeighted(seeds, w, 60000, 4);
  EXPECT_NEAR(ris, mc, 0.12 * std::max(mc, 1.0));
}

TEST(WeightedEstimatorTest, UnitWeightsMatchUnweighted) {
  Graph g = GenerateBarabasiAlbert(150, 3);
  SpreadEstimator est(g, DiffusionModel::kLinearThreshold, 2);
  std::vector<double> unit(g.num_nodes(), 1.0);
  std::vector<NodeId> seeds = {0, 1};
  double a = est.Estimate(seeds, 30000, 5);
  double b = est.EstimateWeighted(seeds, unit, 30000, 5);
  EXPECT_NEAR(a, b, 0.05 * a);
}

TEST(WeightedOnlineMaximizerTest, PicksWeightedOptimum) {
  TwoStars ts = MakeTwoStars();
  OnlineMaximizer om(ts.graph, DiffusionModel::kIndependentCascade, 1, 0.05,
                     ts.weights, /*seed=*/6);
  om.Advance(6000);
  OnlineSnapshot snap = om.Query(BoundKind::kImproved);
  ASSERT_EQ(snap.seeds.size(), 1u);
  EXPECT_EQ(snap.seeds[0], TwoStars::kHubB);
  // σ_w(hub B) = 3·100 + 1 = 301 of W = 312; the bound should localize it.
  EXPECT_GT(snap.sigma_lower, 200.0);
  EXPECT_GT(snap.alpha, 0.5);
}

TEST(WeightedOnlineMaximizerTest, AdvanceParallelPicksWeightedOptimum) {
  // The parallel stream samples its roots through the engine's shared
  // weighted-root table, never through the serial sampler.
  TwoStars ts = MakeTwoStars();
  OnlineMaximizer om(ts.graph, DiffusionModel::kIndependentCascade, 1, 0.05,
                     ts.weights, /*seed=*/6);
  om.AdvanceParallel(6000, 4);
  EXPECT_EQ(om.num_rr_sets(), 6000u);
  OnlineSnapshot snap = om.Query(BoundKind::kImproved);
  ASSERT_EQ(snap.seeds.size(), 1u);
  EXPECT_EQ(snap.seeds[0], TwoStars::kHubB);
  EXPECT_GT(snap.sigma_lower, 200.0);
  EXPECT_GT(snap.alpha, 0.5);
}

TEST(WeightedOnlineMaximizerTest, UnweightedPicksTheOtherHub) {
  TwoStars ts = MakeTwoStars();
  OnlineMaximizer om(ts.graph, DiffusionModel::kIndependentCascade, 1, 0.05,
                     /*seed=*/6);
  om.Advance(6000);
  OnlineSnapshot snap = om.Query(BoundKind::kImproved);
  EXPECT_EQ(snap.seeds[0], TwoStars::kHubA);
}

TEST(WeightedOnlineMaximizerTest, QueryAllUsesWeightedScale) {
  TwoStars ts = MakeTwoStars();
  OnlineMaximizer om(ts.graph, DiffusionModel::kIndependentCascade, 1, 0.05,
                     ts.weights, /*seed=*/8);
  om.Advance(6000);
  OnlineSnapshotAll snap = om.QueryAll();
  EXPECT_EQ(snap.seeds[0], TwoStars::kHubB);
  // All three bound variants certify on the weighted objective; Lemma 5.2
  // ordering is scale-invariant.
  EXPECT_GE(snap.alpha_improved, snap.alpha_basic - 1e-12);
  EXPECT_GT(snap.sigma_lower, 100.0);  // weighted σ, not node counts
}

TEST(WeightedOnlineMaximizerTest, SequentialQueriesWorkWeighted) {
  TwoStars ts = MakeTwoStars();
  OnlineMaximizer om(ts.graph, DiffusionModel::kIndependentCascade, 1, 0.05,
                     ts.weights, /*seed=*/9);
  om.Advance(4000);
  OnlineSnapshot s1 = om.QuerySequential(BoundKind::kImproved);
  OnlineSnapshot s2 = om.QuerySequential(BoundKind::kImproved);
  EXPECT_LE(s2.alpha, s1.alpha + 1e-12);
  EXPECT_EQ(om.sequential_queries_issued(), 2u);
}

TEST(WeightedOpimCTest, PicksWeightedOptimumWithGuarantee) {
  TwoStars ts = MakeTwoStars();
  OpimCOptions o;
  o.node_weights = ts.weights;
  OpimCResult r = RunOpimC(ts.graph, DiffusionModel::kIndependentCascade, 1,
                           0.2, 0.05, o);
  ASSERT_EQ(r.seeds.size(), 1u);
  EXPECT_EQ(r.seeds[0], TwoStars::kHubB);
  EXPECT_GE(r.alpha, 1.0 - 1.0 / std::exp(1.0) - 0.2);
}

TEST(WeightedOpimCTest, UnitWeightVectorMatchesDefaultFormulas) {
  // Explicit unit weights must not change the sample-size schedule.
  Graph g = GenerateBarabasiAlbert(300, 4);
  OpimCOptions unit;
  unit.node_weights.assign(g.num_nodes(), 1.0);
  unit.seed = 9;
  OpimCOptions none;
  none.seed = 9;
  OpimCResult a =
      RunOpimC(g, DiffusionModel::kIndependentCascade, 5, 0.2, 0.05, unit);
  OpimCResult b =
      RunOpimC(g, DiffusionModel::kIndependentCascade, 5, 0.2, 0.05, none);
  EXPECT_EQ(a.i_max, b.i_max);
  // Same schedule and same derived RR stream (weights only reroute root
  // sampling, and with unit weights the alias table is uniform).
  EXPECT_EQ(a.trace[0].theta1, b.trace[0].theta1);
}

}  // namespace
}  // namespace opim
