// Golden regression pins: exact outputs of the randomized pipeline for
// fixed seeds. These WILL break on any change to RNG consumption order,
// sampler traversal order, or greedy tie-breaking — that is their job:
// such changes silently alter every experiment, so they must be loud and
// deliberate. When one fires intentionally, re-pin the constants from the
// failing output.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baselines/borgs_online.h"
#include "baselines/dssa_fix.h"
#include "baselines/imm.h"
#include "baselines/ssa_fix.h"
#include "baselines/tim.h"
#include "core/online_maximizer.h"
#include "core/opim_c.h"
#include "gen/generators.h"
#include "harness/datasets.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "support/random.h"

namespace opim {
namespace {

TEST(GoldenTest, RngStream) {
  Rng rng(12345, 1);
  // First draws of the PCG32 stream for this (seed, stream) pair.
  EXPECT_EQ(rng.NextU32(), 3422482905u);
  EXPECT_EQ(rng.NextU32(), 2501366500u);
  EXPECT_EQ(rng.NextU32(), 1304795587u);
}

TEST(GoldenTest, TinyGraphShape) {
  Graph g = MakeTinyTestGraph(256, 1);
  EXPECT_EQ(g.num_nodes(), 256u);
  EXPECT_EQ(g.num_edges(), 1014u);
  GraphStats s = ComputeStats(g);
  EXPECT_EQ(s.max_in_degree, 325u);
}

TEST(GoldenTest, IcSamplerFirstSets) {
  Graph g = MakeTinyTestGraph(256, 1);
  IcRRSampler sampler(g);
  Rng rng(7);
  std::vector<NodeId> out;
  uint64_t cost1 = sampler.SampleInto(rng, &out);
  const std::vector<NodeId> first = out;
  uint64_t cost2 = sampler.SampleInto(rng, &out);
  // Pin sizes and costs rather than full contents (compact but specific).
  EXPECT_EQ(first.size() + out.size(), 2u);
  EXPECT_EQ(cost1 + cost2, 2u);
}

/// FNV-1a over the size, members and cost of the first 2 000 RR sets
/// `sampler` draws from `seed`: pins the exact RR stream, not just its
/// shape, so any change to the kernels' RNG consumption or traversal
/// order fails loudly.
uint64_t HashFirstSets(RRSampler& sampler, uint64_t seed) {
  uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  Rng rng(seed);
  std::vector<NodeId> out;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t cost = sampler.SampleInto(rng, &out);
    mix(out.size());
    for (const NodeId v : out) mix(v);
    mix(cost);
  }
  return h;
}

/// A small LT-feasible graph that mixes every per-node probability
/// pattern the sampling view distinguishes: zero in-degree, equal
/// probabilities (weighted-cascade-like, small enough to skip, all zero,
/// certain), unequal ones, and a p = 0 edge beside equal positive ones —
/// with Σp = 1, Σp < 1 and Σp = 0 under LT.
Graph MakeMixedProbabilityGraph() {
  constexpr uint32_t kNodes = 270;
  GraphBuilder b(kNodes);
  Rng rng(2718);
  const auto src = [&](NodeId v) {
    NodeId u = rng.UniformBelow(kNodes);
    while (u == v) u = rng.UniformBelow(kNodes);
    return u;
  };
  for (NodeId v = 0; v < kNodes; ++v) {
    switch (v % 9) {
      case 0:  // no in-edges
        break;
      case 1: {  // equal 1/d, Σp = 1
        const uint32_t d = 1 + rng.UniformBelow(5);
        for (uint32_t i = 0; i < d; ++i) b.AddEdge(src(v), v, 1.0 / d);
        break;
      }
      case 2:  // 20 equal small probabilities, Σp = 0.8
        for (int i = 0; i < 20; ++i) b.AddEdge(src(v), v, 0.04);
        break;
      case 3:  // unequal, Σp = 0.6
        b.AddEdge(src(v), v, 0.1);
        b.AddEdge(src(v), v, 0.3);
        b.AddEdge(src(v), v, 0.2);
        break;
      case 4:  // p = 0 beside two equal probabilities, Σp = 0.5
        b.AddEdge(src(v), v, 0.25);
        b.AddEdge(src(v), v, 0.0);
        b.AddEdge(src(v), v, 0.25);
        break;
      case 5:  // p = 0 beside 18 equal small probabilities, Σp = 0.9
        b.AddEdge(src(v), v, 0.0);
        for (int i = 0; i < 18; ++i) b.AddEdge(src(v), v, 0.05);
        break;
      case 6:  // p = 0 beside a certain edge, Σp = 1
        b.AddEdge(src(v), v, 1.0);
        b.AddEdge(src(v), v, 0.0);
        break;
      case 7:  // only dead edges, Σp = 0
        b.AddEdge(src(v), v, 0.0);
        b.AddEdge(src(v), v, 0.0);
        break;
      case 8:  // equal 0.5 pair, Σp = 1
        b.AddEdge(src(v), v, 0.5);
        b.AddEdge(src(v), v, 0.5);
        break;
    }
  }
  return b.Build();
}

TEST(GoldenTest, IcStreamWeightedCascade) {
  // Hubs skip geometrically, low in-degrees compare per edge, in-degree 1
  // keeps all, and the first nodes have no in-edges.
  Graph g = GenerateBarabasiAlbert(2000, 3);
  IcRRSampler sampler(g);
  EXPECT_EQ(HashFirstSets(sampler, 41), 10926847962696418369ULL);
}

TEST(GoldenTest, LtStreamWeightedCascade) {
  Graph g = GenerateBarabasiAlbert(2000, 3);
  LtRRSampler sampler(g);
  EXPECT_EQ(HashFirstSets(sampler, 42), 2428384199194139650ULL);
}

TEST(GoldenTest, IcStreamTrivalency) {
  GenOptions opt;
  opt.scheme = WeightScheme::kTrivalency;
  Graph g = GenerateBarabasiAlbert(2000, 3, /*undirected=*/false, opt);
  IcRRSampler sampler(g);
  EXPECT_EQ(HashFirstSets(sampler, 43), 6918058776779905907ULL);
}

TEST(GoldenTest, IcStreamMixedProbabilities) {
  Graph g = MakeMixedProbabilityGraph();
  IcRRSampler sampler(g);
  EXPECT_EQ(HashFirstSets(sampler, 44), 4165232860309789726ULL);
}

TEST(GoldenTest, LtStreamMixedProbabilities) {
  Graph g = MakeMixedProbabilityGraph();
  LtRRSampler sampler(g);
  EXPECT_EQ(HashFirstSets(sampler, 45), 8237185926432852036ULL);
}

TEST(GoldenTest, OnlineMaximizerSnapshot) {
  // A one-thread session: one engine stage of two one-shard batches.
  Graph g = MakeTinyTestGraph(256, 1);
  OnlineMaximizer om(g, DiffusionModel::kIndependentCascade, 4, 0.05, 99);
  om.Advance(4000);
  OnlineSnapshot snap = om.Query(BoundKind::kImproved);
  EXPECT_EQ(snap.seeds, (std::vector<NodeId>{254, 234, 206, 221}));
  EXPECT_NEAR(snap.alpha, 0.696772, 1e-5);
  EXPECT_EQ(snap.lambda1, 154u);
  EXPECT_EQ(snap.lambda2, 167u);
}

TEST(GoldenTest, OpimCRun) {
  Graph g = MakeTinyTestGraph(256, 1);
  OpimCOptions o;
  o.seed = 5;
  OpimCResult r = RunOpimC(g, DiffusionModel::kLinearThreshold, 3, 0.25,
                           0.05, o);
  EXPECT_EQ(r.iterations, 7u);
  EXPECT_EQ(r.num_rr_sets, 6272u);
  EXPECT_EQ(r.seeds, (std::vector<NodeId>{206, 254, 224}));
  EXPECT_NEAR(r.alpha, 0.506283, 1e-5);
}

/// Seed sets of every baseline the paper compares against, each the CELF
/// selection over the baseline's own RR pools.
struct BaselineSeeds {
  std::vector<NodeId> imm, tim, ssa_fix, dssa_fix, borgs;
};

BaselineSeeds RunBaselines(const Graph& g, DiffusionModel model) {
  constexpr uint32_t kK = 5;
  constexpr double kEps = 0.3;
  constexpr double kDelta = 0.05;
  constexpr uint64_t kSeed = 3;
  BaselineSeeds s;
  ImmOptions imm;
  imm.seed = kSeed;
  s.imm = RunImm(g, model, kK, kEps, kDelta, imm).seeds;
  TimOptions tim;
  tim.seed = kSeed;
  s.tim = RunTim(g, model, kK, kEps, kDelta, tim).seeds;
  SsaFixOptions ssa;
  ssa.seed = kSeed;
  s.ssa_fix = RunSsaFix(g, model, kK, kEps, kDelta, ssa).seeds;
  DssaFixOptions dssa;
  dssa.seed = kSeed;
  s.dssa_fix = RunDssaFix(g, model, kK, kEps, kDelta, dssa).seeds;
  BorgsOnline borgs(g, model, kK, kSeed);
  borgs.Advance(4000);
  s.borgs = borgs.Query().seeds;
  return s;
}

TEST(GoldenTest, BaselineSeeds) {
  Graph g = MakeTinyTestGraph(512, 2);
  using Seeds = std::vector<NodeId>;
  const BaselineSeeds ic = RunBaselines(g, DiffusionModel::kIndependentCascade);
  EXPECT_EQ(ic.imm, (Seeds{509, 423, 316, 467, 502}));
  EXPECT_EQ(ic.tim, (Seeds{509, 423, 316, 345, 467}));
  EXPECT_EQ(ic.ssa_fix, (Seeds{509, 423, 345, 316, 467}));
  EXPECT_EQ(ic.dssa_fix, (Seeds{509, 345, 316, 289, 423}));
  EXPECT_EQ(ic.borgs, (Seeds{509, 345, 475, 383, 467}));
  const BaselineSeeds lt = RunBaselines(g, DiffusionModel::kLinearThreshold);
  EXPECT_EQ(lt.imm, (Seeds{509, 423, 316, 345, 467}));
  EXPECT_EQ(lt.tim, (Seeds{509, 423, 316, 345, 467}));
  EXPECT_EQ(lt.ssa_fix, (Seeds{509, 345, 423, 433, 467}));
  EXPECT_EQ(lt.dssa_fix, (Seeds{509, 423, 316, 511, 345}));
  EXPECT_EQ(lt.borgs, (Seeds{509, 345, 502, 292, 423}));
}

}  // namespace
}  // namespace opim
