// Differential and statistical tests for the fast sampling kernel
// (graph/sampling_view.h + the SamplingView-based RR samplers).
//
// The kernel replaces double-precision Bernoulli draws with quantized
// 32-bit reject thresholds, adds geometric skipping over high-degree
// uniform-probability nodes, reads equal-probability nodes' neighbors
// straight from the graph, and keeps per-edge thresholds and LT alias
// buckets in side arenas for the other nodes only. None of that may
// change the *distribution* being sampled beyond the documented 2^-32
// per-trial quantization error, so these tests compare the production
// kernels against straightforward double-precision reference
// implementations (the pre-view algorithms, kept verbatim here):
// mean RR-set size and per-node coverage frequencies via a two-sample
// chi-square statistic, plus exactness at the p = 0 / p = 1 boundaries
// where quantization is required to be lossless.

#include "graph/sampling_view.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "graph/graph.h"
#include "rrset/rr_sampler.h"
#include "support/alias_sampler.h"
#include "support/random.h"
#include "support/thread_pool.h"

namespace opim {
namespace {

// ---------------------------------------------------------------------------
// Double-precision reference kernels (the pre-SamplingView algorithms).
// ---------------------------------------------------------------------------

/// Reference IC RR sample: uniform root, one Bernoulli(p) double draw per
/// in-edge of every traversed node.
void ReferenceIcSample(const Graph& g, Rng& rng, std::vector<NodeId>* out) {
  out->clear();
  std::vector<char> visited(g.num_nodes(), 0);
  const NodeId root = rng.UniformBelow(g.num_nodes());
  visited[root] = 1;
  out->push_back(root);
  for (size_t head = 0; head < out->size(); ++head) {
    const NodeId u = (*out)[head];
    const auto nbrs = g.InNeighbors(u);
    const auto probs = g.InProbs(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId w = nbrs[i];
      if (visited[w]) continue;
      if (!rng.Bernoulli(probs[i])) continue;
      visited[w] = 1;
      out->push_back(w);
    }
  }
}

/// Reference LT RR sample: uniform root, double stop draw + per-node alias
/// table per walk step.
void ReferenceLtSample(const Graph& g,
                       const std::vector<AliasSampler>& in_alias, Rng& rng,
                       std::vector<NodeId>* out) {
  out->clear();
  std::vector<char> visited(g.num_nodes(), 0);
  NodeId u = rng.UniformBelow(g.num_nodes());
  for (;;) {
    if (visited[u]) break;
    visited[u] = 1;
    out->push_back(u);
    const double stay = g.InWeightSum(u);
    if (stay <= 0.0 || in_alias[u].empty()) break;
    if (rng.UniformDouble() >= stay) break;
    u = g.InNeighbors(u)[in_alias[u].Sample(rng)];
  }
}

/// A copy of `g`'s edges with per-node random in-weights scaled to sum to
/// `total`: unequal probabilities on every node with two or more
/// in-edges, still LT-feasible for total <= 1.
Graph ReweightPerNode(const Graph& g, double total, uint64_t seed) {
  GraphBuilder b(g.num_nodes());
  Rng rng(seed);
  std::vector<double> w;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.InNeighbors(v);
    w.assign(nbrs.size(), 0.0);
    double sum = 0.0;
    for (double& x : w) sum += x = 0.05 + rng.UniformDouble();
    for (size_t i = 0; i < nbrs.size(); ++i) {
      b.AddEdge(nbrs[i], v, w[i] * total / sum);
    }
  }
  return b.Build();
}

std::vector<AliasSampler> BuildReferenceAlias(const Graph& g) {
  std::vector<AliasSampler> in_alias(g.num_nodes());
  std::vector<double> weights;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto probs = g.InProbs(v);
    weights.assign(probs.begin(), probs.end());
    in_alias[v].Build(weights);
  }
  return in_alias;
}

// ---------------------------------------------------------------------------
// Statistical helpers.
// ---------------------------------------------------------------------------

/// Two-sample chi-square statistic Σ (a_i - b_i)² / (a_i + b_i) over the
/// categories with enough mass, for equal sample counts. Returns the
/// statistic and (via out-param) the degrees of freedom actually used.
double TwoSampleChiSquare(const std::vector<uint64_t>& a,
                          const std::vector<uint64_t>& b, size_t* df) {
  double stat = 0.0;
  *df = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double ai = static_cast<double>(a[i]);
    const double bi = static_cast<double>(b[i]);
    if (ai + bi < 20.0) continue;  // skip sparse categories
    const double d = ai - bi;
    stat += d * d / (ai + bi);
    ++(*df);
  }
  return stat;
}

/// Loose upper acceptance bound for a chi-square statistic with `df`
/// degrees of freedom: mean df, variance 2·df, so df + 6·sqrt(2·df) is far
/// out in the tail (one-sided p well below 1e-6 for the df used here).
double ChiSquareBound(size_t df) {
  return static_cast<double>(df) +
         6.0 * std::sqrt(2.0 * static_cast<double>(df));
}

struct CoverageStats {
  std::vector<uint64_t> node_hits;  // per-node coverage count
  double mean_size = 0.0;
};

template <typename SampleFn>
CoverageStats Collect(uint32_t n, int samples, SampleFn&& sample) {
  CoverageStats s;
  s.node_hits.assign(n, 0);
  std::vector<NodeId> out;
  uint64_t total = 0;
  for (int i = 0; i < samples; ++i) {
    sample(&out);
    total += out.size();
    for (const NodeId v : out) ++s.node_hits[v];
  }
  s.mean_size = static_cast<double>(total) / samples;
  return s;
}

// ---------------------------------------------------------------------------
// Quantization unit tests.
// ---------------------------------------------------------------------------

TEST(QuantizeRejectThresholdTest, BoundariesAreExact) {
  EXPECT_EQ(QuantizeRejectThreshold(1.0), 0u);
  EXPECT_EQ(QuantizeRejectThreshold(1.5), 0u);
  EXPECT_EQ(QuantizeRejectThreshold(0.0), SamplingView::kAlwaysReject);
  EXPECT_EQ(QuantizeRejectThreshold(-0.5), SamplingView::kAlwaysReject);
}

TEST(QuantizeRejectThresholdTest, InteriorErrorWithinOneUlp32) {
  Rng rng(404);
  for (int i = 0; i < 10000; ++i) {
    const double p = rng.UniformDouble();
    if (p <= 0.0 || p >= 1.0) continue;
    const uint32_t rej = QuantizeRejectThreshold(p);
    // Keep probability implied by the threshold: (2^32 - rej) / 2^32.
    const double implied =
        (0x1.0p32 - static_cast<double>(rej)) * 0x1.0p-32;
    EXPECT_NEAR(implied, p, 0x1.0p-32) << "p=" << p;
  }
}

TEST(QuantizeRejectThresholdTest, HalfIsTwoToThirtyOne) {
  EXPECT_EQ(QuantizeRejectThreshold(0.5), 0x80000000u);
}

// ---------------------------------------------------------------------------
// View construction tests.
// ---------------------------------------------------------------------------

TEST(SamplingViewTest, ClassifiesNodesAndDropsDeadEdges) {
  GraphBuilder b(40);
  // Node 0: 20 uniform low-probability in-edges -> kSkip.
  for (NodeId u = 1; u <= 20; ++u) b.AddEdge(u, 0, 0.05);
  // Node 1: uniform but p too large for skipping -> kPerEdge.
  for (NodeId u = 2; u <= 21; ++u) b.AddEdge(u, 1, 0.5);
  // Node 2: certain edges -> kKeepAll.
  b.AddEdge(3, 2, 1.0);
  b.AddEdge(4, 2, 1.0);
  // Node 3: mixed probabilities -> kPerEdge.
  b.AddEdge(5, 3, 0.2);
  b.AddEdge(6, 3, 0.7);
  // Node 4: only a dead edge -> compacted away, kEmpty.
  b.AddEdge(5, 4, 0.0);
  // Node 5: no in-edges at all -> kEmpty.
  // Node 6: a dead edge beside 20 equal low probabilities: explicit (its
  // probabilities differ), yet over its kept edges it still skips.
  b.AddEdge(30, 6, 0.0);
  for (NodeId u = 1; u <= 20; ++u) b.AddEdge(u, 6, 0.05);
  // Node 7: a dead edge beside a certain one -> explicit kKeepAll.
  b.AddEdge(2, 7, 0.0);
  b.AddEdge(3, 7, 1.0);
  Graph g = b.Build();
  SamplingView view(g, SamplingView::Parts::kIc);

  EXPECT_TRUE(view.has_ic());
  EXPECT_FALSE(view.has_lt());
  EXPECT_EQ(view.ic_kind(0), SamplingView::IcNodeKind::kSkip);
  EXPECT_LT(view.IcSkipInvLog(0), 0.0);  // 1/log1p(-p) < 0 for p in (0,1)
  EXPECT_EQ(view.ic_kind(1), SamplingView::IcNodeKind::kPerEdge);
  EXPECT_EQ(view.ic_kind(2), SamplingView::IcNodeKind::kKeepAll);
  EXPECT_EQ(view.ic_kind(3), SamplingView::IcNodeKind::kPerEdge);
  EXPECT_EQ(view.ic_kind(4), SamplingView::IcNodeKind::kEmpty);
  EXPECT_EQ(view.ic_kind(5), SamplingView::IcNodeKind::kEmpty);

  EXPECT_EQ(view.IcKeptEdges(0).size(), 20u);
  EXPECT_EQ(view.IcKeptEdges(4).size(), 0u);  // p = 0 edge dropped
  EXPECT_EQ(view.IcFullInDegree(4), 1u);  // cost contract still charges it
  for (const auto& e : view.IcKeptEdges(2)) EXPECT_EQ(e.rej, 0u);
  for (const auto& e : view.IcKeptEdges(1)) {
    EXPECT_EQ(e.rej, QuantizeRejectThreshold(0.5));
  }

  // Equal in-probabilities read the graph; only nodes whose
  // probabilities differ keep {neighbor, reject} pairs.
  for (NodeId v : {0u, 1u, 2u, 4u, 5u}) EXPECT_FALSE(view.IcExplicit(v));
  EXPECT_TRUE(view.IcExplicit(3));
  const auto mixed = view.IcKeptEdges(3);
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_EQ(mixed[0].nbr, 5u);
  EXPECT_EQ(mixed[0].rej, QuantizeRejectThreshold(0.2));
  EXPECT_EQ(mixed[1].nbr, 6u);
  EXPECT_EQ(mixed[1].rej, QuantizeRejectThreshold(0.7));

  EXPECT_TRUE(view.IcExplicit(6));
  EXPECT_EQ(view.ic_kind(6), SamplingView::IcNodeKind::kSkip);
  EXPECT_DOUBLE_EQ(view.IcSkipInvLog(6), 1.0 / std::log1p(-0.05));
  EXPECT_EQ(view.IcKeptEdges(6).size(), 20u);
  EXPECT_EQ(view.IcFullInDegree(6), 21u);
  EXPECT_TRUE(view.IcExplicit(7));
  EXPECT_EQ(view.ic_kind(7), SamplingView::IcNodeKind::kKeepAll);
  const auto certain = view.IcKeptEdges(7);
  ASSERT_EQ(certain.size(), 1u);
  EXPECT_EQ(certain[0].nbr, 3u);
  EXPECT_EQ(view.IcFullInDegree(7), 2u);
}

TEST(SamplingViewTest, SkipThresholdRespectsDegreeAndProbability) {
  GraphBuilder b(40);
  // Degree below kSkipMinDegree stays per-edge even at small p.
  for (NodeId u = 1; u <= SamplingView::kSkipMinDegree - 1; ++u) {
    b.AddEdge(u, 0, 0.05);
  }
  Graph g = b.Build();
  SamplingView view(g, SamplingView::Parts::kIc);
  EXPECT_EQ(view.ic_kind(0), SamplingView::IcNodeKind::kPerEdge);
}

TEST(SamplingViewTest, LtArenaMatchesReferenceStopProbabilities) {
  // Weighted cascade (Σp = 1, equal weights) and per-node random weights
  // (Σp = 0.9, alias buckets in the side arena).
  const Graph wc = GenerateBarabasiAlbert(200, 3);
  const Graph graphs[] = {wc, ReweightPerNode(wc, 0.9, 17)};
  for (const Graph& g : graphs) {
    SamplingView view(g, SamplingView::Parts::kLt);
    EXPECT_TRUE(view.has_lt());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const double stay = g.InWeightSum(v);
      const auto buckets = view.LtBuckets(v);
      if (g.InDegree(v) == 0 || stay <= 0.0) {
        EXPECT_EQ(view.LtStopReject(v), SamplingView::kAlwaysReject);
        EXPECT_TRUE(buckets.empty());
        continue;
      }
      if (stay >= 1.0) {
        // Weighted cascade saturates Σ p = 1: the stop draw must be
        // elided exactly, not approximately.
        EXPECT_EQ(view.LtStopReject(v), 0u);
      } else {
        const double implied_stop =
            static_cast<double>(view.LtStopReject(v)) * 0x1.0p-32;
        EXPECT_NEAR(implied_stop, 1.0 - stay, 0x1.0p-32);
      }
      // The buckets reproduce the in-weights: bucket j keeps in-edge j's
      // neighbor with its keep mass and hands the rest to its alias.
      const auto nbrs = g.InNeighbors(v);
      const auto probs = g.InProbs(v);
      ASSERT_EQ(buckets.size(), nbrs.size());
      std::vector<double> mass(g.num_nodes(), 0.0);
      std::vector<double> expected(g.num_nodes(), 0.0);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const double deviate = static_cast<double>(buckets[i].rej) * 0x1.0p-32;
        mass[buckets[i].keep] += 1.0 - deviate;
        mass[buckets[i].alias] += deviate;
        expected[nbrs[i]] += probs[i] / stay * nbrs.size();
      }
      for (const NodeId w : nbrs) EXPECT_NEAR(mass[w], expected[w], 1e-6);
    }
  }
}

TEST(SamplingViewTest, SideArenaScalesWithExplicitEdgesOnly) {
  // Weighted cascade: every node's in-probabilities are equal, so the
  // view is one record per node and part, whatever the edge count.
  Graph wc = GenerateBarabasiAlbert(5000, 8);
  SamplingView wc_view(wc, SamplingView::Parts::kBoth);
  EXPECT_EQ(wc_view.IcSideSize(), 0u);
  EXPECT_EQ(wc_view.LtSideSize(), 0u);
  EXPECT_EQ(wc_view.MemoryFootprintBytes(),
            uint64_t{wc.num_nodes()} * (sizeof(SamplingView::IcNode) +
                                        sizeof(SamplingView::LtNode)));

  // Half the nodes take equal in-weights, half unequal ones; only the
  // unequal half may own per-edge state.
  constexpr uint32_t kNodes = 2000;
  GraphBuilder b(kNodes);
  Rng rng(23);
  uint64_t explicit_edges = 0, explicit_nodes = 0;
  for (NodeId v = 0; v < kNodes; ++v) {
    const uint32_t d = 2 + rng.UniformBelow(6);
    const bool equal = v % 2 == 0;
    for (uint32_t i = 0; i < d; ++i) {
      const double p = equal ? 0.5 / d : (i + 1) * 0.9 / (d * (d + 1) / 2);
      b.AddEdge(rng.UniformBelow(kNodes), v, p);
    }
    if (!equal) {
      explicit_edges += d;
      ++explicit_nodes;
    }
  }
  Graph g = b.Build();
  SamplingView view(g, SamplingView::Parts::kBoth);
  // IC: kept pairs plus one header per explicit node; LT: one bucket per
  // explicit in-edge.
  EXPECT_EQ(view.IcSideSize(), explicit_edges + explicit_nodes);
  EXPECT_EQ(view.LtSideSize(), explicit_edges);
  EXPECT_EQ(view.MemoryFootprintBytes(),
            uint64_t{kNodes} * (sizeof(SamplingView::IcNode) +
                                sizeof(SamplingView::LtNode)) +
                view.IcSideSize() * sizeof(SamplingView::IcEdge) +
                view.LtSideSize() * sizeof(SamplingView::LtBucket));
  for (NodeId v = 0; v < kNodes; ++v) {
    EXPECT_EQ(view.IcExplicit(v), v % 2 == 1) << "node " << v;
    EXPECT_EQ(view.LtExplicit(v), v % 2 == 1) << "node " << v;
  }
}

/// Asserts two views hold byte-identical records and side arenas.
void ExpectSameView(const SamplingView& a, const SamplingView& b) {
  const uint32_t n = a.graph().num_nodes();
  ASSERT_EQ(a.IcSideSize(), b.IcSideSize());
  ASSERT_EQ(a.LtSideSize(), b.LtSideSize());
  EXPECT_EQ(std::memcmp(a.IcNodeData(), b.IcNodeData(),
                        n * sizeof(SamplingView::IcNode)),
            0);
  EXPECT_EQ(std::memcmp(a.LtNodeData(), b.LtNodeData(),
                        n * sizeof(SamplingView::LtNode)),
            0);
  for (uint64_t i = 0; i < a.IcSideSize(); ++i) {
    ASSERT_EQ(a.IcSideData()[i].nbr, b.IcSideData()[i].nbr);
    ASSERT_EQ(a.IcSideData()[i].rej, b.IcSideData()[i].rej);
  }
  for (uint64_t i = 0; i < a.LtSideSize(); ++i) {
    ASSERT_EQ(a.LtSideData()[i].rej, b.LtSideData()[i].rej);
    ASSERT_EQ(a.LtSideData()[i].keep, b.LtSideData()[i].keep);
    ASSERT_EQ(a.LtSideData()[i].alias, b.LtSideData()[i].alias);
  }
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(a.ic_kind(v), b.ic_kind(v)) << "node " << v;
    ASSERT_EQ(a.IcFullInDegree(v), b.IcFullInDegree(v));
    ASSERT_EQ(a.LtStopReject(v), b.LtStopReject(v));
  }
}

/// A graph whose node 0 holds most in-edges (with unequal weights, so it
/// keeps side-arena state) and whose other nodes have a few each.
Graph FirstNodeHeavyGraph() {
  constexpr uint32_t kNodes = 3000;
  constexpr uint32_t kHubEdges = 120000;
  GraphBuilder b(kNodes);
  Rng rng(41);
  for (uint32_t i = 0; i < kHubEdges; ++i) {
    b.AddEdge(1 + rng.UniformBelow(kNodes - 1), 0,
              (1 + i % 3) * 0.5 / kHubEdges);
  }
  for (NodeId v = 1; v < kNodes; ++v) {
    const uint32_t d = rng.UniformBelow(4);
    for (uint32_t i = 0; i < d; ++i) {
      b.AddEdge(rng.UniformBelow(kNodes), v, (1 + i) * 0.15);
    }
  }
  return b.Build();
}

/// Eight nodes and many parallel edges: fewer nodes than the build's
/// node ranges.
Graph FewNodesManyEdgesGraph() {
  constexpr uint32_t kNodes = 8;
  constexpr uint32_t kEdgesPerNode = 50000;
  GraphBuilder b(kNodes);
  Rng rng(43);
  for (NodeId v = 0; v < kNodes; ++v) {
    for (uint32_t i = 0; i < kEdgesPerNode; ++i) {
      const double p = v % 2 == 0 ? 0.9 / kEdgesPerNode
                                  : (1 + i % 5) * 0.3 / kEdgesPerNode;
      b.AddEdge(rng.UniformBelow(kNodes), v, p);
    }
  }
  return b.Build();
}

TEST(SamplingViewTest, ParallelBuildMatchesSerialBuild) {
  // Weighted cascade (every node uniform), per-node random weights (every
  // node with two or more in-edges explicit), a graph whose first node
  // holds most in-edges, one with fewer nodes than the build's ranges,
  // and one with no edges at all.
  Graph wc = GenerateBarabasiAlbert(30000, 5);
  Graph random = ReweightPerNode(wc, 0.9, 29);
  Graph heavy = FirstNodeHeavyGraph();
  Graph few = FewNodesManyEdgesGraph();
  Graph empty = GraphBuilder(500).Build();
  for (const Graph* g : {&wc, &random, &heavy, &few, &empty}) {
    SamplingView serial(*g, SamplingView::Parts::kBoth);
    for (const unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ThreadPool pool(threads);
      SamplingView parallel(*g, SamplingView::Parts::kBoth, &pool);
      ExpectSameView(serial, parallel);
    }
  }
  ThreadPool pool(4);
  for (const Graph* g : {&random, &heavy, &few}) {
    SamplingView view(*g, SamplingView::Parts::kBoth, &pool);
    EXPECT_GT(view.IcSideSize(), 0u);
    EXPECT_GT(view.LtSideSize(), 0u);
  }
  EXPECT_TRUE(SamplingView(heavy, SamplingView::Parts::kBoth).IcExplicit(0));
}

// ---------------------------------------------------------------------------
// Samplers on the graph's memoized view must reproduce samplers on a
// freshly constructed view (the oracle) exactly.
// ---------------------------------------------------------------------------

TEST(SharedViewTest, GraphViewMatchesFreshViewBitExactly) {
  Graph g = GenerateBarabasiAlbert(500, 4);
  SamplingView fresh(g);
  for (DiffusionModel model : {DiffusionModel::kIndependentCascade,
                               DiffusionModel::kLinearThreshold}) {
    auto on_graph = MakeRRSampler(g, model);
    auto on_fresh = MakeRRSampler(fresh, model);
    Rng rng_a(77), rng_b(77);
    std::vector<NodeId> a, b;
    for (int i = 0; i < 500; ++i) {
      const uint64_t ca = on_graph->SampleInto(rng_a, &a);
      const uint64_t cb = on_fresh->SampleInto(rng_b, &b);
      ASSERT_EQ(a, b);
      ASSERT_EQ(ca, cb);
    }
  }
}

TEST(SharedViewTest, SharedRootTableMatchesOwnedWeights) {
  Graph g = GenerateBarabasiAlbert(300, 3);
  std::vector<double> weights(g.num_nodes());
  Rng wrng(5);
  for (double& w : weights) w = wrng.UniformDouble();
  SamplingView fresh(g);
  AliasSampler root_table(weights);
  auto owned = MakeRRSampler(g, DiffusionModel::kIndependentCascade, weights);
  auto shared =
      MakeRRSampler(fresh, DiffusionModel::kIndependentCascade, &root_table);
  Rng rng_a(13), rng_b(13);
  std::vector<NodeId> a, b;
  for (int i = 0; i < 500; ++i) {
    const uint64_t ca = owned->SampleInto(rng_a, &a);
    const uint64_t cb = shared->SampleInto(rng_b, &b);
    ASSERT_EQ(a, b);
    ASSERT_EQ(ca, cb);
  }
}

// ---------------------------------------------------------------------------
// Differential distribution tests vs the double-precision reference.
// ---------------------------------------------------------------------------

constexpr int kDiffSamples = 60000;

TEST(KernelDifferentialTest, IcMatchesDoublePrecisionReference) {
  // Weighted-cascade BA graph, the paper's experimental weighting: every
  // node reads its neighbors from the graph (hubs skip geometrically,
  // low in-degrees compare one shared threshold per edge). Trivalency
  // weights differ per edge, so its nodes compare per-edge thresholds
  // from the side arena.
  GenOptions trivalency;
  trivalency.scheme = WeightScheme::kTrivalency;
  const Graph graphs[] = {
      GenerateBarabasiAlbert(400, 4),
      GenerateBarabasiAlbert(400, 8, /*undirected=*/false, trivalency)};
  for (const Graph& g : graphs) {
    SCOPED_TRACE(&g == &graphs[0] ? "weighted cascade" : "trivalency");
    IcRRSampler sampler(g);
    Rng rng_new(2024);
    const CoverageStats fast = Collect(
        g.num_nodes(), kDiffSamples,
        [&](std::vector<NodeId>* out) { sampler.SampleInto(rng_new, out); });
    Rng rng_ref(4048);
    const CoverageStats ref = Collect(
        g.num_nodes(), kDiffSamples,
        [&](std::vector<NodeId>* out) { ReferenceIcSample(g, rng_ref, out); });

    EXPECT_NEAR(fast.mean_size, ref.mean_size, 0.05 * ref.mean_size);
    size_t df = 0;
    const double stat =
        TwoSampleChiSquare(fast.node_hits, ref.node_hits, &df);
    ASSERT_GT(df, 100u);  // the test must actually cover most nodes
    EXPECT_LT(stat, ChiSquareBound(df)) << "df=" << df;
  }
}

TEST(KernelDifferentialTest, LtMatchesDoublePrecisionReference) {
  // Weighted cascade (uniform in-neighbor steps read from the graph) and
  // per-node random weights with Σp = 0.9 (alias buckets from the side
  // arena, plus a stop draw at every step).
  const Graph wc = GenerateBarabasiAlbert(400, 4);
  const Graph graphs[] = {wc, ReweightPerNode(wc, 0.9, 31)};
  for (const Graph& g : graphs) {
    SCOPED_TRACE(&g == &graphs[0] ? "weighted cascade" : "random weights");
    const std::vector<AliasSampler> ref_alias = BuildReferenceAlias(g);
    LtRRSampler sampler(g);
    Rng rng_new(9090);
    const CoverageStats fast = Collect(
        g.num_nodes(), kDiffSamples,
        [&](std::vector<NodeId>* out) { sampler.SampleInto(rng_new, out); });
    Rng rng_ref(1818);
    const CoverageStats ref = Collect(
        g.num_nodes(), kDiffSamples, [&](std::vector<NodeId>* out) {
          ReferenceLtSample(g, ref_alias, rng_ref, out);
        });

    EXPECT_NEAR(fast.mean_size, ref.mean_size, 0.05 * ref.mean_size);
    size_t df = 0;
    const double stat =
        TwoSampleChiSquare(fast.node_hits, ref.node_hits, &df);
    ASSERT_GT(df, 100u);
    EXPECT_LT(stat, ChiSquareBound(df)) << "df=" << df;
  }
}

TEST(KernelDifferentialTest, GeometricSkipMatchesNaiveScanPerPosition) {
  // A single high-degree uniform-p node: the view must classify it kSkip,
  // and the skipping kernel's per-position edge inclusion frequencies must
  // match a naive Bernoulli scan (the positions are iid, so any positional
  // bias in the skip arithmetic shows up here).
  constexpr uint32_t kDeg = 64;
  constexpr double kP = 0.05;
  GraphBuilder b(kDeg + 1);
  for (NodeId u = 1; u <= kDeg; ++u) b.AddEdge(u, 0, kP);
  Graph g = b.Build();
  SamplingView view(g, SamplingView::Parts::kIc);
  ASSERT_EQ(view.ic_kind(0), SamplingView::IcNodeKind::kSkip);

  constexpr int kTrials = 120000;
  IcRRSampler sampler(view);
  Rng rng(31337);
  std::vector<uint64_t> skip_hits(g.num_nodes(), 0);
  std::vector<NodeId> out;
  int rooted_at_hub = 0;
  for (int i = 0; i < kTrials; ++i) {
    sampler.SampleInto(rng, &out);
    if (out[0] != 0) continue;  // only RR sets rooted at the hub traverse
    ++rooted_at_hub;
    for (const NodeId v : out) {
      if (v != 0) ++skip_hits[v];
    }
  }
  ASSERT_GT(rooted_at_hub, 1000);

  Rng ref_rng(73313);
  std::vector<uint64_t> ref_hits(g.num_nodes(), 0);
  for (int i = 0; i < rooted_at_hub; ++i) {
    for (NodeId u = 1; u <= kDeg; ++u) {
      if (ref_rng.Bernoulli(kP)) ++ref_hits[u];
    }
  }

  size_t df = 0;
  const double stat = TwoSampleChiSquare(skip_hits, ref_hits, &df);
  ASSERT_EQ(df, kDeg);
  EXPECT_LT(stat, ChiSquareBound(df)) << "df=" << df;

  // Aggregate inclusion frequency must match p closely too.
  uint64_t total = 0;
  for (const uint64_t h : skip_hits) total += h;
  const double freq =
      static_cast<double>(total) / (static_cast<double>(rooted_at_hub) * kDeg);
  EXPECT_NEAR(freq, kP, 0.005);
}

TEST(KernelDifferentialTest, GeometricSkipDistributionHasRightMoments) {
  // Geometric(p) on {0, 1, ...}: mean (1-p)/p and P(X = 0) = p.
  constexpr double kP = 0.05;
  const double inv = 1.0 / std::log1p(-kP);
  Rng rng(5150);
  constexpr int kTrials = 200000;
  double sum = 0.0;
  int zeros = 0;
  for (int i = 0; i < kTrials; ++i) {
    const uint64_t s = rng.GeometricSkip(inv);
    sum += static_cast<double>(s);
    zeros += s == 0;
  }
  const double mean = sum / kTrials;
  EXPECT_NEAR(mean, (1.0 - kP) / kP, 0.25);
  EXPECT_NEAR(static_cast<double>(zeros) / kTrials, kP, 0.003);
}

}  // namespace
}  // namespace opim
