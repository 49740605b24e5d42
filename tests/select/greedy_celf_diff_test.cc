// Differential test pinning SelectGreedyCelf to the reference oracle
// SelectGreedy: identical seeds, coverage, and (in trace mode) identical
// coverage_at / topk_marginal_at arrays across randomized collections
// that vary n, θ, k, saturation, and tie density. Also cross-checks the
// partial-copy TopSums inside SelectGreedy's trace against a brute-force
// full sort, so the nonzero-only copy provably changes no trace value.
// The banded cases use pools large against 4k, where CELF starts from a
// high member-count band and admits lower ones, and trace every seed-set
// size 1..k against brute-force top-j sums.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "rrset/rr_collection.h"
#include "select/greedy.h"
#include "support/random.h"

namespace opim {
namespace {

struct DiffCase {
  uint32_t n;
  uint32_t num_sets;
  uint32_t max_set_len;  // small lengths over small n => many gain ties
  uint32_t k;
  uint64_t seed;
};

RRCollection MakeRandomCollection(const DiffCase& c) {
  Rng rng(c.seed);
  RRCollection rr(c.n);
  std::vector<NodeId> s;
  for (uint32_t i = 0; i < c.num_sets; ++i) {
    s.clear();
    const uint32_t len = 1 + rng.UniformBelow(c.max_set_len);
    for (uint32_t j = 0; j < len; ++j) {
      s.push_back(static_cast<NodeId>(rng.UniformBelow(c.n)));
    }
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    rr.AddSet(s, len);
  }
  return rr;
}

/// Brute-force Σ of the k largest marginals: full copy + full sort.
uint64_t BruteTopKSum(const std::vector<uint64_t>& counts, uint32_t k) {
  std::vector<uint64_t> sorted = counts;
  std::sort(sorted.begin(), sorted.end(), std::greater<uint64_t>());
  uint64_t total = 0;
  for (uint32_t i = 0; i < k && i < sorted.size(); ++i) total += sorted[i];
  return total;
}

/// Recomputes the greedy trace from scratch with brute-force helpers,
/// given the (already verified identical) seed sequence.
void ExpectTraceMatchesBruteForce(const RRCollection& rr, uint32_t k,
                                  const GreedyResult& r) {
  const uint32_t n = rr.num_nodes();
  std::vector<uint64_t> counts(n, 0);
  for (NodeId v = 0; v < n; ++v) counts[v] = rr.CoveringCount(v);
  std::vector<char> covered(rr.num_sets(), 0);

  ASSERT_EQ(r.seeds.size(), static_cast<size_t>(k));  // k pre-clamped
  ASSERT_EQ(r.coverage_at.size(), static_cast<size_t>(k) + 1);
  ASSERT_EQ(r.topk_marginal_at.size(), static_cast<size_t>(k) + 1);
  // Replaying filler seeds past saturation is harmless (zero marginals),
  // so every prefix 0..k checks against the same recurrence.
  uint64_t coverage = 0;
  for (uint32_t i = 0; i < k; ++i) {
    EXPECT_EQ(r.coverage_at[i], coverage) << "prefix " << i;
    EXPECT_EQ(r.topk_marginal_at[i], BruteTopKSum(counts, k))
        << "prefix " << i;
    const NodeId s = r.seeds[i];
    coverage += counts[s];
    for (RRId id : rr.Covering(s)) {
      if (covered[id]) continue;
      covered[id] = 1;
      rr.ForEachMember(id, [&](NodeId w) { --counts[w]; });
    }
  }
  EXPECT_EQ(r.coverage_at[k], coverage);
  EXPECT_EQ(r.coverage_at[k], r.coverage);
  EXPECT_EQ(r.topk_marginal_at[k], BruteTopKSum(counts, k));
}

// n, sets, max_len, k, seed — spanning dense ties (tiny n, many sets),
// saturation (k near or above what coverage supports), k > n, single
// set, and larger sparse instances.
const DiffCase kCases[] = {
    {8, 40, 3, 3, 1},      {8, 40, 3, 8, 2},     {12, 5, 2, 10, 3},
    {30, 200, 4, 8, 4},    {30, 200, 4, 30, 5},  {50, 20, 2, 15, 6},
    {100, 800, 6, 12, 7},  {100, 800, 6, 50, 8}, {3, 100, 3, 3, 9},
    {200, 1500, 5, 25, 10}, {16, 64, 2, 16, 11}, {64, 10, 4, 40, 12},
};

TEST(GreedyCelfDiffTest, NoTraceMatchesOracle) {
  for (const DiffCase& c : kCases) {
    RRCollection rr = MakeRandomCollection(c);
    GreedyResult ref = SelectGreedy(rr, c.k);
    GreedyResult celf = SelectGreedyCelf(rr, c.k);
    EXPECT_EQ(ref.seeds, celf.seeds) << "seed " << c.seed;
    EXPECT_EQ(ref.coverage, celf.coverage) << "seed " << c.seed;
    EXPECT_TRUE(celf.coverage_at.empty());
    EXPECT_TRUE(celf.topk_marginal_at.empty());
  }
}

TEST(GreedyCelfDiffTest, TraceMatchesOracleExactly) {
  for (const DiffCase& c : kCases) {
    RRCollection rr = MakeRandomCollection(c);
    GreedyResult ref = SelectGreedy(rr, c.k, {c.k});
    GreedyResult celf = SelectGreedyCelf(rr, c.k, {c.k});
    EXPECT_EQ(ref.seeds, celf.seeds) << "seed " << c.seed;
    EXPECT_EQ(ref.coverage, celf.coverage) << "seed " << c.seed;
    EXPECT_EQ(ref.coverage_at, celf.coverage_at) << "seed " << c.seed;
    EXPECT_EQ(ref.topk_marginal_at, celf.topk_marginal_at)
        << "seed " << c.seed;
  }
}

TEST(GreedyCelfDiffTest, TraceMatchesBruteForceRecomputation) {
  for (const DiffCase& c : kCases) {
    RRCollection rr = MakeRandomCollection(c);
    const uint32_t k = std::min(c.k, c.n);
    GreedyResult ref = SelectGreedy(rr, k, {k});
    ExpectTraceMatchesBruteForce(rr, k, ref);
    GreedyResult celf = SelectGreedyCelf(rr, k, {k});
    ExpectTraceMatchesBruteForce(rr, k, celf);
  }
}

TEST(GreedyCelfDiffTest, TraceModeDoesNotPerturbSeeds) {
  // The trace must be observe-only: same seeds/coverage as without.
  for (const DiffCase& c : kCases) {
    RRCollection rr = MakeRandomCollection(c);
    GreedyResult plain = SelectGreedyCelf(rr, c.k);
    GreedyResult traced = SelectGreedyCelf(rr, c.k, {c.k});
    EXPECT_EQ(plain.seeds, traced.seeds) << "seed " << c.seed;
    EXPECT_EQ(plain.coverage, traced.coverage) << "seed " << c.seed;
  }
}

TEST(GreedyCelfDiffTest, AllTiedGainsPickAscendingIds) {
  // Every node covers exactly one distinct set: total tie on every pick.
  const uint32_t n = 10;
  RRCollection rr(n);
  for (NodeId v = 0; v < n; ++v) rr.AddSet(std::vector<NodeId>{v}, 1);
  GreedyResult ref = SelectGreedy(rr, 6, {6});
  GreedyResult celf = SelectGreedyCelf(rr, 6, {6});
  EXPECT_EQ(ref.seeds, celf.seeds);
  EXPECT_EQ((std::vector<NodeId>{0, 1, 2, 3, 4, 5}), celf.seeds);
  EXPECT_EQ(ref.topk_marginal_at, celf.topk_marginal_at);
}

TEST(GreedyCelfDiffTest, SaturationPadsTraceIdentically) {
  RRCollection rr(6);
  rr.AddSet(std::vector<NodeId>{2}, 1);
  rr.AddSet(std::vector<NodeId>{2, 3}, 1);
  const uint32_t k = 5;
  GreedyResult ref = SelectGreedy(rr, k, {k});
  GreedyResult celf = SelectGreedyCelf(rr, k, {k});
  EXPECT_EQ(ref.seeds, celf.seeds);
  EXPECT_EQ(ref.coverage_at, celf.coverage_at);
  EXPECT_EQ(ref.topk_marginal_at, celf.topk_marginal_at);
  ASSERT_EQ(celf.coverage_at.size(), static_cast<size_t>(k) + 1);
  EXPECT_EQ(celf.coverage_at.back(), 2u);
  EXPECT_EQ(celf.topk_marginal_at.back(), 0u);
}

// --- Banded selection ---------------------------------------------------
//
// CELF tracks only the nodes of the highest member-count band holding 4k
// of them, and admits the next band down when a pick or a prefix's top-k
// sum could depend on it. These pools make that happen: many nodes
// against k, popularity skewed toward a few hubs scattered over the ids,
// and long overlapping sets whose picks collapse the hubs' marginals.

/// Popularity rank -> id through a seeded shuffle, so hubs are not the
/// small ids the tie-break favours.
std::vector<NodeId> ShuffledIds(uint32_t n, Rng* rng) {
  std::vector<NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), NodeId{0});
  for (uint32_t i = n; i > 1; --i) {
    std::swap(ids[i - 1], ids[rng->UniformBelow(i)]);
  }
  return ids;
}

/// θ sets of length [min_len, max_len]; a member's popularity rank is
/// n·u^skew for uniform u.
RRCollection MakeSkewedCollection(uint32_t n, uint32_t num_sets,
                                  uint32_t min_len, uint32_t max_len,
                                  double skew, uint64_t seed) {
  Rng rng(seed);
  const std::vector<NodeId> id_of = ShuffledIds(n, &rng);
  RRCollection rr(n);
  std::vector<NodeId> s;
  for (uint32_t i = 0; i < num_sets; ++i) {
    s.clear();
    const uint32_t len = min_len + rng.UniformBelow(max_len - min_len + 1);
    for (uint32_t j = 0; j < len; ++j) {
      const auto rank = static_cast<uint32_t>(
          n * std::pow(rng.UniformDouble(), skew));
      s.push_back(id_of[std::min(rank, n - 1)]);
    }
    rr.AddSet(s, len);
  }
  return rr;
}

/// Σ of the j largest of `values`, for j = 0..k.
std::vector<uint64_t> TopJSums(std::vector<uint64_t> values, uint32_t k) {
  std::sort(values.begin(), values.end(), std::greater<uint64_t>());
  std::vector<uint64_t> sums(k + 1, 0);
  for (uint32_t j = 1; j <= k; ++j) {
    sums[j] = sums[j - 1] + (j <= values.size() ? values[j - 1] : 0);
  }
  return sums;
}

/// CELF against the oracle untraced, traced at k (what the engine runs)
/// and traced at every size 1..k; each traced column must also hold the
/// brute-force top-j marginal sums of the oracle's prefixes.
void ExpectBandedCelfMatchesOracle(const RRCollection& rr, uint32_t k,
                                   const std::string& label) {
  const uint32_t n = rr.num_nodes();
  const uint32_t kk = std::min(k, n);
  std::vector<uint32_t> all_sizes(kk);
  std::iota(all_sizes.begin(), all_sizes.end(), 1u);
  for (const std::vector<uint32_t>& trace_ks :
       {std::vector<uint32_t>{}, std::vector<uint32_t>{kk}, all_sizes}) {
    SCOPED_TRACE(label + " tracing " + std::to_string(trace_ks.size()) +
                 " sizes");
    const GreedyResult ref = SelectGreedy(rr, k, trace_ks);
    const GreedyResult celf = SelectGreedyCelf(rr, k, trace_ks);
    EXPECT_EQ(ref.seeds, celf.seeds);
    EXPECT_EQ(ref.coverage, celf.coverage);
    EXPECT_EQ(ref.trace_ks, celf.trace_ks);
    EXPECT_EQ(ref.coverage_at, celf.coverage_at);
    EXPECT_EQ(ref.topk_marginal_at, celf.topk_marginal_at);
    if (trace_ks.empty()) continue;

    ASSERT_EQ(celf.trace_ks, trace_ks);
    std::vector<uint64_t> marginals(n);
    for (NodeId v = 0; v < n; ++v) marginals[v] = rr.CoveringCount(v);
    std::vector<char> covered(rr.num_sets(), 0);
    for (uint32_t i = 0; i <= kk; ++i) {
      const std::vector<uint64_t> sums = TopJSums(marginals, kk);
      for (uint32_t j : trace_ks) {
        ASSERT_EQ(celf.TopMarginals(j)[i], sums[j])
            << "prefix " << i << " top-" << j;
      }
      if (i == kk) break;
      for (RRId id : rr.Covering(ref.seeds[i])) {
        if (covered[id]) continue;
        covered[id] = 1;
        rr.ForEachMember(id, [&](NodeId w) { --marginals[w]; });
      }
    }
  }
}

/// CELF band admissions so far (0 when telemetry is compiled out).
uint64_t CelfAdmissions() {
  return MetricsRegistry::Default()
      .FindOrCreateCounter("opim.select.celf_admissions")
      ->Value();
}

TEST(GreedyCelfDiffTest, BandedRandomPoolsMatchOracle) {
  // Random pools in four shapes: short sets, long overlapping sets over
  // a steep skew, saturation before k (θ < k), and mixed lengths.
  const uint64_t admissions_before = CelfAdmissions();
  for (uint64_t seed = 1; seed <= 48; ++seed) {
    Rng rng(seed * 7919);
    const uint32_t n = 50 + rng.UniformBelow(3001);
    const uint32_t k = 1 + rng.UniformBelow(std::min<uint32_t>(120, n));
    uint32_t num_sets = 1 + rng.UniformBelow(20000);
    uint32_t min_len = 1;
    uint32_t max_len = 4;
    double skew = 1.0 + 3.0 * rng.UniformDouble();
    switch (seed % 4) {
      case 1:  // long overlapping sets: marginals collapse fast
        num_sets = std::min<uint32_t>(num_sets, 3000);
        min_len = 20;
        max_len = 60;
        skew += 1.0;
        break;
      case 2:  // saturates before k picks
        num_sets = 1 + rng.UniformBelow(k);
        break;
      case 3:
        max_len = 12;
        break;
      default:
        break;
    }
    const RRCollection rr =
        MakeSkewedCollection(n, num_sets, min_len, max_len, skew, seed);
    ExpectBandedCelfMatchesOracle(
        rr, k,
        "seed " + std::to_string(seed) + " n " + std::to_string(n) +
            " sets " + std::to_string(num_sets) + " k " + std::to_string(k));
    if (HasFatalFailure()) return;
  }
#if OPIM_TELEMETRY_ENABLED
  EXPECT_GT(CelfAdmissions(), admissions_before)
      << "no pool made CELF admit a lower band";
#else
  (void)admissions_before;
#endif
}

TEST(GreedyCelfDiffTest, BandedAllTiedGains) {
  // Every node sits in four sets of its own: all gains tie at 4, one
  // band holds all n, and the picks must come out in ascending id.
  const uint32_t n = 600;
  RRCollection rr(n);
  for (int copy = 0; copy < 4; ++copy) {
    for (NodeId v = 0; v < n; ++v) rr.AddSet(std::vector<NodeId>{v}, 1);
  }
  ExpectBandedCelfMatchesOracle(rr, 25, "all tied");
  const GreedyResult celf = SelectGreedyCelf(rr, 25);
  for (NodeId i = 0; i < 25; ++i) EXPECT_EQ(celf.seeds[i], i);
}

TEST(GreedyCelfDiffTest, BandedSaturationBeforeK) {
  // k = 6 and 24 nodes sharing the same sixteen sets: band 4 holds 4k
  // nodes, so the pass starts there. One pick covers those sets; the
  // pass must then widen down to band 0 for the three singletons, and
  // pad past the fourth pick with every set covered.
  const uint32_t n = 400;
  RRCollection rr(n);
  std::vector<NodeId> shared(24);
  std::iota(shared.begin(), shared.end(), NodeId{10});
  for (int copy = 0; copy < 16; ++copy) rr.AddSet(shared, 24);
  for (NodeId v = 100; v < 103; ++v) rr.AddSet(std::vector<NodeId>{v}, 1);
  ASSERT_EQ(rr.MemberAtLeast(4).size(), 24u);
  ExpectBandedCelfMatchesOracle(rr, 6, "saturation");
  const GreedyResult celf = SelectGreedyCelf(rr, 6, {6});
  EXPECT_EQ(celf.seeds, (std::vector<NodeId>{10, 100, 101, 102, 0, 1}));
  EXPECT_EQ(celf.coverage, 16u + 3u);
  EXPECT_EQ(celf.topk_marginal_at.back(), 0u);
}

TEST(GreedyCelfDiffTest, BandedAdmissionIsForced) {
  // k = 2 and eight nodes sharing the same eight sets: band 3 holds
  // exactly 4k nodes, so the pass starts there with T = 8. The first
  // pick covers all eight sets, every tracked marginal drops to 0, and
  // the second pick (and the prefix-1 top-k sum) must admit band 2,
  // where nodes 100..139 hold five singleton sets each.
  const uint32_t n = 200;
  RRCollection rr(n);
  for (int copy = 0; copy < 8; ++copy) {
    rr.AddSet(std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6, 7}, 8);
  }
  for (int copy = 0; copy < 5; ++copy) {
    for (NodeId v = 100; v < 140; ++v) rr.AddSet(std::vector<NodeId>{v}, 1);
  }
  ASSERT_EQ(rr.MemberAtLeast(3).size(), 8u);
  const uint64_t admissions_before = CelfAdmissions();
  ExpectBandedCelfMatchesOracle(rr, 2, "forced");
  const GreedyResult celf = SelectGreedyCelf(rr, 2, {2});
  EXPECT_EQ(celf.seeds, (std::vector<NodeId>{0, 100}));
  EXPECT_EQ(celf.topk_marginal_at,
            (std::vector<uint64_t>{8 + 8, 5 + 5, 5 + 5}));
#if OPIM_TELEMETRY_ENABLED
  // Every run admits band 2: the oracle check's three and this one.
  EXPECT_GE(CelfAdmissions(), admissions_before + 4);
#else
  (void)admissions_before;
#endif
}

/// k = 2 pools whose band 3 (T = 8) holds nodes 100..107: the first
/// pick, 100, covers S1..S8, which 102 and 104..107 share in full, and
/// nodes 101 and 103 each share `shared` of them and own 8 - `shared`
/// sets more. Node 5, outside the band, owns seven singleton sets.
RRCollection MakeBoundaryPool(int shared) {
  RRCollection rr(200);
  for (int i = 0; i < 8; ++i) {
    std::vector<NodeId> s = {100, 102, 104, 105, 106, 107};
    if (i < shared) {
      s.push_back(101);
      s.push_back(103);
    }
    rr.AddSet(s, s.size());
  }
  for (int i = shared; i < 8; ++i) {
    rr.AddSet(std::vector<NodeId>{101}, 1);
    rr.AddSet(std::vector<NodeId>{103}, 1);
  }
  for (int i = 0; i < 7; ++i) rr.AddSet(std::vector<NodeId>{5}, 1);
  return rr;
}

TEST(GreedyCelfDiffTest, BandedBoundaryTiesAdmitBeforeDeciding) {
  // After pick 100, nodes 101 and 103 hold marginal T - 1 = 7, and so
  // does untracked node 5: the fresh top (7, 101) must not be taken
  // before band 2 is admitted, since (7, 5) wins the tie.
  const RRCollection tie = MakeBoundaryPool(/*shared=*/1);
  ASSERT_EQ(tie.MemberAtLeast(3).size(), 8u);
  ASSERT_TRUE(tie.MemberAtLeast(4).empty());
  ExpectBandedCelfMatchesOracle(tie, 2, "tie at T - 1");
  EXPECT_EQ(SelectGreedyCelf(tie, 2).seeds, (std::vector<NodeId>{100, 5}));
  EXPECT_EQ(SelectGreedyCelf(tie, 2, {2}).seeds,
            (std::vector<NodeId>{100, 5}));

  // Here 101 and 103 fall to T - 2 = 6: their top-2 sum (12) is not the
  // prefix's, because node 5's 7 beats them; prefix 1 must read 7 + 6.
  const RRCollection below = MakeBoundaryPool(/*shared=*/2);
  ASSERT_EQ(below.MemberAtLeast(3).size(), 8u);
  ExpectBandedCelfMatchesOracle(below, 2, "k-th at T - 2");
  const GreedyResult traced = SelectGreedyCelf(below, 2, {2});
  ASSERT_EQ(traced.topk_marginal_at.size(), 3u);
  EXPECT_EQ(traced.topk_marginal_at[1], 7u + 6u);
}

}  // namespace
}  // namespace opim
