// Engine-level coverage for prefix queries (OpimCOptions::query_ks). One
// RunOpimC call with query_ks = {1, k/2, k} must answer every requested
// size from its final iteration's traced selection and certificates —
// seed prefixes of the returned set, α(k) bitwise equal to the run's own
// certificate — on both diffusion models, and the whole result (queries
// included) must be bit-identical across eager and pipelined schedules:
// speculation and the trace recording are execution accelerators, never
// behavior.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/opim_c.h"
#include "harness/datasets.h"

namespace opim {
namespace {

constexpr uint32_t kK = 10;
constexpr double kEps = 0.1;
constexpr double kDelta = 0.01;

Graph TestGraph() { return MakeTinyTestGraph(512, 3); }

std::vector<uint32_t> QueryKs() { return {1, kK / 2, kK}; }

void ExpectSameRunWithQueries(const OpimCResult& a, const OpimCResult& b) {
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.alpha, b.alpha);  // bitwise, not approximate
  EXPECT_EQ(a.num_rr_sets, b.num_rr_sets);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].k, b.queries[i].k);
    EXPECT_EQ(a.queries[i].alpha, b.queries[i].alpha);
    EXPECT_EQ(a.queries[i].sigma_lower, b.queries[i].sigma_lower);
    EXPECT_EQ(a.queries[i].sigma_upper, b.queries[i].sigma_upper);
    EXPECT_EQ(a.queries[i].seeds, b.queries[i].seeds);
  }
}

TEST(QueryKsTest, AnswersEveryRequestedSizeOnBothModels) {
  Graph g = TestGraph();
  for (const DiffusionModel model : {DiffusionModel::kIndependentCascade,
                                     DiffusionModel::kLinearThreshold}) {
    OpimCOptions o;
    o.seed = 7;
    o.num_threads = 1;
    o.query_ks = QueryKs();
    const OpimCResult r = RunOpimC(g, model, kK, kEps, kDelta, o);
    ASSERT_EQ(r.queries.size(), o.query_ks.size());
    for (size_t i = 0; i < r.queries.size(); ++i) {
      const OpimCQueryAnswer& q = r.queries[i];
      EXPECT_EQ(q.k, o.query_ks[i]);
      // Greedy prefix-consistency: the k'-answer IS the k-run's prefix.
      ASSERT_EQ(q.seeds.size(), q.k);
      for (uint32_t j = 0; j < q.k; ++j) {
        EXPECT_EQ(q.seeds[j], r.seeds[j]) << "k'=" << q.k << " pos " << j;
      }
      EXPECT_GE(q.sigma_lower, 0.0);
      EXPECT_LE(q.sigma_lower, q.sigma_upper);
      EXPECT_GE(q.alpha, 0.0);
      EXPECT_LE(q.alpha, 1.0);
    }
    // The full-size query re-derives the run's own certificate from the
    // trace: bitwise-equal α and bounds, proving zero drift between the
    // stopping rule's arithmetic and the query path.
    const OpimCQueryAnswer& full = r.queries.back();
    EXPECT_EQ(full.k, kK);
    EXPECT_EQ(full.alpha, r.alpha);
    EXPECT_EQ(full.seeds, r.seeds);
    // Monotone k': a larger prefix never lowers σ_l (more seeds cover
    // more judge sets).
    for (size_t i = 1; i < r.queries.size(); ++i) {
      EXPECT_GE(r.queries[i].sigma_lower, r.queries[i - 1].sigma_lower);
    }
  }
}

TEST(QueryKsTest, QueriesAgreeAcrossBoundKinds) {
  // The query sizes are traced under every bound kind; the answers
  // differ only through σ_upper, and kBasic's come from the basic bound
  // at each size.
  Graph g = TestGraph();
  for (const BoundKind bound :
       {BoundKind::kImproved, BoundKind::kLeskovec, BoundKind::kBasic}) {
    OpimCOptions o;
    o.seed = 11;
    o.num_threads = 1;
    o.bound = bound;
    o.query_ks = QueryKs();
    const OpimCResult r =
        RunOpimC(g, DiffusionModel::kIndependentCascade, kK, kEps, kDelta, o);
    ASSERT_EQ(r.queries.size(), o.query_ks.size());
    const OpimCQueryAnswer& full = r.queries.back();
    EXPECT_EQ(full.alpha, r.alpha) << BoundKindName(bound);
    EXPECT_EQ(full.seeds, r.seeds) << BoundKindName(bound);
  }
}

TEST(QueryKsTest, IncrementalSelectionIsBitIdenticalPipelined) {
  // 4 threads, speculative sampling on: the pipelined run answers
  // exactly what the eager schedule answers. Determinism is per (seed,
  // num_threads) — the RR stream depends on the thread count — so only
  // the schedule flips here.
  Graph g = TestGraph();
  OpimCOptions pipelined;
  pipelined.seed = 5;
  pipelined.num_threads = 4;
  pipelined.pipeline = true;
  pipelined.query_ks = QueryKs();
  OpimCOptions eager = pipelined;
  eager.pipeline = false;
  const OpimCResult a = RunOpimC(g, DiffusionModel::kIndependentCascade, kK,
                                 kEps, kDelta, pipelined);
  const OpimCResult b =
      RunOpimC(g, DiffusionModel::kIndependentCascade, kK, kEps, kDelta,
               eager);
  ExpectSameRunWithQueries(a, b);
}

TEST(QueryKsTest, NoQueriesMeansNoQuerySection) {
  Graph g = TestGraph();
  OpimCOptions o;
  o.seed = 7;
  o.num_threads = 1;
  const OpimCResult r =
      RunOpimC(g, DiffusionModel::kIndependentCascade, kK, kEps, kDelta, o);
  EXPECT_TRUE(r.queries.empty());
}

}  // namespace
}  // namespace opim
