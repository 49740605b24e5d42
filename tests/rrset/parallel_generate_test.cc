#include "rrset/parallel_generate.h"

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "support/thread_pool.h"

namespace opim {
namespace {

/// True iff both collections hold the same sets in the same order with
/// the same γ and the same inverted index.
void ExpectSameCollections(const RRCollection& a, const RRCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.total_size(), b.total_size());
  ASSERT_EQ(a.total_edges_examined(), b.total_edges_examined());
  for (RRId id = 0; id < a.num_sets(); ++id) {
    EXPECT_EQ(a.DecodeSet(id), b.DecodeSet(id)) << "set " << id;
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.DecodeCovering(v), b.DecodeCovering(v)) << "node " << v;
  }
}

class ParallelGenerateModelTest
    : public ::testing::TestWithParam<DiffusionModel> {};

TEST_P(ParallelGenerateModelTest, ProducesRequestedCount) {
  Graph g = GenerateBarabasiAlbert(200, 4);
  RRCollection rr(g.num_nodes());
  ParallelGenerate(g, GetParam(), &rr, 1000, /*seed=*/1, /*threads=*/4);
  EXPECT_EQ(rr.num_sets(), 1000u);
  EXPECT_GT(rr.total_size(), 1000u);  // roots alone give >= 1 node/set
  EXPECT_GT(rr.total_edges_examined(), 0u);
}

TEST_P(ParallelGenerateModelTest, DeterministicForFixedSeedAndThreads) {
  Graph g = GenerateBarabasiAlbert(200, 4);
  RRCollection a(g.num_nodes()), b(g.num_nodes());
  ParallelGenerate(g, GetParam(), &a, 500, 7, 3);
  ParallelGenerate(g, GetParam(), &b, 500, 7, 3);
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.total_size(), b.total_size());
  EXPECT_EQ(a.total_edges_examined(), b.total_edges_examined());
  for (RRId id = 0; id < a.num_sets(); ++id) {
    EXPECT_EQ(a.DecodeSet(id), b.DecodeSet(id)) << "set " << id;
  }
}

TEST_P(ParallelGenerateModelTest, StatisticallyEquivalentAcrossThreads) {
  // Different thread counts give different streams but the same
  // distribution: spread estimates of a fixed seed set must agree.
  Graph g = GenerateErdosRenyi(150, 900);
  RRCollection serial(g.num_nodes()), parallel4(g.num_nodes());
  ParallelGenerate(g, GetParam(), &serial, 40000, 11, 1);
  ParallelGenerate(g, GetParam(), &parallel4, 40000, 11, 4);
  std::vector<NodeId> seeds = {0, 10, 20};
  double a = serial.EstimateSpread(seeds);
  double b = parallel4.EstimateSpread(seeds);
  EXPECT_NEAR(a, b, 0.15 * std::max(a, 1.0));
}

TEST_P(ParallelGenerateModelTest, ZeroCountIsNoop) {
  Graph g = GenerateBarabasiAlbert(50, 3);
  RRCollection rr(g.num_nodes());
  ParallelGenerate(g, GetParam(), &rr, 0, 1, 4);
  EXPECT_EQ(rr.num_sets(), 0u);
}

TEST_P(ParallelGenerateModelTest, MoreThreadsThanSamples) {
  Graph g = GenerateBarabasiAlbert(50, 3);
  RRCollection rr(g.num_nodes());
  ParallelGenerate(g, GetParam(), &rr, 3, 1, 16);
  EXPECT_EQ(rr.num_sets(), 3u);
}

TEST_P(ParallelGenerateModelTest, CallerOwnedPoolMatchesLocalPool) {
  // A caller-supplied pool must produce the exact stream the same thread
  // count produces with a per-call pool: the RR stream is a function of
  // (seed, num_threads) only, and the pool overrides num_threads.
  Graph g = GenerateBarabasiAlbert(200, 4);
  RRCollection local(g.num_nodes()), owned(g.num_nodes());
  ParallelGenerate(g, GetParam(), &local, 500, 7, 3);
  ThreadPool pool(3);
  ParallelGenerate(g, GetParam(), &owned, 500, 7,
                   /*num_threads=*/1,  // ignored: the pool wins
                   {}, &pool);
  ExpectSameCollections(local, owned);
}

TEST_P(ParallelGenerateModelTest, CallerOwnedPoolIsReusedAcrossCalls) {
  Graph g = GenerateBarabasiAlbert(100, 3);
  ThreadPool pool(4);
  const uint64_t tasks_before = pool.Stats().tasks_run;
  RRCollection rr(g.num_nodes());
  ParallelGenerate(g, GetParam(), &rr, 200, 1, 1, {}, &pool);
  ParallelGenerate(g, GetParam(), &rr, 200, 2, 1, {}, &pool);
  ParallelGenerate(g, GetParam(), &rr, 200, 3, 1, {}, &pool);
  EXPECT_EQ(rr.num_sets(), 600u);
  // Every call ran its shards on the shared pool (4 sampling tasks per
  // call, plus any parallel index-rebuild tasks) — lifetime stats grow
  // monotonically instead of dying with a per-call pool.
  EXPECT_GE(pool.Stats().tasks_run, tasks_before + 12);
}

TEST_P(ParallelGenerateModelTest, IncrementalBatchesMatchOneShot) {
  // Growing a collection across several generate calls (the doubling
  // pattern RunOpimC uses) yields the same sets as issuing the calls
  // against a fresh collection — batches append, never reorder.
  Graph g = GenerateBarabasiAlbert(150, 4);
  RRCollection grown(g.num_nodes()), fresh(g.num_nodes());
  ThreadPool pool(2);
  ParallelGenerate(g, GetParam(), &grown, 300, 5, 1, {}, &pool);
  ParallelGenerate(g, GetParam(), &grown, 300, 6, 1, {}, &pool);
  ParallelGenerate(g, GetParam(), &fresh, 300, 5, 2);
  ParallelGenerate(g, GetParam(), &fresh, 300, 6, 2);
  ExpectSameCollections(grown, fresh);
}

INSTANTIATE_TEST_SUITE_P(BothModels, ParallelGenerateModelTest,
                         ::testing::Values(
                             DiffusionModel::kIndependentCascade,
                             DiffusionModel::kLinearThreshold),
                         [](const auto& info) {
                           return DiffusionModelName(info.param);
                         });

}  // namespace
}  // namespace opim
