// The per-graph SamplingView memo (SamplingView::For): one view per part
// and Graph object, shared by every engine and sampler on it, rebuilt for
// copies and moves, and built once under concurrent first calls. A freshly constructed SamplingView is the
// oracle every memoized view must match byte for byte.

#include "graph/sampling_view.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <latch>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/online_maximizer.h"
#include "core/opim_c.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/graph_mmap.h"
#include "obs/metrics.h"
#include "rrset/rr_sampler.h"
#include "support/thread_pool.h"

namespace opim {
namespace {

/// Views built by SamplingView::For so far in this process (0 when
/// telemetry is compiled out).
uint64_t ViewBuilds() {
  const MetricsSnapshot s = MetricsRegistry::Default().Snapshot();
  const CounterSample* c = s.FindCounter("opim.graph.view_builds");
  return c != nullptr ? c->value : 0;
}

/// Expects `want` view builds since ViewBuilds() read `since`, where
/// telemetry counts them.
void ExpectBuildsSince(uint64_t since, uint64_t want) {
  if (OPIM_TELEMETRY_ENABLED) {
    EXPECT_EQ(ViewBuilds() - since, want);
  }
}

/// The reverse-CSR neighbor array of `g`, which its views must index.
const NodeId* InNeighbors(const Graph& g) {
  return g.storage_view().in_neighbors.data();
}

/// Asserts `view` is `g`'s own and byte-identical to a fresh build.
void ExpectOwnFreshView(const Graph& g, const SamplingView& view,
                        SamplingView::Parts parts) {
  EXPECT_EQ(&view.graph(), &g);
  EXPECT_EQ(view.InNeighborData(), InNeighbors(g));
  const SamplingView oracle(g, parts);
  ASSERT_EQ(view.has_ic(), oracle.has_ic());
  ASSERT_EQ(view.has_lt(), oracle.has_lt());
  ASSERT_EQ(view.IcSideSize(), oracle.IcSideSize());
  ASSERT_EQ(view.LtSideSize(), oracle.LtSideSize());
  ASSERT_EQ(view.MemoryFootprintBytes(), oracle.MemoryFootprintBytes());
  const size_t n = g.num_nodes();
  if (view.has_ic()) {
    EXPECT_EQ(std::memcmp(view.IcNodeData(), oracle.IcNodeData(),
                          n * sizeof(SamplingView::IcNode)),
              0);
    EXPECT_EQ(std::memcmp(view.IcSideData(), oracle.IcSideData(),
                          view.IcSideSize() * sizeof(SamplingView::IcEdge)),
              0);
  }
  if (view.has_lt()) {
    EXPECT_EQ(std::memcmp(view.LtNodeData(), oracle.LtNodeData(),
                          n * sizeof(SamplingView::LtNode)),
              0);
    EXPECT_EQ(
        std::memcmp(view.LtSideData(), oracle.LtSideData(),
                    view.LtSideSize() * sizeof(SamplingView::LtBucket)),
        0);
  }
}

/// A BA graph with unequal in-weights that sum to at most 0.9 per node
/// (LT-feasible), so both parts keep side arenas.
Graph UnequalWeightsGraph(uint32_t n) {
  const Graph wc = GenerateBarabasiAlbert(n, 4);
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = wc.InNeighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      b.AddEdge(nbrs[i], v, 0.3 * static_cast<double>(1 + i % 3) /
                                static_cast<double>(nbrs.size()));
    }
  }
  return b.Build();
}

TEST(SamplingViewMemoTest, RepeatedCallsReturnOneViewPerPart) {
  Graph g = UnequalWeightsGraph(600);
  ThreadPool pool(3);
  const uint64_t builds = ViewBuilds();
  const SamplingView& ic = SamplingView::For(g, SamplingView::Parts::kIc);
  const SamplingView& lt =
      SamplingView::For(g, SamplingView::Parts::kLt, &pool);
  const SamplingView& both = SamplingView::For(g, SamplingView::Parts::kBoth);
  EXPECT_EQ(&SamplingView::For(g, SamplingView::Parts::kIc, &pool), &ic);
  EXPECT_EQ(&SamplingView::For(g, SamplingView::Parts::kLt), &lt);
  EXPECT_EQ(&SamplingView::For(g, SamplingView::Parts::kBoth, &pool), &both);
  EXPECT_NE(&ic, &lt);
  EXPECT_NE(&ic, &both);
  ExpectOwnFreshView(g, ic, SamplingView::Parts::kIc);
  ExpectOwnFreshView(g, lt, SamplingView::Parts::kLt);
  ExpectOwnFreshView(g, both, SamplingView::Parts::kBoth);
  ExpectBuildsSince(builds, 3);
}

TEST(SamplingViewMemoTest, RunsOnOneGraphShareItsViewAndMatchAFreshCopy) {
  const Graph g = GenerateBarabasiAlbert(1500, 5);
  for (const DiffusionModel model : {DiffusionModel::kIndependentCascade,
                                     DiffusionModel::kLinearThreshold}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(DiffusionModelName(model)) + " threads " +
                   std::to_string(threads));
      const Graph shared = g;  // a graph with no view yet
      OpimCOptions o;
      o.seed = 5;
      o.num_threads = threads;
      const uint64_t builds = ViewBuilds();
      const OpimCResult first = RunOpimC(shared, model, 5, 0.3, 0.01, o);
      const SamplingView& view =
          SamplingView::For(shared, SamplingViewPartsFor(model));
      const OpimCResult second = RunOpimC(shared, model, 5, 0.3, 0.01, o);
      OnlineMaximizer online(shared, model, 5, 0.01, /*seed=*/3, threads);
      online.Advance(4000);
      const OnlineSnapshot snap = online.Query(BoundKind::kImproved);
      // The first run built the view; the second run and the online
      // session borrowed it.
      EXPECT_EQ(&SamplingView::For(shared, SamplingViewPartsFor(model)),
                &view);
      ExpectBuildsSince(builds, 1);

      // Runs on a fresh copy build their own view and answer the same.
      const Graph fresh = g;
      const OpimCResult want = RunOpimC(fresh, model, 5, 0.3, 0.01, o);
      OnlineMaximizer want_online(fresh, model, 5, 0.01, /*seed=*/3,
                                  threads);
      want_online.Advance(4000);
      const OnlineSnapshot want_snap = want_online.Query(BoundKind::kImproved);
      for (const OpimCResult* run : {&first, &second}) {
        EXPECT_EQ(run->seeds, want.seeds);
        EXPECT_EQ(run->alpha, want.alpha);
        EXPECT_EQ(run->num_rr_sets, want.num_rr_sets);
      }
      EXPECT_EQ(snap.seeds, want_snap.seeds);
      EXPECT_EQ(snap.alpha, want_snap.alpha);
      EXPECT_NE(&SamplingView::For(fresh, SamplingViewPartsFor(model)),
                &view);
    }
  }
}

TEST(SamplingViewMemoTest, CopiesAndMovesBuildTheirOwnView) {
  constexpr auto kLt = SamplingView::Parts::kLt;
  Graph g = UnequalWeightsGraph(800);
  const SamplingView& original = SamplingView::For(g, kLt);

  // A heap-backed copy has new storage, so it needs a view of its own.
  Graph copy = g;
  const SamplingView& copied = SamplingView::For(copy, kLt);
  EXPECT_NE(&copied, &original);
  EXPECT_NE(InNeighbors(copy), InNeighbors(g));
  ExpectOwnFreshView(copy, copied, kLt);

  // A moved-to graph keeps the storage but starts with no view.
  const NodeId* storage = InNeighbors(copy);
  Graph moved = std::move(copy);
  EXPECT_EQ(InNeighbors(moved), storage);
  const SamplingView& moved_view = SamplingView::For(moved, kLt);
  ExpectOwnFreshView(moved, moved_view, kLt);

  // The moved-from graph is empty (its views went with its storage).
  EXPECT_EQ(copy.num_nodes(), 0u);

  // Assigned-to graphs drop their old views and build new ones.
  Graph assigned = GenerateBarabasiAlbert(300, 3);
  const SamplingView& before = SamplingView::For(assigned, kLt);
  EXPECT_EQ(before.graph().num_nodes(), 300u);
  assigned = g;
  ExpectOwnFreshView(assigned, SamplingView::For(assigned, kLt), kLt);
  assigned = std::move(moved);
  EXPECT_EQ(InNeighbors(assigned), storage);
  ExpectOwnFreshView(assigned, SamplingView::For(assigned, kLt), kLt);

  // The source graph still serves its original view.
  EXPECT_EQ(&SamplingView::For(g, kLt), &original);
  ExpectOwnFreshView(g, original, kLt);
}

TEST(SamplingViewMemoTest, ArenaBackedCopySharesStorageNotView) {
  const std::string path = ::testing::TempDir() + "/view_memo.opimg";
  ASSERT_TRUE(SaveOpimg(UnequalWeightsGraph(500), path).ok());
  Result<Graph> loaded = LoadOpimg(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Graph g = std::move(loaded).ValueOrDie();
  const Graph copy = g;
  ASSERT_TRUE(copy.arena_backed());
  EXPECT_EQ(InNeighbors(copy), InNeighbors(g));  // shared mapping
  const SamplingView& a = SamplingView::For(g, SamplingView::Parts::kIc);
  const SamplingView& b = SamplingView::For(copy, SamplingView::Parts::kIc);
  EXPECT_NE(&a, &b);
  ExpectOwnFreshView(g, a, SamplingView::Parts::kIc);
  ExpectOwnFreshView(copy, b, SamplingView::Parts::kIc);
  std::remove(path.c_str());
}

TEST(SamplingViewMemoTest, ConcurrentFirstCallsBuildOnce) {
  // Large enough that the build spans many ranges and takes a while, so
  // the four callers really do overlap.
  const Graph g = UnequalWeightsGraph(60000);
  ThreadPool pool(2);
  constexpr int kCallers = 4;
  std::latch start(kCallers);
  std::vector<const SamplingView*> got(kCallers, nullptr);
  const uint64_t builds = ViewBuilds();
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] {
      start.arrive_and_wait();
      got[i] = &SamplingView::For(g, SamplingView::Parts::kLt,
                                  i % 2 == 0 ? &pool : nullptr);
    });
  }
  for (std::thread& t : callers) t.join();
  for (const SamplingView* view : got) EXPECT_EQ(view, got[0]);
  ExpectBuildsSince(builds, 1);
  ExpectOwnFreshView(g, *got[0], SamplingView::Parts::kLt);
}

TEST(SamplingViewMemoTest, BuildOnPoolWaitedOnByItsWorkersFinishes) {
  // Every task of a pool asks for the same view, built on that pool: the
  // task that builds it joins a ParallelFor while the pool's other
  // threads wait on the memo, so the join must run its own work.
  const Graph g = UnequalWeightsGraph(60000);
  ThreadPool pool(4);
  std::vector<const SamplingView*> got(8, nullptr);
  const uint64_t builds = ViewBuilds();
  pool.ParallelFor(got.size(), [&](uint64_t i) {
    got[i] = &SamplingView::For(g, SamplingView::Parts::kIc, &pool);
  });
  for (const SamplingView* view : got) EXPECT_EQ(view, got[0]);
  ExpectBuildsSince(builds, 1);
  ExpectOwnFreshView(g, *got[0], SamplingView::Parts::kIc);
}

}  // namespace
}  // namespace opim
