// Online sessions on more than one thread. Each Advance is one engine
// stage whose shard count is the session's thread count, so the stream
// is a function of (seed, thread count).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/online_maximizer.h"
#include "gen/generators.h"
#include "obs/metrics.h"

namespace opim {
namespace {

/// Partitions merged in place so far in this process (0 when telemetry
/// is compiled out).
uint64_t InPlaceMerges() {
  const MetricsSnapshot s = MetricsRegistry::Default().Snapshot();
  const CounterSample* c = s.FindCounter("opim.rrset.index_parts_in_place");
  return c != nullptr ? c->value : 0;
}

TEST(OnlineThreadsTest, PoolsBalancedAndCounted) {
  Graph g = GenerateBarabasiAlbert(200, 4);
  OnlineMaximizer om(g, DiffusionModel::kIndependentCascade, 5, 0.05, 1,
                     /*num_threads=*/3);
  om.Advance(101);
  EXPECT_EQ(om.num_rr_sets(), 101u);
  uint64_t t1 = om.r1().num_sets(), t2 = om.r2().num_sets();
  EXPECT_LE(t1 > t2 ? t1 - t2 : t2 - t1, 1u);
  om.Advance(101);
  EXPECT_EQ(om.num_rr_sets(), 202u);
  EXPECT_EQ(om.r1().num_sets(), om.r2().num_sets());
}

TEST(OnlineThreadsTest, DeterministicForFixedThreadCount) {
  Graph g = GenerateBarabasiAlbert(200, 4);
  OnlineMaximizer a(g, DiffusionModel::kLinearThreshold, 5, 0.05, 42,
                    /*num_threads=*/2);
  OnlineMaximizer b(g, DiffusionModel::kLinearThreshold, 5, 0.05, 42,
                    /*num_threads=*/2);
  a.Advance(600);
  b.Advance(600);
  OnlineSnapshot sa = a.Query(BoundKind::kImproved);
  OnlineSnapshot sb = b.Query(BoundKind::kImproved);
  EXPECT_EQ(sa.seeds, sb.seeds);
  EXPECT_EQ(sa.alpha, sb.alpha);
}

TEST(OnlineThreadsTest, SmallAdvancesKeepTheIndexExact) {
  // After one large Advance, small ones merge R1's postings in place;
  // R1's index must still read like one built from its sets.
  Graph g = GenerateBarabasiAlbert(300, 4);
  OnlineMaximizer om(g, DiffusionModel::kIndependentCascade, 5, 0.05, 7,
                     /*num_threads=*/2);
  om.Advance(2000);
  const uint64_t in_place_before = InPlaceMerges();
  for (int i = 0; i < 10; ++i) om.Advance(100);
  EXPECT_EQ(om.num_rr_sets(), 3000u);
  if (OPIM_TELEMETRY_ENABLED) {
    EXPECT_GT(InPlaceMerges(), in_place_before);
  }
  const RRCollection& r1 = om.r1();
  std::vector<std::vector<RRId>> index(r1.num_nodes());
  for (RRId id = 0; id < r1.num_sets(); ++id) {
    r1.ForEachMember(id, [&](NodeId v) { index[v].push_back(id); });
  }
  for (NodeId v = 0; v < r1.num_nodes(); ++v) {
    ASSERT_TRUE(std::ranges::equal(r1.Covering(v), index[v])) << "node " << v;
  }
  OnlineSnapshot snap = om.Query(BoundKind::kImproved);
  EXPECT_EQ(snap.seeds.size(), 5u);
  EXPECT_GT(snap.alpha, 0.0);
}

TEST(OnlineThreadsTest, QualityMatchesOneThreadStatistically) {
  Graph g = GenerateBarabasiAlbert(400, 5);
  OnlineMaximizer one(g, DiffusionModel::kIndependentCascade, 8, 0.05, 3);
  OnlineMaximizer four(g, DiffusionModel::kIndependentCascade, 8, 0.05, 3,
                       /*num_threads=*/4);
  one.Advance(16000);
  four.Advance(16000);
  double a = one.Query(BoundKind::kImproved).alpha;
  double b = four.Query(BoundKind::kImproved).alpha;
  EXPECT_NEAR(a, b, 0.1);
}

}  // namespace
}  // namespace opim
