// Differential coverage for the persistent SelectionState (warm-started
// CELF): across simulated doubling runs, a selection that warm-syncs its
// initial gains from the collection's incrementally maintained
// membership counts must be bit-identical — seeds, coverage, trace
// arrays — to the stateless CELF path and to the SelectGreedy oracle.
// Also pins the MemberNonzero list (the warm path's heap/histogram
// iteration domain) against the counts it summarizes, and the state's
// rebind behavior when the bound collection changes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rrset/rr_collection.h"
#include "select/greedy.h"
#include "select/selection_state.h"
#include "support/random.h"

namespace opim {
namespace {

struct Stream {
  std::vector<NodeId> pool;                         // flat member stream
  std::vector<std::pair<uint32_t, uint64_t>> sets;  // (size, cost)
  std::vector<uint64_t> offsets;                    // prefix sums of sizes
};

/// A seeded random RR stream over n nodes; set lengths in [1, max_len].
Stream MakeStream(uint32_t n, uint32_t num_sets, uint32_t max_len,
                  uint64_t seed) {
  Rng rng(seed);
  Stream s;
  s.offsets.push_back(0);
  std::vector<NodeId> members;
  for (uint32_t i = 0; i < num_sets; ++i) {
    members.clear();
    const uint32_t len = 1 + rng.UniformBelow(max_len);
    for (uint32_t j = 0; j < len; ++j) {
      members.push_back(static_cast<NodeId>(rng.UniformBelow(n)));
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    s.pool.insert(s.pool.end(), members.begin(), members.end());
    s.sets.emplace_back(static_cast<uint32_t>(members.size()),
                        uint64_t{members.size()});
    s.offsets.push_back(s.offsets.back() + members.size());
  }
  return s;
}

/// Appends stream sets [from, to) to `c` as one compressed shard — the
/// ingest shape the engine's doubling loop uses.
void AddSlice(RRCollection* c, const Stream& s, size_t from, size_t to) {
  ShardEncoder encoder;
  for (size_t i = from; i < to; ++i) {
    std::vector<NodeId> members(s.pool.begin() + s.offsets[i],
                                s.pool.begin() + s.offsets[i + 1]);
    encoder.Add(&members, s.sets[i].second);
  }
  std::vector<CompressedRRShard> shards;
  shards.push_back(encoder.Finish(c->num_nodes()));
  c->AddCompressedShards(std::move(shards));
}

void ExpectSameSelection(const GreedyResult& a, const GreedyResult& b) {
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.coverage_at, b.coverage_at);
  EXPECT_EQ(a.topk_marginal_at, b.topk_marginal_at);
}

TEST(SelectionStateTest, WarmSelectionsMatchColdAcrossDoublings) {
  // Two independent replays of the same stream: one keeps a
  // SelectionState across the doublings (first sync cold, the rest warm
  // O(n) copies), the other re-derives gains from scratch every time.
  // Every doubling's output must match bit for bit, in both trace modes.
  for (uint64_t seed : {1u, 9u, 42u}) {
    const uint32_t n = 400;
    const uint32_t k = 12;
    const Stream s = MakeStream(n, /*num_sets=*/2048, /*max_len=*/5, seed);
    const size_t targets[] = {128, 256, 512, 1024, 2048};

    RRCollection warm_c(n);
    RRCollection cold_c(n);
    SelectionState state;
    CelfOptions warm_opts;
    warm_opts.state = &state;
    size_t done = 0;
    for (const size_t target : targets) {
      AddSlice(&warm_c, s, done, target);
      AddSlice(&cold_c, s, done, target);
      done = target;
      for (const bool with_trace : {false, true}) {
        const GreedyResult warm =
            SelectGreedyCelf(warm_c, k, with_trace, warm_opts);
        const GreedyResult cold = SelectGreedyCelf(cold_c, k, with_trace);
        ExpectSameSelection(cold, warm);
        if (with_trace) {
          const GreedyResult oracle = SelectGreedy(cold_c, k, true);
          ExpectSameSelection(oracle, warm);
        }
      }
      EXPECT_TRUE(state.WarmFor(warm_c));
      EXPECT_EQ(state.sets_accounted(), warm_c.num_sets());
    }
  }
}

TEST(SelectionStateTest, SerialAppendsBetweenSyncsStayExact) {
  // Serial AddSet appends update the membership counts one set at a
  // time; the next warm sync must see exactly those counts and still
  // match the cold path.
  const uint32_t n = 120;
  const uint32_t k = 8;
  const Stream s = MakeStream(n, 600, 4, 7);
  RRCollection warm_c(n);
  RRCollection cold_c(n);
  SelectionState state;
  CelfOptions warm_opts;
  warm_opts.state = &state;

  AddSlice(&warm_c, s, 0, 200);
  AddSlice(&cold_c, s, 0, 200);
  ExpectSameSelection(SelectGreedyCelf(cold_c, k, true),
                      SelectGreedyCelf(warm_c, k, true, warm_opts));

  // One-set-at-a-time appends (the non-batched ingest path).
  for (size_t i = 200; i < 260; ++i) {
    std::vector<NodeId> members(s.pool.begin() + s.offsets[i],
                                s.pool.begin() + s.offsets[i + 1]);
    warm_c.AddSet(members, s.sets[i].second);
    cold_c.AddSet(members, s.sets[i].second);
  }
  ExpectSameSelection(SelectGreedyCelf(cold_c, k, true),
                      SelectGreedyCelf(warm_c, k, true, warm_opts));

  AddSlice(&warm_c, s, 260, 600);
  AddSlice(&cold_c, s, 260, 600);
  ExpectSameSelection(SelectGreedyCelf(cold_c, k, true),
                      SelectGreedyCelf(warm_c, k, true, warm_opts));
}

TEST(SelectionStateTest, MemberNonzeroAgreesWithCounts) {
  // The warm path's iteration domain: every node with a positive count,
  // exactly once, and nothing else — across batch ingest, serial
  // appends, and repeated folds.
  const uint32_t n = 300;
  const Stream s = MakeStream(n, 900, 3, 13);
  RRCollection c(n);
  size_t done = 0;
  for (const size_t target : {150u, 300u, 900u}) {
    AddSlice(&c, s, done, target);
    done = target;
    const std::span<const uint64_t> counts = c.MemberCounts();
    const std::span<const NodeId> nonzero = c.MemberNonzero();
    std::vector<NodeId> sorted(nonzero.begin(), nonzero.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << "duplicate node in MemberNonzero";
    std::vector<NodeId> expected;
    for (NodeId v = 0; v < n; ++v) {
      if (counts[v] > 0) expected.push_back(v);
    }
    EXPECT_EQ(expected, sorted);
  }
}

TEST(SelectionStateTest, RebindsToADifferentCollection) {
  // A state synced against one collection must treat another as a cold
  // rebuild (e.g. after --resume replaced the pools) and still produce
  // the exact stateless output, including when the new pool is smaller
  // than the covered-bitset arena the state already grew.
  const uint32_t n = 200;
  const uint32_t k = 6;
  const Stream big = MakeStream(n, 1000, 4, 3);
  const Stream small = MakeStream(n, 300, 4, 4);

  RRCollection big_c(n);
  AddSlice(&big_c, big, 0, 1000);
  RRCollection small_c(n);
  AddSlice(&small_c, small, 0, 300);

  SelectionState state;
  CelfOptions opts;
  opts.state = &state;
  ExpectSameSelection(SelectGreedyCelf(big_c, k, true),
                      SelectGreedyCelf(big_c, k, true, opts));
  EXPECT_TRUE(state.WarmFor(big_c));
  EXPECT_FALSE(state.WarmFor(small_c));

  ExpectSameSelection(SelectGreedyCelf(small_c, k, true),
                      SelectGreedyCelf(small_c, k, true, opts));
  EXPECT_TRUE(state.WarmFor(small_c));
  EXPECT_FALSE(state.WarmFor(big_c));

  state.Invalidate();
  EXPECT_FALSE(state.WarmFor(small_c));
  EXPECT_EQ(state.sets_accounted(), 0u);
  ExpectSameSelection(SelectGreedyCelf(small_c, k, true),
                      SelectGreedyCelf(small_c, k, true, opts));
}

}  // namespace
}  // namespace opim
