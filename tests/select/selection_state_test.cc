// Differential coverage for selection across a doubling run: CELF takes
// its initial gains from the collection's maintained membership counts
// (RRCollection::CoveringCount) and builds its heap from the member-count
// bands (MemberAtLeast), while the SelectGreedy oracle recounts every
// node from its postings. Every doubling's selection must match the
// oracle bit for bit — seeds, coverage, trace arrays — across batch
// ingests and interleaved serial appends, which checks the maintained
// counts too. Also pins every band against the counts it summarizes.
// (The suite is named for the selection state these counts replaced;
// MemberNonzeroAgreesWithCounts keeps the name of the band-0 list it
// first checked.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rrset/rr_collection.h"
#include "select/greedy.h"
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

/// CELF against the oracle on `c`, untraced and traced at k.
void ExpectCelfMatchesOracle(const RRCollection& c, uint32_t k) {
  for (const std::vector<uint32_t>& trace_ks :
       {std::vector<uint32_t>{}, std::vector<uint32_t>{k}}) {
    ExpectSameSelection(SelectGreedy(c, k, trace_ks),
                        SelectGreedyCelf(c, k, trace_ks));
  }
}

TEST(SelectionStateTest, WarmSelectionsMatchColdAcrossDoublings) {
  // One replay of the stream in doublings: after each one, CELF starting
  // from the maintained counts must match the oracle's recount.
  for (uint64_t seed : {1u, 9u, 42u}) {
    const uint32_t n = 400;
    const uint32_t k = 12;
    const Stream s = MakeStream(n, /*num_sets=*/2048, /*max_len=*/5, seed);
    const size_t targets[] = {128, 256, 512, 1024, 2048};

    RRCollection c(n);
    size_t done = 0;
    for (const size_t target : targets) {
      AddSlice(&c, s, done, target);
      done = target;
      ExpectCelfMatchesOracle(c, k);
    }
  }
}

TEST(SelectionStateTest, SerialAppendsBetweenSyncsStayExact) {
  // Serial AddSet appends update the membership counts one set at a
  // time; the next selection must see exactly those counts.
  const uint32_t n = 120;
  const uint32_t k = 8;
  const Stream s = MakeStream(n, 600, 4, 7);
  RRCollection c(n);

  AddSlice(&c, s, 0, 200);
  ExpectCelfMatchesOracle(c, k);

  // One-set-at-a-time appends (the non-batched ingest path).
  for (size_t i = 200; i < 260; ++i) {
    std::vector<NodeId> members(s.pool.begin() + s.offsets[i],
                                s.pool.begin() + s.offsets[i + 1]);
    c.AddSet(members, s.sets[i].second);
  }
  ExpectCelfMatchesOracle(c, k);

  AddSlice(&c, s, 260, 600);
  ExpectCelfMatchesOracle(c, k);
}

TEST(SelectionStateTest, MemberNonzeroAgreesWithCounts) {
  // CELF's iteration domains: band b lists every node whose count
  // reached 2^b, exactly once, and nothing else — band 0 is every node
  // with a positive count — across batch ingest, serial appends, and
  // repeated folds.
  const uint32_t n = 300;
  const Stream s = MakeStream(n, 900, 3, 13);
  RRCollection c(n);
  size_t done = 0;
  for (const size_t target : {150u, 300u, 600u, 900u}) {
    if (target == 600u) {
      // One-set-at-a-time appends between batches.
      for (; done < target; ++done) {
        std::vector<NodeId> members(s.pool.begin() + s.offsets[done],
                                    s.pool.begin() + s.offsets[done + 1]);
        c.AddSet(members, s.sets[done].second);
      }
    } else {
      AddSlice(&c, s, done, target);
      done = target;
    }
    for (uint32_t b = 0; b < RRCollection::kMemberBands; ++b) {
      const std::span<const NodeId> band = c.MemberAtLeast(b);
      std::vector<NodeId> sorted(band.begin(), band.end());
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end())
          << "duplicate node in MemberAtLeast(" << b << ")";
      std::vector<NodeId> expected;
      for (NodeId v = 0; v < n; ++v) {
        if (c.CoveringCount(v) >= uint64_t{1} << b) expected.push_back(v);
      }
      EXPECT_EQ(expected, sorted) << "band " << b;
    }
  }
}

}  // namespace
}  // namespace opim
