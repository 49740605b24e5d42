#include "rrset/rr_collection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <ostream>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "support/thread_pool.h"

namespace opim {
namespace {

TEST(RRCollectionTest, EmptyCollection) {
  RRCollection rr(5);
  EXPECT_EQ(rr.num_sets(), 0u);
  EXPECT_EQ(rr.num_nodes(), 5u);
  EXPECT_EQ(rr.total_size(), 0u);
  EXPECT_EQ(rr.total_edges_examined(), 0u);
  std::vector<NodeId> seeds = {0};
  EXPECT_EQ(rr.CoverageOf(seeds), 0u);
  EXPECT_EQ(rr.EstimateSpread(seeds), 0.0);
}

TEST(RRCollectionTest, AddSetStoresNodesAndCost) {
  RRCollection rr(5);
  std::vector<NodeId> set1 = {0, 2, 4};
  RRId id = rr.AddSet(set1, 7);
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(rr.num_sets(), 1u);
  EXPECT_EQ(rr.total_size(), 3u);
  EXPECT_EQ(rr.total_edges_examined(), 7u);
  EXPECT_EQ(rr.SetSize(0), 3u);
  EXPECT_EQ(rr.DecodeSet(0), set1);
}

TEST(RRCollectionTest, AddSetSortsAndDeduplicates) {
  // Members are stored delta-encoded over the sorted unique list; callers
  // read them back sorted regardless of input order.
  RRCollection rr(8);
  rr.AddSet(std::vector<NodeId>{5, 1, 7, 1, 5}, 3);
  EXPECT_EQ(rr.SetSize(0), 3u);
  EXPECT_EQ(rr.DecodeSet(0), (std::vector<NodeId>{1, 5, 7}));
  EXPECT_EQ(rr.total_size(), 3u);
}

TEST(RRCollectionTest, InlineSlotsRoundTrip) {
  // Empty and singleton sets live in the slot word itself (no pool bytes).
  RRCollection rr(1u << 20);
  rr.AddSet(std::vector<NodeId>{}, 0);
  rr.AddSet(std::vector<NodeId>{(1u << 20) - 1}, 1);
  rr.AddSet(std::vector<NodeId>{0}, 1);
  EXPECT_EQ(rr.SetSize(0), 0u);
  EXPECT_EQ(rr.SetSize(1), 1u);
  EXPECT_EQ(rr.SetSize(2), 1u);
  EXPECT_TRUE(rr.DecodeSet(0).empty());
  EXPECT_EQ(rr.DecodeSet(1), (std::vector<NodeId>{(1u << 20) - 1}));
  EXPECT_EQ(rr.DecodeSet(2), (std::vector<NodeId>{0}));
  EXPECT_EQ(rr.CompressedMemberBytes(), 0u);
}

TEST(RRCollectionTest, InvertedIndexTracksMembership) {
  RRCollection rr(4);
  rr.AddSet(std::vector<NodeId>{0, 1}, 1);
  rr.AddSet(std::vector<NodeId>{1, 2}, 1);
  rr.AddSet(std::vector<NodeId>{1}, 1);
  EXPECT_EQ(rr.CoveringCount(0), 1u);
  EXPECT_EQ(rr.CoveringCount(1), 3u);
  EXPECT_EQ(rr.CoveringCount(2), 1u);
  EXPECT_EQ(rr.CoveringCount(3), 0u);
  EXPECT_TRUE(std::ranges::equal(rr.Covering(1), std::vector<RRId>{0, 1, 2}));
}

TEST(RRCollectionTest, CoverageCountsEachSetOnce) {
  RRCollection rr(4);
  rr.AddSet(std::vector<NodeId>{0, 1, 2}, 1);  // covered by any of 0,1,2
  rr.AddSet(std::vector<NodeId>{3}, 1);
  std::vector<NodeId> seeds = {0, 1};  // both hit set 0
  EXPECT_EQ(rr.CoverageOf(seeds), 1u);
  std::vector<NodeId> all = {0, 3};
  EXPECT_EQ(rr.CoverageOf(all), 2u);
}

TEST(RRCollectionTest, CoverageHandlesDuplicateSeeds) {
  RRCollection rr(3);
  rr.AddSet(std::vector<NodeId>{1}, 1);
  std::vector<NodeId> seeds = {1, 1, 1};
  EXPECT_EQ(rr.CoverageOf(seeds), 1u);
}

TEST(RRCollectionTest, RepeatedCoverageQueriesIndependent) {
  RRCollection rr(3);
  rr.AddSet(std::vector<NodeId>{0}, 1);
  rr.AddSet(std::vector<NodeId>{1}, 1);
  std::vector<NodeId> s0 = {0}, s1 = {1};
  // The bitset scratch must reset logically between queries.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rr.CoverageOf(s0), 1u);
    EXPECT_EQ(rr.CoverageOf(s1), 1u);
  }
}

TEST(RRCollectionTest, CoverageAfterGrowth) {
  RRCollection rr(3);
  rr.AddSet(std::vector<NodeId>{0}, 1);
  std::vector<NodeId> seeds = {0};
  EXPECT_EQ(rr.CoverageOf(seeds), 1u);
  rr.AddSet(std::vector<NodeId>{0, 1}, 1);
  rr.AddSet(std::vector<NodeId>{2}, 1);
  EXPECT_EQ(rr.CoverageOf(seeds), 2u);  // scratch grew with the sets
}

TEST(RRCollectionTest, EstimateSpreadScalesCoverage) {
  RRCollection rr(10);
  rr.AddSet(std::vector<NodeId>{0}, 1);
  rr.AddSet(std::vector<NodeId>{1}, 1);
  rr.AddSet(std::vector<NodeId>{0, 1}, 1);
  rr.AddSet(std::vector<NodeId>{2}, 1);
  std::vector<NodeId> seeds = {0};
  // Λ = 2 of θ = 4 sets, n = 10 -> estimate 5.
  EXPECT_DOUBLE_EQ(rr.EstimateSpread(seeds), 5.0);
}

TEST(RRCollectionTest, EmptySetAllowed) {
  // An RR set is never empty in practice (it contains its root), but the
  // container itself tolerates it.
  RRCollection rr(2);
  rr.AddSet(std::vector<NodeId>{}, 0);
  EXPECT_EQ(rr.num_sets(), 1u);
  EXPECT_EQ(rr.total_size(), 0u);
  std::vector<NodeId> seeds = {0, 1};
  EXPECT_EQ(rr.CoverageOf(seeds), 0u);
}

TEST(RRCollectionTest, ForEachAccessorsMatchDecode) {
  // ForEachMember and Covering are the zero-allocation hot-path views;
  // they must agree with the materialized sets, node 0 (in every set)
  // included.
  const uint32_t n = 40;
  RRCollection rr(n);
  for (uint32_t i = 0; i < 600; ++i) {
    std::vector<NodeId> s = {0, static_cast<NodeId>(i % n),
                             static_cast<NodeId>((i * 11 + 3) % n)};
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    rr.AddSet(s, 1);
  }
  std::vector<std::vector<RRId>> covering(n);
  for (RRId id = 0; id < rr.num_sets(); ++id) {
    std::vector<NodeId> walked;
    rr.ForEachMember(id, [&](NodeId v) { walked.push_back(v); });
    EXPECT_EQ(walked, rr.DecodeSet(id)) << "set " << id;
    for (NodeId v : walked) covering[v].push_back(id);
  }
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_TRUE(std::ranges::equal(rr.Covering(v), covering[v]))
        << "node " << v;
    EXPECT_EQ(rr.CoveringCount(v), covering[v].size()) << "node " << v;
  }
}

/// Expects identical sets, γ, and inverted index in both collections,
/// down to the stored bytes (slot words and per-chunk encoded runs).
void ExpectEquivalent(const RRCollection& a, const RRCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.total_size(), b.total_size());
  ASSERT_EQ(a.total_edges_examined(), b.total_edges_examined());
  EXPECT_TRUE(std::ranges::equal(a.slots(), b.slots()));
  ASSERT_EQ(a.num_pool_chunks(), b.num_pool_chunks());
  for (uint32_t c = 0; c < a.num_pool_chunks(); ++c) {
    EXPECT_TRUE(std::ranges::equal(a.ChunkRun(c), b.ChunkRun(c)))
        << "chunk " << c;
  }
  for (RRId id = 0; id < a.num_sets(); ++id) {
    EXPECT_EQ(a.DecodeSet(id), b.DecodeSet(id)) << "set " << id;
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_TRUE(std::ranges::equal(a.Covering(v), b.Covering(v)))
        << "node " << v;
  }
}

/// Encodes explicit sets into one compressed shard (unit cost each), the
/// wire format generation workers hand to AddCompressedShards.
CompressedRRShard PackShard(uint32_t n,
                            const std::vector<std::vector<NodeId>>& sets) {
  ShardEncoder encoder;
  for (std::vector<NodeId> s : sets) encoder.Add(&s, 1);
  return encoder.Finish(n);
}

TEST(RRCollectionBatchTest, SingleShardMatchesAddSetLoop) {
  const std::vector<std::vector<NodeId>> sets = {
      {0, 1}, {1, 2}, {1}, {3, 0}, {}, {2}};
  RRCollection incremental(4);
  for (const auto& s : sets) incremental.AddSet(s, 1);

  RRCollection batched(4);
  std::vector<CompressedRRShard> shards;
  shards.push_back(PackShard(4, sets));
  batched.AddCompressedShards(std::move(shards));
  ExpectEquivalent(incremental, batched);
}

TEST(RRCollectionBatchTest, MultiShardConcatenatesInShardOrder) {
  RRCollection incremental(5);
  incremental.AddSet(std::vector<NodeId>{0, 4}, 1);
  incremental.AddSet(std::vector<NodeId>{1}, 1);
  incremental.AddSet(std::vector<NodeId>{4, 2}, 1);
  incremental.AddSet(std::vector<NodeId>{3, 1}, 1);

  RRCollection batched(5);
  std::vector<CompressedRRShard> shards;
  shards.push_back(PackShard(5, {{0, 4}, {1}}));
  shards.push_back(PackShard(5, {{4, 2}, {3, 1}}));
  batched.AddCompressedShards(std::move(shards));
  ExpectEquivalent(incremental, batched);
}

TEST(RRCollectionBatchTest, SuccessiveBatchesAppend) {
  RRCollection incremental(4);
  RRCollection batched(4);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<NodeId>> sets;
    for (int i = 0; i < 10; ++i) {
      sets.push_back({static_cast<NodeId>((round + i) % 4),
                      static_cast<NodeId>((round * 3 + i * 7) % 4)});
      std::sort(sets.back().begin(), sets.back().end());
      sets.back().erase(
          std::unique(sets.back().begin(), sets.back().end()),
          sets.back().end());
      incremental.AddSet(sets.back(), 1);
    }
    std::vector<CompressedRRShard> shards;
    shards.push_back(PackShard(4, sets));
    batched.AddCompressedShards(std::move(shards));
  }
  ExpectEquivalent(incremental, batched);
}

TEST(RRCollectionBatchTest, CompressedStorageBeatsRawForDenseSets) {
  // Clustered ids delta-encode to ~1 byte per member; the compressed pool
  // must come in well under the 4 bytes/member raw footprint and decode
  // back exactly.
  const uint32_t n = 4096;
  std::vector<std::vector<NodeId>> sets;
  for (uint32_t s = 0; s < 64; ++s) {
    std::vector<NodeId> members;
    for (uint32_t j = 0; j < 96; ++j) {
      members.push_back((s * 17 + j * 3) % n);
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()),
                  members.end());
    sets.push_back(std::move(members));
  }
  RRCollection rr(n);
  std::vector<CompressedRRShard> shards;
  shards.push_back(PackShard(n, sets));
  rr.AddCompressedShards(std::move(shards));
  ASSERT_EQ(rr.num_sets(), sets.size());
  for (RRId id = 0; id < rr.num_sets(); ++id) {
    EXPECT_EQ(rr.DecodeSet(id), sets[id]) << "set " << id;
  }
  EXPECT_GT(rr.CompressedMemberBytes(), 0u);
  EXPECT_LT(rr.CompressedMemberBytes(), rr.RawMemberBytes() / 2);
  EXPECT_EQ(rr.RawMemberBytes(), rr.total_size() * sizeof(NodeId));
}

TEST(RRCollectionBatchTest, EmptyAndNoopShards) {
  RRCollection rr(3);
  rr.AddCompressedShards({});  // no shards at all
  EXPECT_EQ(rr.num_sets(), 0u);
  std::vector<CompressedRRShard> shards;  // shards with no sets
  shards.push_back(PackShard(3, {}));
  shards.push_back(CompressedRRShard{});  // never finalized
  rr.AddCompressedShards(std::move(shards));
  EXPECT_EQ(rr.num_sets(), 0u);
  EXPECT_EQ(rr.CoveringCount(0), 0u);
}

TEST(RRCollectionBatchTest, ParallelRebuildMatchesSerial) {
  // Above the size cutoff AddCompressedShards appends to the inverted
  // index on the pool, one task per index partition; every node must
  // read exactly as after the serial append.
  const uint32_t n = 400;
  const int num_sets = 30000;  // ~90k pooled nodes > the 2^16 cutoff
  std::vector<std::vector<NodeId>> sets;
  sets.reserve(num_sets);
  for (int i = 0; i < num_sets; ++i) {
    std::vector<NodeId> s = {static_cast<NodeId>(i % n),
                             static_cast<NodeId>((i * 13 + 5) % n),
                             static_cast<NodeId>((i * 61 + 2) % n)};
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    sets.push_back(std::move(s));
  }
  RRCollection serial(n), parallel(n);
  {
    std::vector<CompressedRRShard> shards;
    shards.push_back(PackShard(n, sets));
    serial.AddCompressedShards(std::move(shards));  // no pool: serial merge
  }
  {
    ThreadPool pool(4);
    std::vector<CompressedRRShard> shards;
    shards.push_back(PackShard(n, sets));
    parallel.AddCompressedShards(std::move(shards), &pool);
  }
  ExpectEquivalent(serial, parallel);
}

TEST(RRCollectionBatchTest, AddSetAfterBatchKeepsIndexFresh) {
  // AddSet appends to a batch-written index in place; the next covering
  // query must observe both the batched and the incrementally added sets.
  RRCollection rr(3);
  std::vector<CompressedRRShard> shards;
  shards.push_back(PackShard(3, {{0, 1}}));
  rr.AddCompressedShards(std::move(shards));
  EXPECT_EQ(rr.CoveringCount(1), 1u);
  rr.AddSet(std::vector<NodeId>{1, 2}, 1);
  EXPECT_EQ(rr.CoveringCount(1), 2u);
  EXPECT_TRUE(std::ranges::equal(rr.Covering(1), std::vector<RRId>{0, 1}));
  EXPECT_EQ(rr.CoveringCount(2), 1u);
}

/// Brute-force inverted index of `rr`, built from DecodeSet alone.
std::vector<std::vector<RRId>> BruteForceIndex(const RRCollection& rr) {
  std::vector<std::vector<RRId>> index(rr.num_nodes());
  for (RRId id = 0; id < rr.num_sets(); ++id) {
    for (NodeId v : rr.DecodeSet(id)) index[v].push_back(id);
  }
  return index;
}

/// Checks every member-count band against the postings: band b lists
/// exactly the nodes some 2^b sets contain, each once, so the bands past
/// the largest count are empty.
void ExpectBandsMatchCounts(const RRCollection& rr) {
  for (uint32_t b = 0; b < RRCollection::kMemberBands; ++b) {
    const std::span<const NodeId> band = rr.MemberAtLeast(b);
    std::vector<NodeId> listed(band.begin(), band.end());
    std::sort(listed.begin(), listed.end());
    EXPECT_TRUE(std::adjacent_find(listed.begin(), listed.end()) ==
                listed.end())
        << "band " << b << " lists a node twice";
    std::vector<NodeId> expected;
    for (NodeId v = 0; v < rr.num_nodes(); ++v) {
      if (rr.CoveringCount(v) >= uint64_t{1} << b) expected.push_back(v);
    }
    EXPECT_EQ(listed, expected) << "band " << b;
  }
}

/// Checks every node's postings and count, the member-count bands, and
/// the coverage of `seeds` against the brute-force index.
void ExpectIndexMatchesBruteForce(const RRCollection& rr,
                                  std::span<const NodeId> seeds) {
  const std::vector<std::vector<RRId>> index = BruteForceIndex(rr);
  for (NodeId v = 0; v < rr.num_nodes(); ++v) {
    ASSERT_TRUE(std::ranges::equal(rr.Covering(v), index[v]))
        << "node " << v;
    EXPECT_EQ(rr.CoveringCount(v), index[v].size()) << "node " << v;
  }
  ExpectBandsMatchCounts(rr);
  std::vector<RRId> covered;
  for (NodeId v : seeds) {
    covered.insert(covered.end(), index[v].begin(), index[v].end());
  }
  std::sort(covered.begin(), covered.end());
  covered.erase(std::unique(covered.begin(), covered.end()), covered.end());
  EXPECT_EQ(rr.CoverageOf(seeds), covered.size());
}

/// Index partitions merged in place so far in this process (0 when
/// telemetry is compiled out). A batch merges a partition in place when
/// its new postings are few against the partition's, else rewrites it.
uint64_t InPlaceMerges() {
  const MetricsSnapshot s = MetricsRegistry::Default().Snapshot();
  const CounterSample* c = s.FindCounter("opim.rrset.index_parts_in_place");
  return c != nullptr ? c->value : 0;
}

/// A collection reassembled from `rr`'s snapshot parts; its index is
/// built by the next read or append.
RRCollection RestoredCopy(const RRCollection& rr) {
  std::vector<std::vector<uint8_t>> runs;
  for (uint32_t c = 0; c < rr.num_pool_chunks(); ++c) {
    const std::span<const uint8_t> run = rr.ChunkRun(c);
    runs.emplace_back(run.begin(), run.end());
  }
  return RRCollection::RestoreFromSnapshotParts(
      rr.num_nodes(), std::move(runs),
      {rr.slots().begin(), rr.slots().end()}, rr.total_size(),
      rr.total_edges_examined());
}

/// Checks ShardEncoder::Finish output against its contract: one offset
/// per index partition plus one, monotone from 0 to the member total,
/// every posting's node inside its partition, and local set ids
/// ascending within each partition (a set's members by node).
void ExpectWellFormedShard(const CompressedRRShard& shard, uint32_t n) {
  const uint32_t parts = (n + 4095) / 4096;
  ASSERT_EQ(shard.part_offsets.size(), parts + 1);
  EXPECT_EQ(shard.part_offsets.front(), 0u);
  EXPECT_EQ(shard.part_offsets.back(), shard.total_members);
  ASSERT_EQ(shard.post_nodes.size(), shard.total_members);
  ASSERT_EQ(shard.post_sets.size(), shard.total_members);
  for (uint32_t p = 0; p < parts; ++p) {
    ASSERT_LE(shard.part_offsets[p], shard.part_offsets[p + 1]);
    for (uint32_t i = shard.part_offsets[p]; i < shard.part_offsets[p + 1];
         ++i) {
      EXPECT_LT(p * 4096 + shard.post_nodes[i], n);
      EXPECT_LT(shard.post_sets[i], shard.recs.size());
      if (i > shard.part_offsets[p]) {
        EXPECT_LT(std::pair(shard.post_sets[i - 1], shard.post_nodes[i - 1]),
                  std::pair(shard.post_sets[i], shard.post_nodes[i]))
            << "partition " << p << " posting " << i;
      }
    }
  }
}

/// One random ingest stream: relative weights of its operations, the
/// graph size, and whether it also exercises the partition edges (see
/// MatchesBruteForceIndex).
struct IndexDiffCase {
  const char* name;
  uint64_t seed;
  int add_set;  // a burst of AddSet calls
  int batch;    // AddCompressedShards, without a pool or on 4 threads
  int restore;  // swap in a restored copy
  uint32_t n = 3 * 4096 + 517;  // four partitions, the last one partial
  bool edges = false;
};

// Without a printer gtest shows the parameter as its raw bytes: the name
// pointer (which moves with address-space randomisation) and padding.
// ctest copies that text into the discovered test names, so they would
// change from build to build.
void PrintTo(const IndexDiffCase& param, std::ostream* os) {
  *os << "seed " << param.seed;
}

class RRCollectionIndexDiffTest
    : public ::testing::TestWithParam<IndexDiffCase> {};

TEST_P(RRCollectionIndexDiffTest, MatchesBruteForceIndex) {
  // The append-only index must read exactly like an index built from
  // scratch, whatever mix of appends and restores produced it.
  const IndexDiffCase& param = GetParam();
  const uint32_t n = param.n;
  const uint32_t parts = (n + 4095) / 4096;
  // Partition 2 holds only these nodes: two growers that relocate in
  // lockstep (so AddSet leaves enough dead entries to compact the arena)
  // and a node that is dense, then sparse.
  constexpr NodeId kPart2 = 2 * 4096;
  constexpr NodeId kGrowerA = kPart2 + 8;
  constexpr NodeId kGrowerB = kPart2 + 808;
  constexpr NodeId kDenseThenSparse = kPart2 + 100;
  // Two hubs in lockstep, and one that turns dense halfway.
  constexpr NodeId kDense = 3;
  constexpr NodeId kDense2 = 5;
  const NodeId kSparseThenDense = n - 1;
  // Edge streams only: the top of partition 0 and the bottom of
  // partition 1 (the 16-bit in-partition field's last value and the next
  // partition's first node), and a node only a batch's last shard holds.
  constexpr NodeId kPartTop = 4095;
  constexpr NodeId kPartBottom = 4096;
  constexpr NodeId kLastShardOnly = 4096 + 77;
  constexpr uint64_t kSets = 30000;

  std::mt19937_64 rng(param.seed);
  auto chance = [&](double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng) < p;
  };
  auto random_node = [&] {
    NodeId v;
    do {
      v = static_cast<NodeId>(rng() % n);
    } while ((v >= kPart2 && v < kPart2 + 4096) ||
             (param.edges && v == kLastShardOnly));
    return v;
  };
  // Set `id`'s members: empty and singleton sets, small random sets, and
  // the scheduled nodes.
  auto draw = [&](uint64_t id) {
    std::vector<NodeId> s;
    const uint64_t kind = rng() % 16;
    if (kind == 0) return s;
    if (kind <= 4) return std::vector<NodeId>{random_node()};
    const uint64_t size = 2 + rng() % 6;
    for (uint64_t i = 0; i < size; ++i) s.push_back(random_node());
    if (chance(0.9)) {
      s.push_back(kDense);
      s.push_back(kDense2);
    }
    if (id < 256 || chance(0.02)) s.push_back(kDenseThenSparse);
    if (id >= kSets / 2 || chance(0.02)) s.push_back(kSparseThenDense);
    if (chance(0.03)) {
      s.push_back(kGrowerA);
      s.push_back(kGrowerB);
    }
    if (param.edges && chance(0.1)) s.push_back(kPartTop);
    if (param.edges && chance(0.1)) s.push_back(kPartBottom);
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    return s;
  };

  ThreadPool pool(4);
  RRCollection rr(n);
  // Finishes a shard and checks the output format.
  auto finish = [&](ShardEncoder* encoder) {
    CompressedRRShard shard = encoder->Finish(n);
    ExpectWellFormedShard(shard, n);
    return shard;
  };

  if (param.edges) {
    // AddSet fills partition 2 first: kDenseThenSparse in the first 256
    // sets, the growers in every 64th.
    for (RRId id = 0; id < 768; ++id) {
      std::vector<NodeId> s = {kDense};
      if (id < 256) s.push_back(kDenseThenSparse);
      if (id % 64 == 0) {
        s.push_back(kGrowerA);
        s.push_back(kGrowerB);
      }
      if (id % 97 == 0) s.push_back(kSparseThenDense);
      rr.AddSet(s, 1);
    }
    ExpectIndexMatchesBruteForce(rr, std::vector<NodeId>{kGrowerA});
    // Then one batch turns kSparseThenDense into a hub and rewrites
    // partition 2, adding an id per 64 sets to kDenseThenSparse.
    std::vector<CompressedRRShard> shards;
    uint64_t i = 0;
    for (uint64_t size : {2000, 3000, 4000}) {
      ShardEncoder encoder;
      for (const uint64_t end = i + size; i < end; ++i) {
        std::vector<NodeId> s = {kSparseThenDense};
        if (i % 64 == 0) s.push_back(kDenseThenSparse);
        if (i % 50 == 0) s.push_back(kGrowerB);
        encoder.Add(&s, 1);
      }
      shards.push_back(finish(&encoder));
    }
    rr.AddCompressedShards(std::move(shards), &pool);
    ExpectIndexMatchesBruteForce(rr, std::vector<NodeId>{kGrowerB});
  }

  bool partition_gap = false;  // a shard skipped a partition another filled
  const uint64_t in_place_before = InPlaceMerges();
  const int total_weight = param.add_set + param.batch + param.restore;
  while (rr.num_sets() < kSets) {
    const int op = static_cast<int>(rng() % total_weight);
    if (op < param.add_set) {
      const uint64_t burst = 50 + rng() % 400;
      for (uint64_t i = 0; i < burst; ++i) {
        rr.AddSet(draw(rr.num_sets()), 1 + rng() % 9);
      }
    } else if (op < param.add_set + param.batch) {
      std::vector<CompressedRRShard> shards(1 + rng() % 4);
      std::vector<std::vector<bool>> touched(shards.size(),
                                             std::vector<bool>(parts));
      uint64_t id = rr.num_sets();
      for (size_t s = 0; s < shards.size(); ++s) {
        ShardEncoder encoder;
        const uint64_t sets = 1 + rng() % 1500;
        // Edge streams draw each shard's members from a random subset of
        // the partitions, and give the last shard its own node.
        const uint64_t allowed = param.edges ? rng() : ~uint64_t{0};
        for (uint64_t i = 0; i < sets; ++i) {
          std::vector<NodeId> members = draw(id++);
          std::erase_if(members, [&](NodeId v) {
            return (allowed >> (v / 4096) & 1) == 0;
          });
          if (param.edges && s + 1 == shards.size() && chance(0.5)) {
            members.push_back(kLastShardOnly);
          }
          for (NodeId v : members) touched[s][v / 4096] = true;
          encoder.Add(&members, 1 + rng() % 9);
        }
        shards[s] = finish(&encoder);
      }
      for (uint32_t p = 0; p < parts; ++p) {
        bool any = false, all = true;
        for (const std::vector<bool>& t : touched) {
          any |= t[p];
          all &= t[p];
        }
        partition_gap |= any && !all;
      }
      rr.AddCompressedShards(std::move(shards),
                             rng() % 2 == 0 ? &pool : nullptr);
    } else {
      rr = RestoredCopy(rr);
      // Build on the pool (one draw in three) or serially.
      if (rng() % 3 == 0) {
        rr.BuildIndex(&pool);
      } else {
        rr.BuildIndex();
      }
    }
    std::vector<NodeId> seeds = {kDense, random_node(), random_node()};
    ExpectIndexMatchesBruteForce(rr, seeds);
    if (HasFatalFailure()) return;
  }
  // Batches small against the pool merged some partitions in place;
  // the restores' BuildIndex and the large batches rewrote the others.
  if (OPIM_TELEMETRY_ENABLED && param.batch > 0) {
    EXPECT_GT(InPlaceMerges(), in_place_before);
  }
  if (!param.edges) {
    EXPECT_GT(rr.CoveringCount(kDense), 10000u);
  } else {
    EXPECT_TRUE(partition_gap) << "no shard skipped a partition";
    EXPECT_GT(rr.CoveringCount(kPartTop), 0u);
    EXPECT_GT(rr.CoveringCount(kPartBottom), 0u);
    EXPECT_GT(rr.CoveringCount(kLastShardOnly), 0u);
  }
}

TEST(RRCollectionHubTest, HubInEverySetMovesAndCompacts) {
  // One hub in every set, through more than 10k AddSet appends mixed with
  // batches. It shares partition 1 with a partner in half the sets; the
  // other members come from partition 0. Each list fills behind the
  // other's, so it moves to the arena's tail each time it fills and after
  // each batch's tight rewrite, and the runs left behind get the
  // partition compacted.
  const uint32_t n = 2 * 4096;
  constexpr NodeId kHub = 4096 + 7;
  constexpr NodeId kPartner = 4096 + 300;
  std::mt19937_64 rng(23);
  auto draw = [&] {
    std::vector<NodeId> s = {kHub};
    if (rng() % 2 == 0) s.push_back(kPartner);
    const uint64_t size = rng() % 4;
    for (uint64_t i = 0; i < size; ++i) {
      s.push_back(static_cast<NodeId>(rng() % 4096));
    }
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    return s;
  };
  ThreadPool pool(4);
  RRCollection rr(n);
  uint64_t appends = 0;
  uint64_t moves = 0;     // AddSets after which the hub's list sits elsewhere
  uint64_t shrinks = 0;   // AddSets that lowered MemoryUsage: a compaction
  const RRId* hub_at = nullptr;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 1300; ++i) {
      const uint64_t before = rr.MemoryUsage();
      rr.AddSet(draw(), 1);
      ++appends;
      shrinks += rr.MemoryUsage() < before;
      const RRId* now = rr.Covering(kHub).data();
      moves += now != hub_at;
      hub_at = now;
    }
    std::vector<CompressedRRShard> shards(1 + round % 3);
    for (CompressedRRShard& shard : shards) {
      ShardEncoder encoder;
      for (int i = 0; i < 400; ++i) {
        std::vector<NodeId> s = draw();
        encoder.Add(&s, 1);
      }
      shard = encoder.Finish(n);
    }
    rr.AddCompressedShards(std::move(shards), round % 2 == 0 ? &pool : nullptr);
    ExpectIndexMatchesBruteForce(rr, std::vector<NodeId>{kHub, 7});
    RRCollection restored = RestoredCopy(rr);
    restored.BuildIndex(round % 2 == 0 ? &pool : nullptr);
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_TRUE(std::ranges::equal(restored.Covering(v), rr.Covering(v)))
          << "round " << round << " node " << v;
    }
    ExpectBandsMatchCounts(restored);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(rr.CoveringCount(kHub), rr.num_sets());
  EXPECT_GE(appends, 10000u);
  EXPECT_GE(moves, 20u);
  EXPECT_GE(shrinks, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, RRCollectionIndexDiffTest,
    ::testing::Values(IndexDiffCase{"AddSet", 1, 9, 0, 1},
                      IndexDiffCase{"Batch", 2, 0, 9, 1},
                      IndexDiffCase{"Mixed", 3, 4, 4, 1},
                      IndexDiffCase{"MixedNoRestore", 4, 1, 1, 0},
                      // The last partition holds a single node.
                      IndexDiffCase{"PartitionEdges", 5, 1, 6, 1,
                                    3 * 4096 + 1, true}),
    [](const ::testing::TestParamInfo<IndexDiffCase>& info) {
      return std::string(info.param.name);
    });

/// Expects the same member-count bands, entry for entry and in order.
void ExpectSameBands(const RRCollection& a, const RRCollection& b) {
  for (uint32_t band = 0; band < RRCollection::kMemberBands; ++band) {
    EXPECT_TRUE(
        std::ranges::equal(a.MemberAtLeast(band), b.MemberAtLeast(band)))
        << "band " << band;
  }
}

TEST(RRCollectionBandTest, MemberAtLeastTracksEveryIngestPath) {
  // Skewed membership over three partitions: low ids sit in many sets,
  // so the counts span a dozen powers of two.
  const uint32_t n = 2 * 4096 + 300;
  std::mt19937_64 rng(21);
  auto draw = [&] {
    std::vector<NodeId> s;
    const uint64_t size = 1 + rng() % 6;
    for (uint64_t i = 0; i < size; ++i) {
      const uint64_t u = rng() % n;
      s.push_back(static_cast<NodeId>(u * u / n * (rng() % n) / n));
    }
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    return s;
  };
  std::vector<std::vector<NodeId>> sets(40000);  // > 2^16 postings
  for (std::vector<NodeId>& s : sets) s = draw();
  // The sets as four shards, the engine's batch shape.
  auto shards_of = [&](size_t from, size_t to) {
    std::vector<CompressedRRShard> shards;
    for (size_t q = 0; q < 4; ++q) {
      ShardEncoder encoder;
      for (size_t i = from + (to - from) * q / 4;
           i < from + (to - from) * (q + 1) / 4; ++i) {
        std::vector<NodeId> s = sets[i];
        encoder.Add(&s, 1);
      }
      shards.push_back(encoder.Finish(n));
    }
    return shards;
  };
  ThreadPool pool(4);

  // AddSet appends.
  RRCollection added(n);
  for (size_t i = 0; i < 3000; ++i) added.AddSet(sets[i], 1);
  ExpectBandsMatchCounts(added);

  // One batch, at 1 and at 4 workers: the same lists. An empty pool
  // takes it by rewriting every partition.
  RRCollection serial(n);
  RRCollection parallel(n);
  uint64_t in_place = InPlaceMerges();
  serial.AddCompressedShards(shards_of(0, sets.size()));
  parallel.AddCompressedShards(shards_of(0, sets.size()), &pool);
  if (OPIM_TELEMETRY_ENABLED) {
    EXPECT_EQ(InPlaceMerges(), in_place);
  }
  ExpectBandsMatchCounts(serial);
  ExpectSameBands(serial, parallel);

  // A restored pool's BuildIndex, serial and on the pool.
  RRCollection restored = RestoredCopy(serial);
  restored.BuildIndex();
  ExpectBandsMatchCounts(restored);
  RRCollection restored4 = RestoredCopy(serial);
  restored4.BuildIndex(&pool);
  ExpectSameBands(restored, restored4);

  // A small batch onto the large pool, at 1 and at 4 workers: every
  // partition it touches takes its postings in place, and the lists are
  // the same.
  in_place = InPlaceMerges();
  restored.AddCompressedShards(shards_of(0, 400));
  if (OPIM_TELEMETRY_ENABLED) {
    EXPECT_GT(InPlaceMerges(), in_place);
  }
  in_place = InPlaceMerges();
  restored4.AddCompressedShards(shards_of(0, 400), &pool);
  if (OPIM_TELEMETRY_ENABLED) {
    EXPECT_GT(InPlaceMerges(), in_place);
  }
  ExpectIndexMatchesBruteForce(restored, std::vector<NodeId>{0, 1, 2});
  ExpectSameBands(restored, restored4);

  // Mixed: AddSet on top of a batch, then another batch, too large
  // against the pool to merge in place.
  for (int i = 0; i < 5000; ++i) parallel.AddSet(draw(), 1);
  in_place = InPlaceMerges();
  parallel.AddCompressedShards(shards_of(0, 20000), &pool);
  if (OPIM_TELEMETRY_ENABLED) {
    EXPECT_EQ(InPlaceMerges(), in_place);
  }
  ExpectBandsMatchCounts(parallel);

  // The top band holds the hub alone; the ones above it are empty.
  uint64_t max_count = 0;
  for (NodeId v = 0; v < n; ++v) {
    max_count = std::max<uint64_t>(max_count, parallel.CoveringCount(v));
  }
  const auto top = static_cast<uint32_t>(std::bit_width(max_count)) - 1;
  ASSERT_GE(top, 12u);
  EXPECT_FALSE(parallel.MemberAtLeast(top).empty());
  for (uint32_t b = top + 1; b < RRCollection::kMemberBands; ++b) {
    EXPECT_TRUE(parallel.MemberAtLeast(b).empty()) << "band " << b;
  }
  // The bands are part of the metered footprint.
  RRCollection empty(n);
  EXPECT_GE(parallel.MemoryUsage(),
            empty.MemoryUsage() +
                parallel.MemberAtLeast(0).size() * sizeof(NodeId));
}

TEST(RRCollectionTest, ManySetsStressInvertedIndex) {
  const uint32_t n = 50;
  RRCollection rr(n);
  for (uint32_t i = 0; i < 1000; ++i) {
    std::vector<NodeId> set = {i % n, (i * 7 + 1) % n};
    rr.AddSet(set, 2);
  }
  // Sum of per-node cover list lengths equals total stored nodes.
  uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) total += rr.CoveringCount(v);
  EXPECT_EQ(total, rr.total_size());
}

TEST(RRCollectionTest, MemoryUsageReflectsCompressedFootprint) {
  // MemoryUsage() is what the PR 4 budget meters; it must track the
  // compressed pool, not the raw member bytes.
  const uint32_t n = 2000;
  RRCollection rr(n);
  for (uint32_t i = 0; i < 500; ++i) {
    std::vector<NodeId> s;
    for (uint32_t j = 0; j < 20; ++j) s.push_back((i * 37 + j * 7) % n);
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    rr.AddSet(s, 1);
  }
  EXPECT_GE(rr.MemoryUsage(), rr.CompressedMemberBytes());
  EXPECT_LT(rr.CompressedMemberBytes(), rr.RawMemberBytes());
}

}  // namespace
}  // namespace opim
