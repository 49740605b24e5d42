#include "rrset/rr_collection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <span>
#include <utility>
#include <vector>

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
  EXPECT_EQ(rr.SetCost(0), 7u);
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
  EXPECT_EQ(rr.DecodeCovering(1), (std::vector<RRId>{0, 1, 2}));
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

TEST(RRCollectionTest, DroppedCostColumn) {
  RRCollection rr(4, RRStoreOptions{.retain_set_costs = false});
  EXPECT_FALSE(rr.retains_set_costs());
  rr.AddSet(std::vector<NodeId>{0, 1}, 9);
  // Aggregate γ survives even without the per-set column.
  EXPECT_EQ(rr.total_edges_examined(), 9u);
  EXPECT_EQ(rr.DecodeSet(0), (std::vector<NodeId>{0, 1}));
}

TEST(RRCollectionTest, ForEachAccessorsMatchDecode) {
  // ForEachMember / ForEachCovering are the zero-allocation hot-path
  // views; they must agree with the materializing helpers for both
  // posting representations (high-frequency nodes flip to blocks).
  const uint32_t n = 40;
  RRCollection rr(n);
  for (uint32_t i = 0; i < 600; ++i) {
    std::vector<NodeId> s = {0, static_cast<NodeId>(i % n),
                             static_cast<NodeId>((i * 11 + 3) % n)};
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    rr.AddSet(s, 1);
  }
  for (RRId id = 0; id < rr.num_sets(); ++id) {
    std::vector<NodeId> walked;
    rr.ForEachMember(id, [&](NodeId v) { walked.push_back(v); });
    EXPECT_EQ(walked, rr.DecodeSet(id)) << "set " << id;
  }
  for (NodeId v = 0; v < n; ++v) {
    std::vector<RRId> walked;
    rr.ForEachCovering(v, [&](RRId id) { walked.push_back(id); });
    const std::vector<RRId> decoded = rr.DecodeCovering(v);
    EXPECT_EQ(walked, decoded) << "node " << v;
    EXPECT_EQ(rr.CoveringCount(v), decoded.size()) << "node " << v;
    EXPECT_TRUE(std::is_sorted(decoded.begin(), decoded.end()));
  }
}

/// Expects identical sets, costs, and inverted index in both collections,
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
    if (a.retains_set_costs() && b.retains_set_costs()) {
      EXPECT_EQ(a.SetCost(id), b.SetCost(id));
    }
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.DecodeCovering(v), b.DecodeCovering(v)) << "node " << v;
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
  EXPECT_EQ(rr.DecodeCovering(1), (std::vector<RRId>{0, 1}));
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

/// Checks every node's postings, count and membership count, the nonzero
/// list, and the coverage of `seeds` against the brute-force index.
void ExpectIndexMatchesBruteForce(const RRCollection& rr,
                                  std::span<const NodeId> seeds) {
  const std::vector<std::vector<RRId>> index = BruteForceIndex(rr);
  const std::span<const uint64_t> counts = rr.MemberCounts();
  ASSERT_EQ(counts.size(), rr.num_nodes());
  std::vector<char> nonzero(rr.num_nodes(), 0);
  for (NodeId v : rr.MemberNonzero()) {
    ASSERT_LT(v, rr.num_nodes());
    EXPECT_FALSE(nonzero[v]) << "node " << v << " listed twice";
    nonzero[v] = 1;
  }
  for (NodeId v = 0; v < rr.num_nodes(); ++v) {
    ASSERT_EQ(rr.DecodeCovering(v), index[v]) << "node " << v;
    EXPECT_EQ(rr.CoveringCount(v), index[v].size()) << "node " << v;
    EXPECT_EQ(counts[v], index[v].size()) << "node " << v;
    EXPECT_EQ(nonzero[v] != 0, !index[v].empty()) << "node " << v;
  }
  std::vector<RRId> covered;
  for (NodeId v : seeds) {
    covered.insert(covered.end(), index[v].begin(), index[v].end());
  }
  std::sort(covered.begin(), covered.end());
  covered.erase(std::unique(covered.begin(), covered.end()), covered.end());
  EXPECT_EQ(rr.CoverageOf(seeds), covered.size());
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
      rr.num_nodes(), {}, std::move(runs),
      {rr.slots().begin(), rr.slots().end()},
      {rr.set_costs().begin(), rr.set_costs().end()}, rr.total_size(),
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
      EXPECT_LT(shard.post_sets[i], shard.sets.size());
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
  // Partition 2 holds only these nodes: two raw growers that relocate in
  // lockstep (so AddSet leaves enough dead entries to compact the raw
  // arena) and a hub that is dense, then sparse (blocks, then raw).
  constexpr NodeId kPart2 = 2 * 4096;
  constexpr NodeId kGrowerA = kPart2 + 8;
  constexpr NodeId kGrowerB = kPart2 + 808;
  constexpr NodeId kDenseThenSparse = kPart2 + 100;
  // Two hubs in blocks throughout, in lockstep (the block arena's
  // compaction), and one that turns dense halfway (raw, then blocks).
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
  auto is_blocks = [&](NodeId v) { return !rr.Covering(v).words.empty(); };

  if (param.edges) {
    // The dense hub's move from raw ids to blocks, and later the growers'
    // lockstep relocations, leave more dead than live raw ids, so AddSet
    // compacts partition 2. Meanwhile kSparseThenDense stays raw.
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
    ASSERT_TRUE(is_blocks(kDenseThenSparse));
    ASSERT_FALSE(is_blocks(kSparseThenDense));
    // One batch both crosses the rule the two ways — the dense hub falls
    // back to raw (one new id per 64-id word) while the sparse one turns
    // dense — and appends to the compacted partition.
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
    ASSERT_FALSE(is_blocks(kDenseThenSparse));
    ASSERT_TRUE(is_blocks(kSparseThenDense));
  }

  bool dense_was_blocks = false;
  bool dense_back_to_raw = false;
  bool sparse_was_raw = false;
  bool sparse_to_blocks = false;
  bool partition_gap = false;  // a shard skipped a partition another filled
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
      // Build on the pool, serially, or lazily at the next read.
      const uint64_t build = rng() % 3;
      if (build == 0) rr.EnsureIndex(&pool);
      if (build == 1) rr.EnsureIndex();
    }
    std::vector<NodeId> seeds = {kDense, random_node(), random_node()};
    ExpectIndexMatchesBruteForce(rr, seeds);
    if (HasFatalFailure()) return;
    const bool dense_blocks = is_blocks(kDenseThenSparse);
    dense_back_to_raw |= dense_was_blocks && !dense_blocks;
    dense_was_blocks |= dense_blocks;
    const bool sparse_blocks = is_blocks(kSparseThenDense);
    sparse_to_blocks |= sparse_was_raw && sparse_blocks;
    sparse_was_raw |= !sparse_blocks && rr.CoveringCount(kSparseThenDense) > 0;
  }
  if (!param.edges) {
    EXPECT_TRUE(dense_back_to_raw) << "blocks -> raw never happened";
    EXPECT_TRUE(sparse_to_blocks) << "raw -> blocks never happened";
    EXPECT_GT(rr.CoveringCount(kDense), 10000u);
  } else {
    EXPECT_TRUE(partition_gap) << "no shard skipped a partition";
    EXPECT_GT(rr.CoveringCount(kPartTop), 0u);
    EXPECT_GT(rr.CoveringCount(kPartBottom), 0u);
    EXPECT_GT(rr.CoveringCount(kLastShardOnly), 0u);
  }
  EXPECT_FALSE(rr.Covering(kDense).words.empty());
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
