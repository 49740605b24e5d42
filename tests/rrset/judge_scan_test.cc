// Differential tests for the judge scan: an RRCollection built with
// RRStoreOptions::index = false answers CoverageOf and CoverageByPrefix
// by one pass over its compressed sets, and must agree with the indexed
// path (the postings walk) over the same sets, whether the sets arrived
// through AddSet or as ShardEncoder shards, and with chunks spilled.
// The per-prefix Λ2 of a CELF selection, which certifies every traced
// seed-set size, is pinned the same way, and the unindexed pool must
// hold no index and refuse index reads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rrset/rr_collection.h"
#include "select/greedy.h"
#include "support/random.h"

namespace opim {
namespace {

constexpr RRStoreOptions kIndexed{};
constexpr RRStoreOptions kUnindexed{.index = false};

using Sets = std::vector<std::vector<NodeId>>;

/// Random distinct-member sets over nodes [0, used) of an n-node graph:
/// empty sets, singletons, 2-4 members and 5-40 members, so the pool
/// mixes inline slots with short and long encodings. Nodes in
/// [used, n) are in no set.
Sets RandomSets(uint32_t used, uint32_t count, uint64_t seed) {
  Rng rng(seed);
  Sets sets(count);
  for (std::vector<NodeId>& s : sets) {
    const uint32_t kind = rng.UniformBelow(4);
    const uint32_t size = kind == 0   ? 0
                          : kind == 1 ? 1
                          : kind == 2 ? 2 + rng.UniformBelow(3)
                                      : 5 + rng.UniformBelow(36);
    for (uint32_t j = 0; j < size; ++j) s.push_back(rng.UniformBelow(used));
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }
  return sets;
}

/// The sets as ShardEncoder shards of a few dozen sets each, finished
/// with or without postings the way generation workers finish them for
/// their destination.
std::vector<CompressedRRShard> Shards(uint32_t n, const Sets& sets,
                                      bool postings) {
  std::vector<CompressedRRShard> shards;
  ShardEncoder encoder;
  for (size_t i = 0; i < sets.size(); ++i) {
    std::vector<NodeId> members = sets[i];
    encoder.Add(&members, 1);
    if (i % 37 == 36 || i + 1 == sets.size()) {
      shards.push_back(encoder.Finish(n, postings));
    }
  }
  return shards;
}

RRCollection FromShards(uint32_t n, const Sets& sets, RRStoreOptions store) {
  RRCollection rr(n, store);
  rr.AddCompressedShards(Shards(n, sets, store.index));
  return rr;
}

RRCollection FromAddSet(uint32_t n, const Sets& sets, RRStoreOptions store) {
  RRCollection rr(n, store);
  for (const std::vector<NodeId>& s : sets) rr.AddSet(s, 1);
  return rr;
}

/// Λ of every seed prefix, counted set by set.
std::vector<uint64_t> BruteForcePrefix(const Sets& sets,
                                       std::span<const NodeId> seeds) {
  std::vector<uint64_t> at(seeds.size() + 1, 0);
  for (size_t i = 1; i <= seeds.size(); ++i) {
    for (const std::vector<NodeId>& s : sets) {
      at[i] += std::any_of(seeds.begin(), seeds.begin() + i, [&](NodeId v) {
        return std::binary_search(s.begin(), s.end(), v);
      });
    }
  }
  return at;
}

/// Seed lists that exercise the scan's corner cases: random seeds, a
/// list with duplicates, seeds that no set contains, and more seeds than
/// the pool has covered sets. Requires 8 <= used < n.
std::vector<std::vector<NodeId>> SeedLists(uint32_t used, uint32_t n,
                                           uint64_t seed) {
  OPIM_CHECK(used >= 8 && used < n);
  Rng rng(seed);
  std::vector<std::vector<NodeId>> lists;
  for (uint32_t k : {1u, 3u, 10u, 50u}) {
    std::vector<NodeId> seeds(k);
    for (NodeId& v : seeds) v = rng.UniformBelow(used);
    lists.push_back(seeds);
  }
  lists.push_back({7, 3, 7, 7, 1, 3, 0});  // duplicates
  std::vector<NodeId> outside;
  for (NodeId v = used; v < n; v += 3) outside.push_back(v);
  lists.push_back(outside);  // in no set
  std::vector<NodeId> mixed = outside;
  mixed.push_back(used - 1);
  mixed.push_back(outside.front());  // duplicate of a seed in no set
  lists.push_back(mixed);
  return lists;
}

void ExpectSameCoverage(const RRCollection& indexed,
                        const RRCollection& scanned, const Sets& sets,
                        std::span<const NodeId> seeds) {
  ASSERT_TRUE(indexed.indexed());
  ASSERT_FALSE(scanned.indexed());
  const std::vector<uint64_t> want = indexed.CoverageByPrefix(seeds);
  EXPECT_EQ(want, BruteForcePrefix(sets, seeds));
  EXPECT_EQ(scanned.CoverageByPrefix(seeds), want);
  EXPECT_EQ(scanned.CoverageOf(seeds), want.back());
  EXPECT_EQ(indexed.CoverageOf(seeds), want.back());
}

struct PoolCase {
  uint32_t n;      // deliberately not a multiple of 64
  uint32_t used;   // nodes [used, n) are in no set
  uint32_t count;  // sets
};

// Keeps gtest (and the ctest names it discovers) from printing raw bytes.
void PrintTo(const PoolCase& c, std::ostream* os) {
  *os << "n=" << c.n << " used=" << c.used << " sets=" << c.count;
}

class JudgeScanTest : public ::testing::TestWithParam<PoolCase> {};

TEST_P(JudgeScanTest, MatchesIndexedPoolBuiltFromShards) {
  const PoolCase c = GetParam();
  const Sets sets = RandomSets(c.used, c.count, c.n);
  const RRCollection indexed = FromShards(c.n, sets, kIndexed);
  const RRCollection scanned = FromShards(c.n, sets, kUnindexed);
  EXPECT_TRUE(std::ranges::equal(scanned.slots(), indexed.slots()));
  EXPECT_EQ(scanned.total_size(), indexed.total_size());
  for (const std::vector<NodeId>& seeds : SeedLists(c.used, c.n, c.count)) {
    ExpectSameCoverage(indexed, scanned, sets, seeds);
  }
}

TEST_P(JudgeScanTest, MatchesIndexedPoolBuiltWithAddSet) {
  const PoolCase c = GetParam();
  const Sets sets = RandomSets(c.used, c.count, c.n + 1);
  const RRCollection indexed = FromAddSet(c.n, sets, kIndexed);
  const RRCollection scanned = FromAddSet(c.n, sets, kUnindexed);
  for (const std::vector<NodeId>& seeds : SeedLists(c.used, c.n, c.count)) {
    ExpectSameCoverage(indexed, scanned, sets, seeds);
  }
}

TEST_P(JudgeScanTest, Lambda2AtMatchesIndexedJudgeAtEveryPrefix) {
  const PoolCase c = GetParam();
  const RRCollection r1 =
      FromShards(c.n, RandomSets(c.used, c.count, c.n + 2), kIndexed);
  const Sets judge = RandomSets(c.used, c.count, c.n + 3);
  const RRCollection indexed = FromShards(c.n, judge, kIndexed);
  const RRCollection scanned = FromShards(c.n, judge, kUnindexed);
  for (uint32_t k : {1u, 8u, 40u}) {
    const GreedyResult greedy = SelectGreedyCelf(r1, k);
    const std::vector<uint64_t> want = indexed.CoverageByPrefix(greedy.seeds);
    ASSERT_EQ(want.size(), greedy.seeds.size() + 1);
    const std::vector<uint64_t> got = scanned.CoverageByPrefix(greedy.seeds);
    for (uint32_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "k=" << k << " prefix " << i;
    }
    EXPECT_EQ(got.back(), scanned.CoverageOf(greedy.seeds));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pools, JudgeScanTest,
    ::testing::Values(PoolCase{1000, 900, 3000},  // sets > seeds' coverage
                      PoolCase{77, 70, 200},      // tiny n, dense seeds
                      PoolCase{130, 129, 9000},   // spans three chunks
                      PoolCase{4099, 4000, 30}),  // more seeds than sets
    [](const ::testing::TestParamInfo<PoolCase>& info) {
      return "n" + std::to_string(info.param.n) + "sets" +
             std::to_string(info.param.count);
    });

TEST(JudgeScanSpillTest, SpilledChunksAreReadOncePerScan) {
  constexpr uint32_t kN = 5003;
  const Sets sets = RandomSets(kN - 3, 5 * 4096 + 100, 9);
  const RRCollection indexed = FromShards(kN, sets, kIndexed);
  RRCollection scanned = FromShards(kN, sets, kUnindexed);
  ASSERT_TRUE(scanned.EnableSpill({.dir = ::testing::TempDir()}).ok());
  auto spilled = scanned.SpillColdChunks(0);
  ASSERT_TRUE(spilled.ok());
  ASSERT_GE(spilled.ValueOrDie(), 4u);  // every sealed chunk
  for (const std::vector<NodeId>& seeds : SeedLists(kN - 3, kN, 4)) {
    const uint64_t faulted = scanned.SpillStats().chunks_faulted;
    EXPECT_EQ(scanned.CoverageByPrefix(seeds),
              indexed.CoverageByPrefix(seeds));
    // The sticky zero target evicts each chunk again once the scan moves
    // on, so every sealed chunk is faulted in exactly once per pass.
    EXPECT_EQ(scanned.SpillStats().chunks_faulted - faulted,
              scanned.num_pool_chunks() - 1u);
  }
}

TEST(JudgeScanShardTest, UnsealedShardsAreSealedAtIngest) {
  // A worker that threw mid-Add leaves its shard unsealed, possibly with
  // orphan trailing bytes; an unindexed ingest strips them and counts
  // the members from the records.
  constexpr uint32_t kN = 300;
  const Sets sets = RandomSets(kN, 500, 3);
  ShardEncoder encoder;
  for (std::vector<NodeId> s : sets) encoder.Add(&s, 1);
  CompressedRRShard finished = encoder.Finish(kN, /*postings=*/false);
  EXPECT_TRUE(finished.sealed);
  EXPECT_FALSE(finished.finalized());
  CompressedRRShard raw;
  raw.bytes = finished.bytes;
  raw.bytes.insert(raw.bytes.end(), {0x05, 0x01, 0x02});  // orphan bytes
  raw.recs = finished.recs;
  raw.edges_examined = finished.edges_examined;
  std::vector<CompressedRRShard> shards;
  shards.push_back(std::move(raw));
  RRCollection scanned(kN, kUnindexed);
  scanned.AddCompressedShards(std::move(shards));
  const RRCollection indexed = FromAddSet(kN, sets, kIndexed);
  EXPECT_EQ(scanned.total_size(), indexed.total_size());
  EXPECT_EQ(scanned.CompressedMemberBytes(), indexed.CompressedMemberBytes());
  for (const std::vector<NodeId>& seeds : SeedLists(kN - 10, kN, 5)) {
    ExpectSameCoverage(indexed, scanned, sets, seeds);
  }
}

TEST(JudgeScanStorageTest, UnindexedPoolKeepsNoIndex) {
  constexpr uint32_t kN = 20000;
  const Sets sets = RandomSets(kN, 2000, 11);
  const RRCollection indexed = FromShards(kN, sets, kIndexed);
  const RRCollection scanned = FromShards(kN, sets, kUnindexed);
  // The pool alone: bytes with their growth slack, slots, chunk records.
  EXPECT_LT(scanned.MemoryUsage(),
            2 * scanned.CompressedMemberBytes() + 8 * scanned.num_sets() +
                128 * scanned.num_pool_chunks());
  EXPECT_GT(indexed.MemoryUsage(), scanned.MemoryUsage() + 8 * kN);
  EXPECT_DEATH(scanned.Covering(0), "keeps no index");
  EXPECT_DEATH(scanned.CoveringCount(0), "keeps no index");
  EXPECT_DEATH(scanned.MemberAtLeast(0), "keeps no index");
}

TEST(JudgeScanStorageTest, RestoredPoolIsAJudgePoolUntilBuilt) {
  constexpr uint32_t kN = 901;
  const Sets sets = RandomSets(kN - 1, 6000, 12);
  const RRCollection indexed = FromShards(kN, sets, kIndexed);
  std::vector<std::vector<uint8_t>> runs;
  for (uint32_t c = 0; c < indexed.num_pool_chunks(); ++c) {
    const std::span<const uint8_t> run = indexed.ChunkRun(c);
    runs.emplace_back(run.begin(), run.end());
  }
  RRCollection restored = RRCollection::RestoreFromSnapshotParts(
      kN, std::move(runs),
      std::vector<uint32_t>(indexed.slots().begin(), indexed.slots().end()),
      indexed.total_size(), indexed.total_edges_examined());
  EXPECT_FALSE(restored.indexed());
  EXPECT_DEATH(restored.CoveringCount(0), "keeps no index");
  for (const std::vector<NodeId>& seeds : SeedLists(kN - 1, kN, 6)) {
    EXPECT_EQ(restored.CoverageByPrefix(seeds),
              indexed.CoverageByPrefix(seeds));
  }
  // Appends keep it unindexed.
  restored.AddSet(std::vector<NodeId>{1, 2, 3}, 1);
  EXPECT_EQ(restored.num_sets(), indexed.num_sets() + 1);
  EXPECT_FALSE(restored.indexed());
  EXPECT_EQ(restored.CoverageOf(std::vector<NodeId>{2}),
            indexed.CoverageOf(std::vector<NodeId>{2}) + 1);
  // BuildIndex indexes it, once.
  restored.BuildIndex();
  EXPECT_TRUE(restored.indexed());
  EXPECT_EQ(restored.CoveringCount(2), indexed.CoveringCount(2) + 1);
  EXPECT_EQ(restored.CoveringCount(5), indexed.CoveringCount(5));
  EXPECT_DEATH(restored.BuildIndex(), "indexed RR collection");
}

}  // namespace
}  // namespace opim
