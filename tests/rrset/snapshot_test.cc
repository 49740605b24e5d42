// .opimss snapshot container (rrset/snapshot.h): round-trip bit
// identity, the strict-loader corruption taxonomy (every defect class a
// distinct clean Status, never UB — the fuzz case runs meaningfully
// under the ASan config), and the atomic-publish failure contract via
// the snapshot.* fault-injection sites (real only in
// OPIM_FAULT_INJECT=ON builds).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/graph_mmap.h"
#include "rrset/rr_collection.h"
#include "rrset/snapshot.h"
#include "support/fault_inject.h"
#include "support/random.h"

namespace opim {
namespace {

/// `name` under the gtest temp dir, prefixed with the running test's name.
/// gtest_discover_tests runs every case as its own process and `ctest -j`
/// runs them side by side, so cases that shared a file would overwrite
/// each other's bytes mid-test.
std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + test->test_suite_name() + "." +
         test->name() + "." + name;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Recomputes the payload checksum after a deliberate payload patch, so
/// the test reaches the structural validation behind the checksum.
void FixChecksum(std::vector<uint8_t>* bytes) {
  ASSERT_GE(bytes->size(), kOpimssHeaderBytes);
  const uint64_t sum = OpimgChecksum(bytes->data() + kOpimssHeaderBytes,
                                     bytes->size() - kOpimssHeaderBytes);
  std::memcpy(bytes->data() + kOpimssChecksumOffset, &sum, sizeof(sum));
}

constexpr uint32_t kNodes = 20000;

/// A pool exercising every slot encoding: empty sets, inline singletons,
/// and multi-member sets spanning several 4096-set chunks.
RRCollection MixedCollection(uint32_t num_sets, uint64_t seed) {
  RRCollection rr(kNodes);
  Rng rng(seed);
  std::vector<NodeId> members;
  for (uint32_t i = 0; i < num_sets; ++i) {
    members.clear();
    const uint32_t shape = rng.NextU32() % 10;
    uint32_t size = 0;
    if (shape == 0) {
      size = 0;  // empty set (kEmpty slot)
    } else if (shape <= 4) {
      size = 1;  // inline singleton
    } else {
      size = 2 + rng.NextU32() % 20;
    }
    for (uint32_t j = 0; j < size; ++j) {
      members.push_back(rng.NextU32() % kNodes);
    }
    rr.AddSet(members, size + rng.NextU32() % 7);
  }
  return rr;
}

SnapshotRunState TestRunState() {
  SnapshotRunState run;
  run.run_seed = 42;
  run.batch_counter = 7;
  run.peak_rr_bytes = 123456;
  run.graph_nodes = kNodes;
  run.graph_edges = 987654;
  run.eps = 0.1;
  run.delta = 1e-3;
  run.next_iteration = 5;
  run.num_threads = 4;
  run.k = 25;
  run.bound = 1;
  run.model = 0;
  run.clean_boundary = 1;
  return run;
}

void ExpectPoolsEqual(const RRCollection& a, const RRCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.total_size(), b.total_size());
  EXPECT_EQ(a.total_edges_examined(), b.total_edges_examined());
  EXPECT_EQ(a.CompressedMemberBytes(), b.CompressedMemberBytes());
  for (RRId id = 0; id < a.num_sets(); ++id) {
    ASSERT_EQ(a.DecodeSet(id), b.DecodeSet(id)) << "set " << id;
  }
  // The index is not serialized, so a loaded pool is unindexed and
  // answers coverage by judge scan; it must still agree.
  for (NodeId v : {NodeId{0}, NodeId{17}, NodeId{4242}, NodeId{kNodes - 1}}) {
    const std::vector<NodeId> seeds = {v};
    EXPECT_EQ(a.CoverageOf(seeds), b.CoverageOf(seeds)) << "node " << v;
  }
}

TEST(SnapshotTest, RoundTripBitIdentity) {
  const std::string path = TempPath("roundtrip.opimss");
  RRCollection r1 = MixedCollection(2 * 4096 + 333, /*seed=*/3);
  RRCollection r2 = MixedCollection(4096 + 17, /*seed=*/5);
  const SnapshotRunState run = TestRunState();

  auto saved = SaveSnapshot(run, r1, r2, path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved.ValueOrDie(), ReadAll(path).size());

  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const RRPoolSnapshot& snap = loaded.ValueOrDie();
  EXPECT_EQ(0, std::memcmp(&snap.run, &run, sizeof(run)));
  ExpectPoolsEqual(r1, snap.r1);
  ExpectPoolsEqual(r2, snap.r2);

  // Re-serializing the restored state reproduces the container
  // byte-for-byte: the wire format is canonical.
  const std::string path2 = TempPath("roundtrip2.opimss");
  auto saved2 = SaveSnapshot(snap.run, snap.r1, snap.r2, path2);
  ASSERT_TRUE(saved2.ok()) << saved2.status().ToString();
  EXPECT_EQ(ReadAll(path), ReadAll(path2));
}

TEST(SnapshotTest, EmptyPoolsRoundTrip) {
  const std::string path = TempPath("empty.opimss");
  RRCollection r1(kNodes), r2(kNodes);
  ASSERT_TRUE(SaveSnapshot(TestRunState(), r1, r2, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().r1.num_sets(), 0u);
  EXPECT_EQ(loaded.ValueOrDie().r2.num_sets(), 0u);
}

TEST(SnapshotTest, SpilledPoolSerializesIdentically) {
  // A pool with chunks evicted to the spill tier must produce the same
  // container as its fully-resident twin (ChunkRun faults them in).
  const std::string resident_path = TempPath("resident.opimss");
  const std::string spilled_path = TempPath("spilled.opimss");
  RRCollection resident = MixedCollection(3 * 4096 + 50, /*seed=*/29);
  RRCollection spilled = MixedCollection(3 * 4096 + 50, /*seed=*/29);
  ASSERT_TRUE(spilled.EnableSpill({.dir = ::testing::TempDir()}).ok());
  auto evicted = spilled.SpillColdChunks(/*target_resident_bytes=*/0);
  ASSERT_TRUE(evicted.ok()) << evicted.status().ToString();
  ASSERT_GT(evicted.ValueOrDie(), 0u);

  const SnapshotRunState run = TestRunState();
  ASSERT_TRUE(SaveSnapshot(run, resident, resident, resident_path).ok());
  ASSERT_TRUE(SaveSnapshot(run, spilled, spilled, spilled_path).ok());
  EXPECT_EQ(ReadAll(resident_path), ReadAll(spilled_path));
}

// ---------------------------------------------------------------------
// Corruption taxonomy: each defect class fails with its distinct
// message, and none of them crash.

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("corrupt.opimss");
    RRCollection r1 = MixedCollection(700, /*seed=*/7);
    RRCollection r2 = MixedCollection(300, /*seed=*/9);
    ASSERT_TRUE(SaveSnapshot(TestRunState(), r1, r2, path_).ok());
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), kOpimssHeaderBytes + sizeof(SnapshotRunState));
  }

  /// Writes the (mutated) bytes back and expects a clean rejection
  /// whose message contains `needle`.
  void ExpectRejected(const std::string& needle) {
    WriteAll(path_, bytes_);
    auto loaded = LoadSnapshot(path_);
    ASSERT_FALSE(loaded.ok()) << "accepted a corrupt snapshot";
    EXPECT_NE(loaded.status().message().find(needle), std::string::npos)
        << "got: " << loaded.status().ToString();
  }

  std::string path_;
  std::vector<uint8_t> bytes_;
};

TEST_F(SnapshotCorruptionTest, TruncatedHeader) {
  bytes_.resize(kOpimssHeaderBytes / 2);
  ExpectRejected("truncated snapshot header");
}

TEST_F(SnapshotCorruptionTest, TruncatedPayload) {
  bytes_.resize(bytes_.size() - 10);
  ExpectRejected("truncated snapshot payload");
}

TEST_F(SnapshotCorruptionTest, TrailingBytes) {
  bytes_.push_back(0);
  ExpectRejected("trailing bytes");
}

TEST_F(SnapshotCorruptionTest, BadMagic) {
  bytes_[0] ^= 0xFF;
  ExpectRejected("bad snapshot magic");
}

TEST_F(SnapshotCorruptionTest, FutureVersion) {
  const uint32_t v = 99;
  std::memcpy(bytes_.data() + kOpimssVersionOffset, &v, sizeof(v));
  ExpectRejected("unsupported snapshot version 99");
}

TEST_F(SnapshotCorruptionTest, FlippedPayloadByte) {
  bytes_[bytes_.size() - 3] ^= 0x40;
  ExpectRejected("payload checksum mismatch");
}

TEST_F(SnapshotCorruptionTest, DeclaredLengthOverflow) {
  // Inflate R1's num_sets/num_chunks consistently and re-checksum, so
  // the slot-array read (1 GiB declared) is what must fail — behind the
  // checksum, only the cursor's bounds check stands between this file
  // and a wild read.
  const size_t pool_hdr = kOpimssHeaderBytes + sizeof(SnapshotRunState);
  const uint32_t huge_sets = 0x10000000;            // 268M sets
  const uint32_t huge_chunks = huge_sets / 4096;    // consistent chunk count
  std::memcpy(bytes_.data() + pool_hdr + 4, &huge_sets, sizeof(huge_sets));
  std::memcpy(bytes_.data() + pool_hdr + 8, &huge_chunks, sizeof(huge_chunks));
  FixChecksum(&bytes_);
  ExpectRejected("declares oversized pool slot array");
}

TEST_F(SnapshotCorruptionTest, OversizedChunkRunLength) {
  // Find R1's first chunk-run length word and blow it past the 31-bit
  // slot-offset ceiling; with a fixed checksum the structural check must
  // still reject it.
  const size_t pool_hdr = kOpimssHeaderBytes + sizeof(SnapshotRunState);
  uint32_t num_sets = 0;
  std::memcpy(&num_sets, bytes_.data() + pool_hdr + 4, sizeof(num_sets));
  const size_t run_len_at = pool_hdr + 40 + size_t{num_sets} * 4;
  const uint64_t huge = uint64_t{1} << 33;
  std::memcpy(bytes_.data() + run_len_at, &huge, sizeof(huge));
  FixChecksum(&bytes_);
  ExpectRejected("declares oversized chunk run");
}

TEST_F(SnapshotCorruptionTest, PoolNodeCountMismatch) {
  // R1's node count disagreeing with the run state must be caught even
  // when the pool itself is self-consistent.
  const size_t pool_hdr = kOpimssHeaderBytes + sizeof(SnapshotRunState);
  const uint32_t other_nodes = kNodes + 1;
  std::memcpy(bytes_.data() + pool_hdr, &other_nodes, sizeof(other_nodes));
  FixChecksum(&bytes_);
  // Either an inline member is now out of range for the shrunken space
  // (not here — we grew it) or the final cross-check fires.
  ExpectRejected("pool node count disagrees with run state");
}

TEST_F(SnapshotCorruptionTest, ReservedPoolWordRejected) {
  // R1's pool-header word at offset 12 is reserved: a nonzero value is
  // refused before any section is read.
  const size_t pool_hdr = kOpimssHeaderBytes + sizeof(SnapshotRunState);
  const uint32_t one = 1;
  std::memcpy(bytes_.data() + pool_hdr + 12, &one, sizeof(one));
  FixChecksum(&bytes_);
  ExpectRejected("snapshot pool R1 has a nonzero reserved header word");
}

TEST_F(SnapshotCorruptionTest, RandomMutationFuzzNeverCrashes) {
  // 300 deterministic random mutations (bit flips, truncations, length
  // patches with fixed checksums). The loader may accept or reject each;
  // it must never crash, leak, or read out of bounds (the ASan config in
  // run_all.sh runs this suite).
  Rng rng(0xF00D);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> mutated = bytes_;
    const uint32_t kind = rng.NextU32() % 4;
    if (kind == 0) {
      mutated.resize(rng.NextU32() % (mutated.size() + 1));
    } else if (kind == 1) {
      const int flips = 1 + static_cast<int>(rng.NextU32() % 8);
      for (int i = 0; i < flips; ++i) {
        mutated[rng.NextU32() % mutated.size()] ^=
            static_cast<uint8_t>(1u << (rng.NextU32() % 8));
      }
    } else {
      // Patch a random word inside the payload, then fix the checksum so
      // the structural validators (not the checksum) do the rejecting.
      if (mutated.size() > kOpimssHeaderBytes + 8) {
        const size_t at = kOpimssHeaderBytes +
                          rng.NextU32() % (mutated.size() -
                                           kOpimssHeaderBytes - 8);
        uint64_t word = rng.NextU64();
        std::memcpy(mutated.data() + at, &word, kind == 2 ? 4 : 8);
        if (mutated.size() >= kOpimssHeaderBytes) {
          const uint64_t sum =
              OpimgChecksum(mutated.data() + kOpimssHeaderBytes,
                            mutated.size() - kOpimssHeaderBytes);
          std::memcpy(mutated.data() + kOpimssChecksumOffset, &sum,
                      sizeof(sum));
        }
      }
    }
    WriteAll(path_, mutated);
    auto loaded = LoadSnapshot(path_);  // must return, never crash
    (void)loaded;
  }
}

TEST(SnapshotTest, MissingFileIsIOError) {
  auto loaded = LoadSnapshot(TempPath("does_not_exist.opimss"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------
// Atomic-publish failure contract, via the snapshot.* fault sites.
// Real assertions only in OPIM_FAULT_INJECT=ON builds (build-fi).

#if OPIM_FAULT_INJECT_ENABLED

class SnapshotFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

TEST_F(SnapshotFaultTest, ShortWriteLeavesPreviousSnapshotIntact) {
  const std::string path = TempPath("atomic_short.opimss");
  RRCollection a = MixedCollection(200, /*seed=*/1);
  RRCollection b = MixedCollection(400, /*seed=*/2);
  ASSERT_TRUE(SaveSnapshot(TestRunState(), a, a, path).ok());
  const std::vector<uint8_t> before = ReadAll(path);

  fault::Arm("snapshot.short_write", 1);
  auto saved = SaveSnapshot(TestRunState(), b, b, path);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.status().code(), StatusCode::kIOError);
  // The failed publish must not have touched the durable file, and the
  // temp file must not linger.
  EXPECT_EQ(ReadAll(path), before);
  auto reloaded = LoadSnapshot(path);
  EXPECT_TRUE(reloaded.ok()) << reloaded.status().ToString();
}

TEST_F(SnapshotFaultTest, RenameFailLeavesPreviousSnapshotIntact) {
  const std::string path = TempPath("atomic_rename.opimss");
  RRCollection a = MixedCollection(200, /*seed=*/3);
  RRCollection b = MixedCollection(400, /*seed=*/4);
  ASSERT_TRUE(SaveSnapshot(TestRunState(), a, a, path).ok());
  const std::vector<uint8_t> before = ReadAll(path);

  fault::Arm("snapshot.rename_fail", 1);
  auto saved = SaveSnapshot(TestRunState(), b, b, path);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(ReadAll(path), before);
}

TEST_F(SnapshotFaultTest, CorruptHeaderIsRejectedOnLoad) {
  const std::string path = TempPath("atomic_corrupt.opimss");
  RRCollection a = MixedCollection(200, /*seed=*/5);
  fault::Arm("snapshot.corrupt_header", 1);
  // The torn write itself "succeeds" — the corruption is only visible
  // to the reader, which must reject it cleanly.
  ASSERT_TRUE(SaveSnapshot(TestRunState(), a, a, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bad snapshot magic"),
            std::string::npos)
      << loaded.status().ToString();
}

#endif  // OPIM_FAULT_INJECT_ENABLED

}  // namespace
}  // namespace opim
