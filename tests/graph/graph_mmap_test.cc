#include "graph/graph_mmap.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gen/generators.h"

namespace opim {
namespace {

/// `name` under the gtest temp dir, prefixed with the running test's name:
/// ctest runs every case as its own process, side by side under -j, so
/// cases that shared a file (every GraphMmapCorruptionTest writes one in
/// SetUp) would overwrite each other's bytes mid-test.
std::string TempPath(const char* name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + test->test_suite_name() + "." +
         test->name() + "." + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Fixed header field offsets of the v1 format (pinned by the on-disk
// contract, so tests may patch bytes directly).
constexpr size_t kVersionOffset = 8;
constexpr size_t kNumNodesOffset = 16;
constexpr size_t kNumEdgesOffset = 24;
constexpr size_t kChecksumOffset = 40;
constexpr size_t kHeaderBytes = 64;

/// File offset of payload section `index` (0 = out_offsets, 1 =
/// out_neighbors, 2 = out_probs, ..., 6 = in_weight_sum): the v1 layout
/// places the seven sections in order, each on a 64-byte boundary.
size_t SectionOffset(const std::string& bytes, int index) {
  uint32_t n = 0;
  uint64_t m = 0;
  std::memcpy(&n, bytes.data() + kNumNodesOffset, sizeof(n));
  std::memcpy(&m, bytes.data() + kNumEdgesOffset, sizeof(m));
  const uint64_t sizes[7] = {(n + 1) * 8ull, m * 4, m * 8, (n + 1) * 8ull,
                             m * 4,          m * 8, n * 8ull};
  uint64_t pos = 0;
  for (int i = 0; i < index; ++i) pos = (pos + sizes[i] + 63) / 64 * 64;
  return kHeaderBytes + pos;
}

/// Recomputes and patches the header checksum after a deliberate payload
/// edit, so the edit reaches the structure validators.
void FixChecksum(std::string* bytes) {
  const uint64_t sum = OpimgChecksum(bytes->data() + kHeaderBytes,
                                     bytes->size() - kHeaderBytes);
  std::memcpy(bytes->data() + kChecksumOffset, &sum, sizeof(sum));
}

void ExpectGraphsEqual(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  const GraphStorageView va = a.storage_view();
  const GraphStorageView vb = b.storage_view();
  auto bytes_eq = [](const auto& sa, const auto& sb) {
    ASSERT_EQ(sa.size(), sb.size());
    EXPECT_EQ(std::memcmp(sa.data(), sb.data(), sa.size_bytes()), 0);
  };
  bytes_eq(va.out_offsets, vb.out_offsets);
  bytes_eq(va.out_neighbors, vb.out_neighbors);
  bytes_eq(va.out_probs, vb.out_probs);
  bytes_eq(va.in_offsets, vb.in_offsets);
  bytes_eq(va.in_neighbors, vb.in_neighbors);
  bytes_eq(va.in_probs, vb.in_probs);
  bytes_eq(va.in_weight_sum, vb.in_weight_sum);
}

TEST(GraphMmapTest, RoundTripPreservesEverything) {
  Graph g = GenerateBarabasiAlbert(300, 4);
  const std::string path = TempPath("opimg_roundtrip.opimg");
  ASSERT_TRUE(SaveOpimg(g, path).ok());
  auto r = LoadOpimg(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Graph& g2 = r.ValueOrDie();
  EXPECT_TRUE(g2.arena_backed());
  ExpectGraphsEqual(g, g2);
  EXPECT_DOUBLE_EQ(g.MaxInWeightSum(), g2.MaxInWeightSum());
  std::remove(path.c_str());
}

TEST(GraphMmapTest, HeapFallbackIsBitIdentical) {
  Graph g = GenerateErdosRenyi(150, 900);
  const std::string path = TempPath("opimg_heap.opimg");
  ASSERT_TRUE(SaveOpimg(g, path).ok());
  auto mapped = LoadOpimg(path);
  OpimgLoadOptions heap_opts;
  heap_opts.force_heap = true;
  auto heap = LoadOpimg(path, heap_opts);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(heap.ok());
  EXPECT_TRUE(mapped.ValueOrDie().arena_backed());
  EXPECT_FALSE(heap.ValueOrDie().arena_backed());
  ExpectGraphsEqual(mapped.ValueOrDie(), heap.ValueOrDie());
  std::remove(path.c_str());
}

TEST(GraphMmapTest, CopiedGraphSharesTheMapping) {
  Graph g = GenerateBarabasiAlbert(100, 3);
  const std::string path = TempPath("opimg_copy.opimg");
  ASSERT_TRUE(SaveOpimg(g, path).ok());
  auto r = LoadOpimg(path);
  ASSERT_TRUE(r.ok());
  Graph copy = r.ValueOrDie();  // copy ctor: shared pages, not a memcpy
  EXPECT_TRUE(copy.arena_backed());
  ExpectGraphsEqual(g, copy);
  std::remove(path.c_str());
}

TEST(GraphMmapTest, EmptyGraphRoundTrips) {
  GraphBuilder b(7);
  Graph g = b.Build();
  const std::string path = TempPath("opimg_empty.opimg");
  ASSERT_TRUE(SaveOpimg(g, path).ok());
  auto r = LoadOpimg(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().num_nodes(), 7u);
  EXPECT_EQ(r.ValueOrDie().num_edges(), 0u);
  std::remove(path.c_str());
}

TEST(GraphMmapTest, MissingFileIsIOError) {
  auto r = LoadOpimg("/nonexistent/opim.opimg");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

class GraphMmapCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("opimg_corrupt.opimg");
    Graph g = GenerateBarabasiAlbert(kNodes, 3);
    ASSERT_TRUE(SaveOpimg(g, path_).ok());
    bytes_ = ReadFile(path_);
    ASSERT_GT(bytes_.size(), kHeaderBytes);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `bytes_` back and asserts the load fails mentioning
  /// `substring` — every corruption class must keep its distinct message.
  void ExpectRejected(const char* substring) {
    WriteFile(path_, bytes_);
    auto r = LoadOpimg(path_);
    ASSERT_FALSE(r.ok()) << "expected rejection: " << substring;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().ToString().find(substring), std::string::npos)
        << r.status().ToString();
  }

  static constexpr uint32_t kNodes = 120;
  std::string path_;
  std::string bytes_;
};

TEST_F(GraphMmapCorruptionTest, TruncatedHeaderRejected) {
  bytes_.resize(30);
  ExpectRejected("truncated OPIMG header");
}

TEST_F(GraphMmapCorruptionTest, BadMagicRejected) {
  bytes_[0] = 'X';
  ExpectRejected("not an OPIMG file (bad magic)");
}

TEST_F(GraphMmapCorruptionTest, UnsupportedVersionRejected) {
  bytes_[kVersionOffset] = 9;
  ExpectRejected("unsupported OPIMG version 9");
}

TEST_F(GraphMmapCorruptionTest, TruncatedPayloadRejected) {
  bytes_.resize(bytes_.size() / 2);
  ExpectRejected("truncated payload");
}

TEST_F(GraphMmapCorruptionTest, ChecksumMismatchRejected) {
  bytes_[bytes_.size() - 1] ^= 0x5A;
  ExpectRejected("payload checksum mismatch");
}

TEST_F(GraphMmapCorruptionTest, CorruptOffsetsRejected) {
  // out_offsets[0] is the first payload word; any nonzero value breaks
  // the [0, m] span invariant. Re-checksum so the edit reaches the
  // structure validator instead of the checksum gate.
  bytes_[kHeaderBytes] = 1;
  FixChecksum(&bytes_);
  ExpectRejected("corrupt out offsets");
}

TEST_F(GraphMmapCorruptionTest, OverflowingEdgeCountRejected) {
  // m + 2^61 edges wrap the 64-bit section sizes back to m's payload
  // size; with out_offsets[n] patched to match, only the header's edge
  // count bound stands between this file and reads far past the mapping.
  uint64_t m = 0;
  std::memcpy(&m, bytes_.data() + kNumEdgesOffset, sizeof(m));
  const uint64_t wrapped = m + (uint64_t{1} << 61);
  std::memcpy(bytes_.data() + kNumEdgesOffset, &wrapped, sizeof(wrapped));
  const size_t out_offsets_end = kHeaderBytes + kNodes * 8;
  std::memcpy(bytes_.data() + out_offsets_end, &wrapped, sizeof(wrapped));
  FixChecksum(&bytes_);
  ExpectRejected("too large");
}

TEST_F(GraphMmapCorruptionTest, OutOfRangeNeighborRejected) {
  // The first out-neighbour id names node n, one past the last node.
  std::memcpy(bytes_.data() + SectionOffset(bytes_, 1), &kNodes,
              sizeof(kNodes));
  FixChecksum(&bytes_);
  ExpectRejected("out neighbor id 120 out of range at edge 0");
}

TEST_F(GraphMmapCorruptionTest, OutOfRangeProbabilityRejected) {
  const double p = 1.5;
  std::memcpy(bytes_.data() + SectionOffset(bytes_, 2), &p, sizeof(p));
  FixChecksum(&bytes_);
  ExpectRejected("out probability out of [0, 1] at edge 0");
}

TEST_F(GraphMmapCorruptionTest, InWeightSumRejected) {
  // LT reads a node's in-weight sum as its stop mass; a NaN there would
  // reach a float-to-integer cast. Each bad entry is refused by node.
  const std::string pristine = bytes_;
  const struct {
    uint32_t node;
    double sum;
    const char* message;
  } cases[] = {
      {0, std::numeric_limits<double>::quiet_NaN(),
       "in-weight sum not finite and >= 0 at node 0"},
      {7, -1.0, "in-weight sum not finite and >= 0 at node 7"},
      {kNodes - 1, std::numeric_limits<double>::infinity(),
       "in-weight sum not finite and >= 0 at node 119"},
  };
  for (const auto& c : cases) {
    bytes_ = pristine;
    std::memcpy(bytes_.data() + SectionOffset(bytes_, 6) + c.node * 8,
                &c.sum, sizeof(c.sum));
    FixChecksum(&bytes_);
    ExpectRejected(c.message);
  }
}

TEST_F(GraphMmapCorruptionTest, ChecksumScanCanBeDisabled) {
  // Flipping a *probability sign bit* corrupts the checksum but also the
  // structure; with both scans off the bytes load as-is. Pins that the
  // options really gate the scans (the BENCH_load "pure mmap" config).
  bytes_[bytes_.size() - 1] ^= 0x80;
  WriteFile(path_, bytes_);
  OpimgLoadOptions trusting;
  trusting.verify_checksum = false;
  trusting.validate_structure = false;
  auto r = LoadOpimg(path_, trusting);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(GraphMmapFuzzTest, SingleByteMutationsNeverCrash) {
  Graph g = GenerateBarabasiAlbert(60, 3);
  const std::string path = TempPath("opimg_fuzz.opimg");
  ASSERT_TRUE(SaveOpimg(g, path).ok());
  const std::string pristine = ReadFile(path);
  std::mt19937_64 rng(0x0397'2026);
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = pristine;
    // 1-3 byte mutations anywhere in the file, occasionally a truncation.
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits; ++e) {
      mutated[rng() % mutated.size()] ^=
          static_cast<char>(1 + rng() % 255);
    }
    if (rng() % 8 == 0) mutated.resize(rng() % (mutated.size() + 1));
    WriteFile(path, mutated);
    auto r = LoadOpimg(path);  // must return, never abort or overrun
    if (!r.ok()) {
      ++rejected;
      EXPECT_FALSE(r.status().ToString().empty());
    }
  }
  // Nearly every mutation must be caught (a rare flip only touches
  // alignment padding, which no validator reads).
  EXPECT_GT(rejected, 250);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace opim
