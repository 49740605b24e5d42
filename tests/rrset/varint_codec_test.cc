// Round-trip fuzz for the group-varint delta codec behind RRCollection's
// compressed member storage, plus the corrupted-input contract of the
// checked decoder: arbitrary bytes must come back as Status errors, never
// out-of-bounds reads or bogus members.

#include "rrset/varint_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/random.h"

namespace opim {
namespace {

/// Encodes, then decodes through BOTH decoders (fast path with slack
/// appended, checked path on the exact span) and expects the input back.
void ExpectRoundTrip(const std::vector<NodeId>& sorted, uint32_t max_value) {
  std::vector<uint8_t> buf;
  const size_t written = EncodeRRMembers(sorted, &buf);
  ASSERT_EQ(written, buf.size());
  EXPECT_EQ(DecodedRRMemberCount(buf.data()), sorted.size());

  // Fast decoder: needs kVarintDecodeSlackBytes readable past the end.
  std::vector<uint8_t> padded = buf;
  padded.insert(padded.end(), kVarintDecodeSlackBytes, 0);
  std::vector<NodeId> fast;
  const uint8_t* end = DecodeRRMembersForEach(
      padded.data(), [&](NodeId v) { fast.push_back(v); });
  EXPECT_EQ(fast, sorted);
  EXPECT_EQ(static_cast<size_t>(end - padded.data()), written)
      << "decoder must stop exactly at the end of the encoding";

  // Checked decoder: exact span, no slack.
  std::vector<NodeId> checked;
  const Status s = DecodeRRMembersChecked(buf, max_value, &checked);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(checked, sorted);
}

TEST(VarintCodecTest, EmptyList) { ExpectRoundTrip({}, 10); }

TEST(VarintCodecTest, Singletons) {
  ExpectRoundTrip({0}, 1);
  ExpectRoundTrip({255}, 256);
  ExpectRoundTrip({256}, 257);
  ExpectRoundTrip({0x7FFFFFFEu}, 0x7FFFFFFFu);
}

TEST(VarintCodecTest, DenseRuns) {
  // Consecutive ids are the best case: every delta encodes to one byte.
  std::vector<NodeId> dense;
  for (NodeId v = 0; v < 1000; ++v) dense.push_back(v);
  ExpectRoundTrip(dense, 1000);
  std::vector<uint8_t> buf;
  EncodeRRMembers(dense, &buf);
  // count varint (2) + 250 groups of (ctrl + 4 x 1 byte).
  EXPECT_LE(buf.size(), 2u + 250u * 5u);
}

TEST(VarintCodecTest, GroupBoundaryLengths) {
  // 1..9 members exercise full and partial trailing groups.
  for (uint32_t len = 1; len <= 9; ++len) {
    std::vector<NodeId> ids;
    for (uint32_t i = 0; i < len; ++i) ids.push_back(i * 37 + 5);
    ExpectRoundTrip(ids, 1u << 16);
  }
}

TEST(VarintCodecTest, NearMaxIds) {
  const uint32_t n = 0x7FFFFFFFu;  // RRCollection's num_nodes ceiling
  ExpectRoundTrip({n - 5, n - 3, n - 2, n - 1}, n);
  ExpectRoundTrip({0, n - 1}, n);  // 4-byte delta in one group
}

TEST(VarintCodecTest, MixedDeltaWidthsInOneGroup) {
  // Forces all four 2-bit length codes into a single control byte.
  ExpectRoundTrip({1, 3, 300, 70000, 20000000}, 1u << 25);
}

TEST(VarintCodecTest, RandomizedRoundTrips) {
  Rng rng(42, 0xc0dec);
  for (int trial = 0; trial < 300; ++trial) {
    const uint32_t n = 2 + rng.UniformBelow(trial % 3 == 0 ? 1u << 24 : 4096);
    const uint32_t len = rng.UniformBelow(200);
    std::vector<NodeId> ids;
    ids.reserve(len);
    for (uint32_t i = 0; i < len; ++i) ids.push_back(rng.UniformBelow(n));
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    ExpectRoundTrip(ids, n);
  }
}

TEST(VarintCodecTest, EncodingsConcatenateIndependently) {
  // RRCollection appends many encodings into one pool; each must decode
  // from its own offset regardless of neighbors.
  std::vector<std::vector<NodeId>> sets = {
      {0, 1, 2}, {5}, {}, {100, 200, 300, 400, 500}, {7, 9}};
  std::vector<uint8_t> pool;
  std::vector<size_t> offsets;
  for (const auto& s : sets) {
    offsets.push_back(pool.size());
    EncodeRRMembers(s, &pool);
  }
  pool.insert(pool.end(), kVarintDecodeSlackBytes, 0);
  for (size_t i = 0; i < sets.size(); ++i) {
    std::vector<NodeId> got;
    DecodeRRMembersForEach(pool.data() + offsets[i],
                           [&](NodeId v) { got.push_back(v); });
    EXPECT_EQ(got, sets[i]) << "set " << i;
  }
}

// --- Corrupted-input contract: every malformed byte string must yield a
// failed Status from the checked decoder (UB-free by construction: it
// never reads outside the span).

Status CheckedDecode(const std::vector<uint8_t>& bytes, uint32_t max_value) {
  std::vector<NodeId> out;
  return DecodeRRMembersChecked(bytes, max_value, &out);
}

TEST(VarintCodecCorruptTest, EmptyInput) {
  EXPECT_FALSE(CheckedDecode({}, 10).ok());
}

TEST(VarintCodecCorruptTest, TruncatedCountHeader) {
  // Continuation bit set with nothing after it.
  EXPECT_FALSE(CheckedDecode({0x80}, 10).ok());
  EXPECT_FALSE(CheckedDecode({0xFF, 0xFF}, 10).ok());
}

TEST(VarintCodecCorruptTest, TruncatedGroup) {
  std::vector<uint8_t> buf;
  EncodeRRMembers(std::vector<NodeId>{10, 20, 30, 40, 50}, &buf);
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    std::vector<uint8_t> trunc(buf.begin(), buf.begin() + cut);
    EXPECT_FALSE(CheckedDecode(trunc, 100).ok()) << "cut at " << cut;
  }
}

TEST(VarintCodecCorruptTest, TrailingBytesRejected) {
  std::vector<uint8_t> buf;
  EncodeRRMembers(std::vector<NodeId>{1, 2, 3}, &buf);
  buf.push_back(0x00);
  EXPECT_FALSE(CheckedDecode(buf, 10).ok());
}

TEST(VarintCodecCorruptTest, CountLargerThanUniverse) {
  // Claimed count exceeds max_value: cannot hold that many distinct ids.
  std::vector<uint8_t> buf = {0x05};  // count = 5, no payload
  EXPECT_FALSE(CheckedDecode(buf, 3).ok());
}

TEST(VarintCodecCorruptTest, HugeCountDoesNotOverRead) {
  // ~4 billion claimed members, 2 actual bytes.
  EXPECT_FALSE(CheckedDecode({0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, 1u << 30).ok());
}

TEST(VarintCodecCorruptTest, IdOutOfRange) {
  std::vector<uint8_t> buf;
  EncodeRRMembers(std::vector<NodeId>{10, 90}, &buf);
  EXPECT_TRUE(CheckedDecode(buf, 91).ok());
  EXPECT_FALSE(CheckedDecode(buf, 90).ok());  // 90 >= max_value
  EXPECT_FALSE(CheckedDecode(buf, 5).ok());
}

TEST(VarintCodecCorruptTest, DeltaOverflowRejected) {
  // First id near UINT32_MAX plus a large delta wraps uint32; the checked
  // decoder must flag it instead of emitting a small bogus id.
  std::vector<uint8_t> buf;
  buf.push_back(0x02);              // count = 2
  buf.push_back(0x0F);              // ctrl: two 4-byte payloads
  for (int i = 0; i < 4; ++i) buf.push_back(0xFF);  // v0 = UINT32_MAX
  for (int i = 0; i < 4; ++i) buf.push_back(0xFF);  // delta wraps
  EXPECT_FALSE(CheckedDecode(buf, 0xFFFFFFFFu).ok());
}

TEST(VarintCodecCorruptTest, RandomBytesNeverCrash) {
  Rng rng(7, 0xbad);
  for (int trial = 0; trial < 2000; ++trial) {
    const uint32_t len = rng.UniformBelow(40);
    std::vector<uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformBelow(256));
    std::vector<NodeId> out;
    const Status s = DecodeRRMembersChecked(bytes, 1000, &out);
    if (s.ok()) {
      // Whatever decoded must satisfy the invariants the engine relies on.
      EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
      for (NodeId v : out) EXPECT_LT(v, 1000u);
    }
  }
}

}  // namespace
}  // namespace opim
