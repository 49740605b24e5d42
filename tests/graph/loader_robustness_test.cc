// Robustness sweep for the text loader: hostile inputs must come back
// as clean Status errors, never crashes or silent corruption. The binary
// `.opimg` loader has its own corruption tests (graph_mmap_test.cc).
//
// The edge-list parser is strict (see graph_io.cc ParseLines): every
// non-comment line is exactly "u v" or "u v p" with all-digit ids and a
// finite probability in [0, 1]. The fixture corpus under
// tests/graph/testdata/ pins the same contract for file-based loading.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "graph/graph_io.h"

namespace opim {
namespace {

class EdgeListRejectionTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(EdgeListRejectionTest, MalformedInputYieldsStatus) {
  auto r = ParseEdgeList(GetParam());
  EXPECT_FALSE(r.ok()) << "input accepted: '" << GetParam() << "'";
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    HostileInputs, EdgeListRejectionTest,
    ::testing::Values(
        "garbage\n",                     // non-numeric
        "1\n",                           // one endpoint (truncated line)
        "1 2 3 oops extra\n0 x\n",       // trailing junk on the first line
        "0 1 -0.5\n",                    // negative probability
        "0 1 2.0\n",                     // probability > 1
        "0.5 1\n",                       // fractional id
        "-1 2\n",                        // negative id (no modular wrap)
        "+1 2\n",                        // sign prefix is not a digit
        "1e3 2\n",                       // scientific notation is not an id
        "18446744073709551616 2\n",      // 2^64: uint64 overflow
        "0 1 nan\n",                     // NaN is not a probability
        "0 1 NaN\n",                     //
        "0 1 inf\n",                     // neither is infinity
        "0 1 -inf\n",                    //
        "0 1 0.5x\n",                    // partially-numeric probability
        "0 1 0.5 junk\n",                // trailing junk after valid edge
        "0 1\n2\n",                      // later line truncated
        "1 2a\n"));                      // partially-numeric id

class EdgeListAcceptanceTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(EdgeListAcceptanceTest, BenignVariantsParse) {
  auto r = ParseEdgeList(GetParam());
  EXPECT_TRUE(r.ok()) << GetParam() << " -> " << r.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    BenignInputs, EdgeListAcceptanceTest,
    ::testing::Values("",                       // empty file: empty graph
                      "# only comments\n",      //
                      "0 0\n",                  // self-loop tolerated
                      "0 1 0\n",                // probability exactly 0
                      "0 1 1\n",                // probability exactly 1
                      "\r\n0 1\r\n",            // CRLF
                      "0 1 0.25\r\n",           // CRLF after a probability
                      "007 08\n",               // leading zeros
                      "0\t1\t0.25\n",           // tab separation
                      "0 1 1e-3\n",             // scientific probability
                      "0 1 # trailing comment\n"));

TEST(LoaderRobustnessTest, NegativeIdDoesNotWrapIntoAnEdge) {
  // The pre-hardening parser accepted "-1 2" by wrapping -1 modulo 2^64
  // and interning the result as a sparse id — a silently wrong graph.
  // Strict parsing turns that into a decided error.
  auto r = ParseEdgeList("0 1\n-1 2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find("line 2"), std::string::npos)
      << r.status().ToString();
}

#ifdef OPIM_TEST_DATA_DIR
TEST(LoaderRobustnessTest, MalformedFixtureCorpusAllRejected) {
  const std::filesystem::path dir =
      std::filesystem::path(OPIM_TEST_DATA_DIR) / "malformed";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  size_t fixtures = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++fixtures;
    auto r = LoadEdgeList(entry.path().string());
    EXPECT_FALSE(r.ok()) << "fixture accepted: " << entry.path();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
          << entry.path() << " -> " << r.status().ToString();
    }
  }
  EXPECT_GE(fixtures, 8u) << "fixture corpus went missing from " << dir;
}

TEST(LoaderRobustnessTest, BenignFixtureCorpusAllParse) {
  const std::filesystem::path dir =
      std::filesystem::path(OPIM_TEST_DATA_DIR) / "benign";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  size_t fixtures = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++fixtures;
    auto r = LoadEdgeList(entry.path().string());
    EXPECT_TRUE(r.ok()) << entry.path() << " -> " << r.status().ToString();
    if (r.ok()) {
      EXPECT_GT(r.ValueOrDie().num_nodes(), 0u) << entry.path();
    }
  }
  EXPECT_GE(fixtures, 1u);
}
#endif  // OPIM_TEST_DATA_DIR

}  // namespace
}  // namespace opim
