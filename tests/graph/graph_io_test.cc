#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <vector>

namespace opim {
namespace {

TEST(GraphIoTest, ParseSimpleEdgeList) {
  auto r = ParseEdgeList("0 1\n1 2\n2 0\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Graph& g = r.ValueOrDie();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(GraphIoTest, CommentsAndBlankLinesSkipped) {
  auto r = ParseEdgeList("# SNAP header\n\n  # indented comment\n0 1\n\n1 0\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().num_edges(), 2u);
}

TEST(GraphIoTest, ExplicitProbabilitiesParsed) {
  auto r = ParseEdgeList("0 1 0.25\n1 0 0.75\n");
  ASSERT_TRUE(r.ok());
  const Graph& g = r.ValueOrDie();
  EXPECT_DOUBLE_EQ(g.OutProbs(0)[0], 0.25);
  EXPECT_DOUBLE_EQ(g.OutProbs(1)[0], 0.75);
}

TEST(GraphIoTest, SparseIdsCompacted) {
  auto r = ParseEdgeList("1000000 5\n5 99\n");
  ASSERT_TRUE(r.ok());
  const Graph& g = r.ValueOrDie();
  EXPECT_EQ(g.num_nodes(), 3u);  // 1000000, 5, 99 -> 0, 1, 2
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutNeighbors(0)[0], 1u);
  EXPECT_EQ(g.OutNeighbors(1)[0], 2u);
}

TEST(GraphIoTest, FileIdsMapNodesBack) {
  std::vector<uint64_t> ids;
  auto r = ParseEdgeList(
      "10 20 0.9\n30 20 0.9\n20 40 0.5\n18446744073709551615 10\n", {},
      &ids);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ids, (std::vector<uint64_t>{10, 20, 30, 40, UINT64_MAX}));
  EXPECT_EQ(ids.size(), r.ValueOrDie().num_nodes());
  // A failed parse leaves the table as it was.
  std::vector<uint64_t> kept = {7};
  EXPECT_FALSE(ParseEdgeList("0 1\nnot an edge\n", {}, &kept).ok());
  EXPECT_EQ(kept, (std::vector<uint64_t>{7}));
}

TEST(GraphIoTest, UndirectedOptionDoublesEdges) {
  EdgeListOptions opt;
  opt.undirected = true;
  auto r = ParseEdgeList("0 1\n", opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().num_edges(), 2u);
}

TEST(GraphIoTest, MalformedLineRejectedWithLineNumber) {
  auto r = ParseEdgeList("0 1\nnot an edge\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(GraphIoTest, OutOfRangeProbabilityRejected) {
  auto r = ParseEdgeList("0 1 1.5\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoTest, MissingFileIsIOError) {
  auto r = LoadEdgeList("/nonexistent/opim_missing.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(GraphIoTest, SaveLoadRoundTrip) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 0.125);
  b.AddEdge(1, 2, 0.5);
  b.AddEdge(2, 0, 0.875);
  Graph g = b.Build();

  std::string path = ::testing::TempDir() + "/opim_roundtrip.txt";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto r = LoadEdgeList(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Graph& g2 = r.ValueOrDie();
  EXPECT_EQ(g2.num_nodes(), g.num_nodes());
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  // Probabilities survive (first-appearance ordering preserves 0,1,2 here).
  EXPECT_DOUBLE_EQ(g2.OutProbs(0)[0], 0.125);
  EXPECT_DOUBLE_EQ(g2.OutProbs(1)[0], 0.5);
  EXPECT_DOUBLE_EQ(g2.OutProbs(2)[0], 0.875);
  std::remove(path.c_str());
}

TEST(GraphIoTest, WhitespaceVariantsAccepted) {
  auto r = ParseEdgeList("0\t1\n  2   3  \n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().num_edges(), 2u);
}

}  // namespace
}  // namespace opim
