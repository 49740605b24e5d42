// End-to-end tests of the graph_pack converter binary: edge-list →
// .opimg round trips (with --verify) and the distinct exit codes for I/O
// failures vs. usage errors. Located via the OPIM_GRAPH_PACK_PATH
// compile definition.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>
#include <utility>

#include "graph/graph_io.h"
#include "graph/graph_mmap.h"

namespace opim {
namespace {

/// Runs a command, returning (exit code, captured stdout+stderr).
std::pair<int, std::string> RunCommand(const std::string& cmd) {
  std::array<char, 4096> buffer;
  std::string output;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  const int wait_status = pclose(pipe);
  const int rc =
      WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
  return {rc, output};
}

std::string Pack() { return OPIM_GRAPH_PACK_PATH; }

std::string TmpFile(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(GraphPackTest, EdgeListToOpimgVerifiedRoundTrip) {
  const std::string txt = TmpFile("pack_in.txt");
  {
    FILE* f = fopen(txt.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("# tiny triangle plus a tail\n0 1\n1 2\n2 0\n2 3\n", f);
    fclose(f);
  }
  const std::string packed = TmpFile("pack_out.opimg");
  auto [rc, out] = RunCommand(Pack() + " --in=" + txt + " --out=" + packed +
                              " --verify");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("verified"), std::string::npos) << out;

  // The written container must load to the same graph the library
  // parses from the same text.
  EdgeListOptions opts;
  auto direct = LoadEdgeList(txt, opts);
  ASSERT_TRUE(direct.ok());
  auto reload = LoadOpimg(packed);
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  EXPECT_EQ(reload.ValueOrDie().num_nodes(), direct.ValueOrDie().num_nodes());
  EXPECT_EQ(reload.ValueOrDie().num_edges(), direct.ValueOrDie().num_edges());
  std::remove(txt.c_str());
  std::remove(packed.c_str());
}

TEST(GraphPackTest, MissingInputIsExitOne) {
  auto [rc, out] = RunCommand(Pack() + " --in=/nonexistent/g.txt --out=" +
                              TmpFile("pack_never.opimg"));
  EXPECT_EQ(rc, 1) << out;
  EXPECT_NE(out.find("graph_pack:"), std::string::npos) << out;
}

TEST(GraphPackTest, UsageErrorsAreExitTwo) {
  auto [rc1, out1] = RunCommand(Pack());
  EXPECT_EQ(rc1, 2) << out1;
  EXPECT_NE(out1.find("usage:"), std::string::npos) << out1;

  // The input is always a text edge list; the old format flag is gone.
  auto [rc2, out2] = RunCommand(Pack() + " --in=a --out=b --in-format=bin");
  EXPECT_EQ(rc2, 2) << out2;

  auto [rc3, out3] = RunCommand(Pack() + " --in=a --out=b --scheme=bogus");
  EXPECT_EQ(rc3, 2) << out3;

  // Malformed numbers are usage errors, not uncaught exceptions; a
  // negative seed is refused rather than wrapped to 2^64 - 1.
  for (const char* flag : {"--p=abc", "--p=", "--seed=x", "--seed=-1"}) {
    auto [rc, out] =
        RunCommand(Pack() + " --in=a --out=b --scheme=const " + flag);
    EXPECT_EQ(rc, 2) << flag << ": " << out;
    EXPECT_NE(out.find("usage:"), std::string::npos) << flag << ": " << out;
  }
}

}  // namespace
}  // namespace opim
