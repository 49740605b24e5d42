#include "support/mmap_arena.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace opim {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(MmapArenaTest, AlignUpRoundsToCacheLines) {
  EXPECT_EQ(MmapArena::AlignUp(0), 0u);
  EXPECT_EQ(MmapArena::AlignUp(1), 64u);
  EXPECT_EQ(MmapArena::AlignUp(63), 64u);
  EXPECT_EQ(MmapArena::AlignUp(64), 64u);
  EXPECT_EQ(MmapArena::AlignUp(65), 128u);
  EXPECT_EQ(MmapArena::AlignUp(1000), 1024u);
}

TEST(MmapArenaTest, MapFileSeesTheFileBytes) {
  const std::string path = TempPath("opim_arena_map.bin");
  std::string content(10000, '\0');
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<char>(i * 131);
  }
  {
    std::ofstream f(path, std::ios::binary);
    f.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  auto arena_or = MmapArena::MapFile(path, MmapArena::Advice::kSequential);
  ASSERT_TRUE(arena_or.ok()) << arena_or.status().ToString();
  auto arena = arena_or.ValueOrDie();
  ASSERT_EQ(arena->size(), content.size());
  EXPECT_TRUE(arena->file_backed());
  EXPECT_EQ(std::memcmp(arena->data(), content.data(), content.size()), 0);
  // Hints are best-effort and must never fail, in or out of range.
  arena->Advise(0, arena->size(), MmapArena::Advice::kRandom);
  arena->Advise(100, 50, MmapArena::Advice::kWillNeed);
  arena->Advise(arena->size() + 100, 10, MmapArena::Advice::kNormal);
  std::remove(path.c_str());
}

TEST(MmapArenaTest, MapFileOfMissingPathIsIOError) {
  auto arena_or = MmapArena::MapFile("/nonexistent/opim.arena");
  ASSERT_FALSE(arena_or.ok());
  EXPECT_EQ(arena_or.status().code(), StatusCode::kIOError);
}

TEST(MmapArenaTest, EmptyFileMapsToZeroLengthArena) {
  const std::string path = TempPath("opim_arena_empty.bin");
  { std::ofstream f(path, std::ios::binary); }
  auto arena_or = MmapArena::MapFile(path);
  ASSERT_TRUE(arena_or.ok()) << arena_or.status().ToString();
  EXPECT_EQ(arena_or.ValueOrDie()->size(), 0u);
  std::remove(path.c_str());
}

TEST(MmapArenaTest, MappingOutlivesTheFile) {
  // The unlink-while-mapped idiom the spill tier relies on: pages stay
  // valid until the last arena reference drops.
  const std::string path = TempPath("opim_arena_unlinked.bin");
  {
    std::ofstream f(path, std::ios::binary);
    f << "still here after unlink";
  }
  auto arena_or = MmapArena::MapFile(path);
  ASSERT_TRUE(arena_or.ok());
  std::remove(path.c_str());
  auto arena = arena_or.ValueOrDie();
  EXPECT_EQ(std::memcmp(arena->data(), "still here", 10), 0);
}

}  // namespace
}  // namespace opim
