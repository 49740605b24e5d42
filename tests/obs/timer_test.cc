#include "obs/timer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "obs/metrics.h"

namespace opim {
namespace {

TEST(ScopedTimerTest, ElapsedIsMonotone) {
  ScopedTimer timer(nullptr);
  uint64_t a = timer.ElapsedMicros();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  uint64_t b = timer.ElapsedMicros();
  EXPECT_GE(b, a);
  EXPECT_GE(b, 2000u);
  EXPECT_GE(timer.ElapsedSeconds(), 0.002);
}

TEST(ScopedTimerTest, RecordsIntoHistogramOnDestruction) {
  Histogram hist;
  {
    ScopedTimer timer(&hist);
    EXPECT_EQ(hist.Count(), 0u);  // nothing recorded while alive
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(hist.Count(), 1u);
  EXPECT_GE(hist.Sum(), 1000u);  // at least 1ms in microseconds
}

TEST(ScopedTimerTest, NullHistogramMeasuresOnly) {
  // Must not crash on destruction.
  ScopedTimer timer(nullptr);
  EXPECT_GE(timer.ElapsedMicros(), 0u);
}

}  // namespace
}  // namespace opim
