// Tests for the trace-event subsystem (obs/trace.h): span recording and
// RAII scoping, per-thread nesting in the emitted Chrome-trace JSON,
// ring-buffer overflow accounting, concurrent recording, and the
// report_lint validation of the recorder's own output.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/report_lint.h"
#include "support/thread_pool.h"

namespace opim {
namespace {

using Clock = TraceRecorder::Clock;

/// Every test records against the process-wide Default() recorder, so the
/// fixture guarantees the session is torn down even on assertion failure.
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override { TraceRecorder::Default().StopSession(); }
};

TEST_F(TraceTest, InactiveRecorderDropsNothingAndRecordsNothing) {
  TraceRecorder& rec = TraceRecorder::Default();
  ASSERT_FALSE(rec.active());
  rec.RecordComplete("x", "test", Clock::now(), Clock::now());
  // No session: the event vanishes without touching any counter.
  rec.StartSession();
  EXPECT_EQ(rec.recorded_events(), 0u);
  EXPECT_EQ(rec.dropped_events(), 0u);
}

TEST_F(TraceTest, RecordsCompleteEventsWithArgs) {
  TraceRecorder& rec = TraceRecorder::Default();
  rec.StartSession();
  const auto t0 = Clock::now();
  rec.RecordComplete("outer", "test", t0, t0 + std::chrono::microseconds(50),
                     TraceArg{"iter", 3});
  ASSERT_EQ(rec.recorded_events(), 1u);
  TraceSnapshot snap = rec.Snapshot();
  ASSERT_EQ(snap.threads.size(), 1u);
  ASSERT_EQ(snap.threads[0].events.size(), 1u);
  const TraceEvent& ev = snap.threads[0].events[0];
  EXPECT_STREQ(ev.name, "outer");
  EXPECT_STREQ(ev.category, "test");
  EXPECT_EQ(ev.dur_us, 50u);
  ASSERT_NE(ev.arg0.key, nullptr);
  EXPECT_STREQ(ev.arg0.key, "iter");
  EXPECT_EQ(ev.arg0.value, 3u);
  EXPECT_EQ(ev.arg1.key, nullptr);
}

TEST_F(TraceTest, TraceSpanRaiiRecordsOnDestruction) {
  TraceRecorder& rec = TraceRecorder::Default();
  rec.StartSession();
  {
    TraceSpan span("scoped", "test");
    EXPECT_EQ(rec.recorded_events(), 0u);  // records at scope exit
  }
  EXPECT_EQ(rec.recorded_events(), 1u);
}

TEST_F(TraceTest, TraceSpanIsInertWithoutSession) {
  TraceRecorder& rec = TraceRecorder::Default();
  ASSERT_FALSE(rec.active());
  {
    TraceSpan span("scoped", "test");
  }
  rec.StartSession();
  EXPECT_EQ(rec.recorded_events(), 0u);
}

TEST_F(TraceTest, SpansNestPerThreadInEmittedJson) {
  TraceRecorder& rec = TraceRecorder::Default();
  rec.StartSession();
  // Recreate the RAII pattern with explicit timestamps: children end
  // before their parents, published in end order (inner first).
  const auto t0 = Clock::now();
  auto us = [&](uint64_t n) { return t0 + std::chrono::microseconds(n); };
  rec.RecordComplete("inner1", "test", us(10), us(20));
  rec.RecordComplete("inner2", "test", us(30), us(45));
  rec.RecordComplete("outer", "test", us(5), us(50));
  rec.RecordComplete("sibling", "test", us(60), us(70));

  Result<JsonValue> doc = ParseJson(rec.ToChromeJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const std::vector<std::string> violations = LintTraceJson(doc.ValueOrDie());
  EXPECT_TRUE(violations.empty())
      << "first violation: " << violations.front();

  // The "X" events must come out begin-sorted with the parent first.
  const auto& events = doc.ValueOrDie().Find("traceEvents")->AsArray();
  std::vector<std::string> names;
  for (const JsonValue& ev : events) {
    if (ev.Find("ph")->AsString() == "X") {
      names.push_back(ev.Find("name")->AsString());
    }
  }
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "outer");
  EXPECT_EQ(names[1], "inner1");
  EXPECT_EQ(names[2], "inner2");
  EXPECT_EQ(names[3], "sibling");
}

TEST_F(TraceTest, OverflowDropsNewEventsAndPreservesOldOnes) {
  TraceRecorder& rec = TraceRecorder::Default();
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
  Counter* dropped_counter = MetricsRegistry::Default().FindOrCreateCounter(
      "opim.obs.trace_events_dropped");
  const uint64_t counter_before = dropped_counter->Value();
#endif
  TraceOptions options;
  options.events_per_thread = 4;
  rec.StartSession(options);
  const auto t0 = Clock::now();
  auto us = [&](uint64_t n) { return t0 + std::chrono::microseconds(n); };
  static const char* const kNames[] = {"e0", "e1", "e2", "e3"};
  for (uint64_t i = 0; i < 4; ++i) {
    rec.RecordComplete(kNames[i], "test", us(i * 10), us(i * 10 + 5));
  }
  // Buffer full: these three drop, the first four stay intact.
  for (uint64_t i = 0; i < 3; ++i) {
    rec.RecordComplete("overflow", "test", us(100 + i), us(101 + i));
  }
  EXPECT_EQ(rec.recorded_events(), 4u);
  EXPECT_EQ(rec.dropped_events(), 3u);
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
  EXPECT_EQ(dropped_counter->Value() - counter_before, 3u);
#endif
  TraceSnapshot snap = rec.Snapshot();
  ASSERT_EQ(snap.threads.size(), 1u);
  ASSERT_EQ(snap.threads[0].events.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_STREQ(snap.threads[0].events[i].name, kNames[i]);
    EXPECT_EQ(snap.threads[0].events[i].dur_us, 5u);
  }
  EXPECT_EQ(snap.dropped_events, 3u);
}

TEST_F(TraceTest, StartSessionClearsPreviousEvents) {
  TraceRecorder& rec = TraceRecorder::Default();
  rec.StartSession();
  rec.RecordComplete("old", "test", Clock::now(), Clock::now());
  ASSERT_EQ(rec.recorded_events(), 1u);
  rec.StartSession();
  EXPECT_EQ(rec.recorded_events(), 0u);
  rec.RecordComplete("new", "test", Clock::now(), Clock::now());
  TraceSnapshot snap = rec.Snapshot();
  ASSERT_EQ(snap.recorded_events, 1u);
  EXPECT_STREQ(snap.threads[0].events[0].name, "new");
}

TEST_F(TraceTest, ConcurrentWritersGetDistinctBuffers) {
  TraceRecorder& rec = TraceRecorder::Default();
  rec.StartSession();
  constexpr int kThreads = 4;
  constexpr uint64_t kEventsEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec] {
      const auto t0 = Clock::now();
      for (uint64_t i = 0; i < kEventsEach; ++i) {
        rec.RecordComplete("work", "test",
                           t0 + std::chrono::microseconds(2 * i),
                           t0 + std::chrono::microseconds(2 * i + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(rec.recorded_events(), kThreads * kEventsEach);
  EXPECT_EQ(rec.dropped_events(), 0u);
  TraceSnapshot snap = rec.Snapshot();
  ASSERT_EQ(snap.threads.size(), static_cast<size_t>(kThreads));
  for (const auto& t : snap.threads) {
    EXPECT_EQ(t.events.size(), kEventsEach);
  }
  // The emitted JSON from a concurrent run still parses and lints clean.
  Result<JsonValue> doc = ParseJson(rec.ToChromeJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(LintTraceJson(doc.ValueOrDie()).empty());
}

#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
TEST_F(TraceTest, ThreadPoolHookEmitsTaskSpans) {
  TraceRecorder& rec = TraceRecorder::Default();
  rec.StartSession();  // installs ThreadPool::SetTaskSpanHook
  {
    ThreadPool pool(2);
    TaskGroup group(&pool);
    for (int i = 0; i < 8; ++i) {
      group.Submit([] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      });
    }
    group.Wait();
  }
  rec.StopSession();
  TraceSnapshot snap = rec.Snapshot();
  uint64_t task_spans = 0;
  for (const auto& t : snap.threads) {
    for (const TraceEvent& ev : t.events) {
      if (std::string_view(ev.name) == "task") ++task_spans;
    }
  }
  EXPECT_EQ(task_spans, 8u);
}
#endif  // OPIM_TELEMETRY_ENABLED

TEST_F(TraceTest, ChromeJsonCarriesSchemaAndThreadMetadata) {
  TraceRecorder& rec = TraceRecorder::Default();
  rec.StartSession();
  rec.RecordComplete("x", "test", Clock::now(),
                     Clock::now() + std::chrono::microseconds(1));
  Result<JsonValue> doc = ParseJson(rec.ToChromeJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue& root = doc.ValueOrDie();
  EXPECT_EQ(root.Find("schema")->AsString(), "opim.trace.v1");
  const JsonValue* other = root.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->Find("recorded_events")->AsNumber(), 1.0);
  EXPECT_EQ(other->Find("dropped_events")->AsNumber(), 0.0);
  // First traceEvents entry is the thread_name metadata record.
  const auto& events = root.Find("traceEvents")->AsArray();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[0].Find("ph")->AsString(), "M");
  EXPECT_EQ(events[0].Find("name")->AsString(), "thread_name");
}

TEST(TraceMacrosTest, SpanMacrosCompileAndScopeCorrectly) {
  TraceRecorder& rec = TraceRecorder::Default();
  rec.StartSession();
  {
    OPIM_TR_SPAN("plain", "test");
    OPIM_TR_SPAN1("one_arg", "test", "n", 7);
    OPIM_TR_SPAN2("two_args", "test", "a", 1, "b", 2);
  }
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
  EXPECT_EQ(rec.recorded_events(), 3u);
#else
  EXPECT_EQ(rec.recorded_events(), 0u);
#endif
  rec.StopSession();
}

}  // namespace
}  // namespace opim
