// Benchmark-side span recorder for the traced run.
//
// The benchmark times each public call it makes into the library (graph
// load, view build, RunOpimC, the OnlineMaximizer constructor, Advance,
// QueryAll) as a span with a name, start, end, parent and request id.
// Spans stay in memory and are written once, at exit, as an
// "opim.trace.v1" Chrome-trace document that tools/report_lint accepts.
// All spans come from the single client thread, so they nest by
// construction.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "support/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class SpanRecorder {
 public:
  /// A disabled recorder hands out id 0 and records nothing.
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (1-based; 0 when disabled).
  /// `parent` is the id of the enclosing span, 0 for a root; `request` is
  /// the request id the span belongs to, or -1 outside any request.
  uint64_t Begin(const char* name, uint64_t parent, int64_t request);

  /// Closes span `id` and returns its duration in milliseconds.
  double End(uint64_t id);

  /// Number of spans recorded so far.
  size_t size() const { return spans_.size(); }

  /// Writes every span as an "opim.trace.v1" Chrome-trace document.
  opim::Status Write(const std::string& path,
                     const std::string& workload) const;

 private:
  struct Span {
    const char* name;
    uint64_t parent;
    int64_t request;
    Clock::time_point begin;
    Clock::time_point end;
  };

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction or Close().
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, uint64_t parent,
             int64_t request)
      : recorder_(recorder), id_(recorder.Begin(name, parent, request)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

  void Close() {
    if (id_ != 0) recorder_.End(id_);
    id_ = 0;
  }

 private:
  SpanRecorder& recorder_;
  uint64_t id_;
};

}  // namespace perfbench
