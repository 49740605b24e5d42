#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "obs/json.h"

namespace perfbench {

namespace {

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now()) {}

uint64_t SpanRecorder::Begin(const char* name, uint64_t parent,
                             int64_t request) {
  if (!enabled_) return 0;
  const Clock::time_point now = Clock::now();
  spans_.push_back(Span{name, parent, request, now, now});
  return spans_.size();
}

double SpanRecorder::End(uint64_t id) {
  if (id == 0) return 0.0;
  Span& span = spans_[id - 1];
  span.end = Clock::now();
  return Micros(span.end - span.begin) / 1e3;
}

opim::Status SpanRecorder::Write(const std::string& path,
                                 const std::string& workload) const {
  // One thread: events in ascending begin, wider span first on ties, so
  // parents precede their children (the order report_lint checks).
  std::vector<size_t> order(spans_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (spans_[a].begin != spans_[b].begin) {
      return spans_[a].begin < spans_[b].begin;
    }
    return spans_[a].end > spans_[b].end;
  });

  opim::JsonWriter w;
  w.BeginObject();
  w.Key("schema").Value("opim.trace.v1");
  w.Key("displayTimeUnit").Value("ms");
  w.Key("otherData").BeginObject();
  w.Key("workload").Value(workload);
  w.Key("recorded_events").Value(static_cast<uint64_t>(spans_.size()));
  w.Key("dropped_events").Value(uint64_t{0});
  w.Key("threads").Value(uint64_t{1});
  w.EndObject();
  w.Key("traceEvents").BeginArray();
  w.BeginObject();
  w.Key("name").Value("thread_name");
  w.Key("ph").Value("M");
  w.Key("pid").Value(uint64_t{1});
  w.Key("tid").Value(uint64_t{1});
  w.Key("args").BeginObject().Key("name").Value("client").EndObject();
  w.EndObject();
  for (size_t i : order) {
    const Span& span = spans_[i];
    w.BeginObject();
    w.Key("name").Value(span.name);
    w.Key("cat").Value("perfbench");
    w.Key("ph").Value("X");
    w.Key("pid").Value(uint64_t{1});
    w.Key("tid").Value(uint64_t{1});
    w.Key("ts").Value(Micros(span.begin - epoch_));
    w.Key("dur").Value(Micros(span.end - span.begin));
    w.Key("args").BeginObject();
    w.Key("id").Value(static_cast<uint64_t>(i + 1));
    w.Key("parent").Value(span.parent);
    w.Key("request").Value(span.request);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return opim::Status::IOError("cannot open " + path);
  const std::string& doc = w.str();
  const bool written = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  if (std::fclose(f) != 0 || !written) {
    return opim::Status::IOError("cannot write " + path);
  }
  return opim::Status::OK();
}

}  // namespace perfbench
